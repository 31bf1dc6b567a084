// Cross-cutting tests: the benchmark stack harness, guest-environment
// registration slots, deferred-vector plumbing, and end-to-end determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/appbench.h"
#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

// --- ArmStack harness -----------------------------------------------------------

TEST(ArmStackTest, VmStackRunsBodyOnPcpu0) {
  ArmStack stack(StackConfig::Vm(), 1);
  int ran_on = -1;
  stack.Run([&](GuestEnv& env) { ran_on = env.cpu().index(); });
  EXPECT_EQ(ran_on, 0);
}

TEST(ArmStackTest, NestedStackGivesTheBodyTheNestedContext) {
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.Run([&](GuestEnv& env) {
    EXPECT_EQ(env.vcpu().mode, VcpuMode::kVel1Nested);
    EXPECT_TRUE(env.vcpu().vm().config().virtual_el2);
  });
}

TEST(ArmStackTest, TrapsAccumulateAcrossRuns) {
  ArmStack stack(StackConfig::Vm(), 1);
  stack.Run([](GuestEnv& env) { env.Hvc(kHvcTestCall); });
  EXPECT_EQ(stack.TotalTrapsToHost(), 1u);
}

TEST(ArmStackTest, ReceiverParksBeforeSenderRuns) {
  ArmStack stack(StackConfig::Vm(), 2);
  bool receiver_first = false;
  bool receiver_ran = false;
  stack.Run(
      [&](GuestEnv&) { receiver_first = receiver_ran; },
      [&](GuestEnv& env) {
        receiver_ran = true;
        env.ParkRunning();
      });
  EXPECT_TRUE(receiver_first);
}

// --- registration slots --------------------------------------------------------

TEST(GuestEnvTest, NestedProgramSlotDependsOnMode) {
  // From virtual EL2 the image loads into nested_sw; from a nested
  // hypervisor (itself in kVel1Nested) into nested2_sw.
  Machine machine(MachineConfig{.features = ArchFeatures::Armv83Nv()});
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm(
      {.name = "h", .ram_size = 32ull << 20, .virtual_el2 = true});
  Vcpu& vcpu = vm->vcpu(0);

  GuestEnv env(&machine.cpu(0), &vcpu);
  vcpu.mode = VcpuMode::kVel2;
  env.SetNestedProgram([](GuestEnv&) {});
  EXPECT_TRUE(static_cast<bool>(vcpu.nested_sw.main));
  EXPECT_FALSE(static_cast<bool>(vcpu.nested2_sw.main));

  vcpu.mode = VcpuMode::kVel1Nested;
  env.SetNestedProgram([](GuestEnv&) {});
  EXPECT_TRUE(static_cast<bool>(vcpu.nested2_sw.main));
}

TEST(GuestEnvTest, PlainVmCannotLoadNestedImages) {
  Machine machine(MachineConfig{.features = ArchFeatures::Armv83Nv()});
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "p", .ram_size = 8ull << 20});
  GuestEnv env(&machine.cpu(0), &vm->vcpu(0));
  EXPECT_DEATH(env.SetNestedProgram([](GuestEnv&) {}),
               "only guest hypervisors");
}

TEST(GuestEnvTest, DoubleDeferredVectorIsRejected) {
  Machine machine(MachineConfig{.features = ArchFeatures::Armv83Nv()});
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm(
      {.name = "h", .ram_size = 32ull << 20, .virtual_el2 = true});
  GuestEnv env(&machine.cpu(0), &vm->vcpu(0));
  class NullHandler : public Vel2Handler {
    void OnVirtualExit(GuestEnv&, const Syndrome&) override {}
  } handler;
  env.DeferVectorCall(&handler, Syndrome::Hvc(1));
  EXPECT_DEATH(env.DeferVectorCall(&handler, Syndrome::Hvc(2)),
               "already pending");
}

// --- determinism across independent stacks ----------------------------------------

TEST(DeterminismTest, MicrobenchSuiteIsBitStable) {
  for (MicrobenchKind kind :
       {MicrobenchKind::kHypercall, MicrobenchKind::kDeviceIo,
        MicrobenchKind::kVirtualIpi}) {
    for (StackConfig cfg :
         {StackConfig::Vm(), StackConfig::NestedV83(true),
          StackConfig::NestedNeve(false)}) {
      MicrobenchResult a = RunArmMicrobench(kind, cfg, 7);
      MicrobenchResult b = RunArmMicrobench(kind, cfg, 7);
      EXPECT_EQ(a.cycles_per_op, b.cycles_per_op) << MicrobenchName(kind);
      EXPECT_EQ(a.traps_per_op, b.traps_per_op) << MicrobenchName(kind);
    }
  }
}

TEST(DeterminismTest, AppBenchIsBitStable) {
  const AppProfile& p = AppProfiles()[5];  // TCP_MAERTS: rate-model heavy
  for (AppStack stack : {AppStack::kArmNestedV83, AppStack::kArmNestedNeve,
                         AppStack::kX86Nested}) {
    AppBenchResult a = RunAppBench(p, stack);
    AppBenchResult b = RunAppBench(p, stack);
    EXPECT_EQ(a.overhead, b.overhead);
  }
}

TEST(DeterminismTest, IterationCountDoesNotChangePerOpCost) {
  // Steady state: per-op cost is iteration-count independent (warmup absorbs
  // the cold shadow/TLB misses).
  MicrobenchResult small = RunArmMicrobench(MicrobenchKind::kHypercall,
                                            StackConfig::NestedNeve(false), 5);
  MicrobenchResult large = RunArmMicrobench(MicrobenchKind::kHypercall,
                                            StackConfig::NestedNeve(false), 50);
  EXPECT_EQ(small.cycles_per_op, large.cycles_per_op);
  EXPECT_EQ(small.traps_per_op, large.traps_per_op);
}

// --- x86 stack harness ---------------------------------------------------------

TEST(X86StackTest, NestedStackRoundTrips) {
  X86Stack stack(/*nested=*/true, 1);
  int done = 0;
  stack.Run([&](X86Env& env) {
    env.Vmcall(0x20);
    ++done;
  });
  EXPECT_EQ(done, 1);
  EXPECT_GE(stack.TotalVmexits(), 5u);
}

TEST(X86StackTest, ShadowingKnobReachesTheStack) {
  auto exits = [](bool shadowing) {
    MicrobenchResult r = RunX86Microbench(MicrobenchKind::kHypercall, true,
                                          5, shadowing);
    return r.traps_per_op;
  };
  EXPECT_LT(exits(true), exits(false));
}

// --- GICv2 knob through the harness ------------------------------------------------

TEST(ArmStackTest, Gicv2KnobMattersOnlyUnderNeve) {
  // Under plain ARMv8.3 both GIC interfaces trap on every hypervisor-
  // interface access, so the counts coincide -- the paper's "the
  // programming interfaces for both GIC versions are almost identical".
  // Under NEVE only the GICv3 system-register interface benefits from
  // Table 5's cached copies; the memory-mapped interface still traps.
  auto traps = [](bool neve, bool gicv2) {
    StackConfig cfg =
        neve ? StackConfig::NestedNeve(false) : StackConfig::NestedV83(false);
    cfg.gicv2_mmio = gicv2;
    return RunArmMicrobench(MicrobenchKind::kHypercall, cfg, 5).traps_per_op;
  };
  EXPECT_EQ(traps(false, false), traps(false, true));
  EXPECT_GT(traps(true, true), traps(true, false));
}

// --- resolution cache on the trap path ------------------------------------------

// Warms `cfg` with 10 nested hypercalls, then requires 100 more to add no
// resolution-cache misses and no bank recycles.
void ExpectNoSteadyStateMisses(const StackConfig& cfg) {
  ArmStack stack(cfg, 1);
  const ResolutionCache& rc = stack.machine().cpu(0).resolution_cache();
  uint64_t misses = 0, invalidations = 0;
  stack.Run([&](GuestEnv& env) {
    for (int i = 0; i < 10; ++i) {
      env.Hvc(kHvcTestCall);
    }
    misses = rc.misses();
    invalidations = rc.invalidations();
    for (int i = 0; i < 100; ++i) {
      env.Hvc(kHvcTestCall);
    }
  });
  EXPECT_EQ(rc.misses() - misses, 0u);
  EXPECT_EQ(rc.invalidations() - invalidations, 0u);
}

// A nested round trip cycles through up to six (HCR_EL2, VNCR_EL2)
// configurations on NEVE stacks, and the cache keeps a bank for each. Four
// banks took 648 misses per hypercall on neve and 337 on neve_vhe.
TEST(ResolutionCacheTest, SteadyStateNestedHypercallsTakeNoMisses) {
  for (bool neve : {false, true}) {
    for (bool vhe : {false, true}) {
      SCOPED_TRACE(testing::Message() << "neve=" << neve << " vhe=" << vhe);
      ExpectNoSteadyStateMisses(neve ? StackConfig::NestedNeve(vhe)
                                     : StackConfig::NestedV83(vhe));
    }
  }
}

TEST(ResolutionCacheTest, EightBanksFitInTheMemoryOfFour) {
  // Four banks of 24-byte entries took 75,680 bytes.
  EXPECT_LE(sizeof(ResolutionCache), 75'680u);
}

// --- metric handles on the trap path -----------------------------------------

uint64_t CounterValue(const Observability& obs, std::string_view name) {
  const MetricCounter* c = obs.metrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// The CPU-side totals the cpu.* counters mirror, summed over every CPU.
struct CpuTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t traps = 0;
};

CpuTotals SumCpuTotals(Machine& machine) {
  CpuTotals t;
  for (int i = 0; i < machine.num_cpus(); ++i) {
    Cpu& cpu = machine.cpu(i);
    t.hits += cpu.resolution_cache().hits();
    t.misses += cpu.resolution_cache().misses();
    t.traps += cpu.trace().traps_to_el2();
  }
  return t;
}

// With obs on from the start, the handle-fed counters equal the counts the
// CPUs keep themselves, and the per-class episode histograms add up to the
// overall one.
TEST(ObsHandleTest, CountersMatchTheCpusOnNestedHypercalls) {
  for (bool neve : {false, true}) {
    SCOPED_TRACE(neve ? "NestedNeve" : "NestedV83");
    ArmStack stack(
        neve ? StackConfig::NestedNeve(false) : StackConfig::NestedV83(false),
        1);
    Machine& machine = stack.machine();
    machine.obs().set_enabled(true);
    CpuTotals base = SumCpuTotals(machine);
    stack.Run([](GuestEnv& env) {
      for (int i = 0; i < 20; ++i) {
        env.Hvc(kHvcTestCall);
      }
    });
    CpuTotals now = SumCpuTotals(machine);
    const Observability& obs = machine.obs();
    EXPECT_GT(now.traps - base.traps, 20u);
    EXPECT_EQ(CounterValue(obs, "cpu.resolve_cache_hits"),
              now.hits - base.hits);
    EXPECT_EQ(CounterValue(obs, "cpu.resolve_cache_misses"),
              now.misses - base.misses);
    EXPECT_EQ(CounterValue(obs, "cpu.traps_to_el2"), now.traps - base.traps);

    const MetricHistogram* episodes =
        obs.metrics().FindHistogram("cpu.trap_episode_cycles");
    ASSERT_NE(episodes, nullptr);
    uint64_t per_class = 0;
    for (const auto& [name, h] : obs.metrics().histograms()) {
      if (name.starts_with("cpu.trap_episode_cycles.")) {
        per_class += h.count();
      }
    }
    EXPECT_GT(per_class, 0u);
    EXPECT_EQ(per_class, episodes->count());
  }
}

// Each outermost trap episode lands in the histogram named after its class.
TEST(ObsHandleTest, EpisodeHistogramsAreNamedByTrapClass) {
  ArmStack stack(StackConfig::Vm(), 1);
  stack.machine().obs().set_enabled(true);
  stack.Run([](GuestEnv& env) {
    for (int i = 0; i < 3; ++i) {
      env.Hvc(kHvcTestCall);
    }
  });
  std::vector<std::string> per_class;
  for (const auto& [name, h] : stack.machine().obs().metrics().histograms()) {
    if (name.starts_with("cpu.trap_episode_cycles.")) {
      per_class.push_back(name + "=" + std::to_string(h.count()));
    }
  }
  EXPECT_EQ(per_class,
            std::vector<std::string>{"cpu.trap_episode_cycles.HVC64=3"});
}

// Re-wiring a CPU to another observability layer mid-run moves its
// recording there and leaves the old registry as it was; wiring it back
// resumes recording in the old one.
TEST(ObsHandleTest, RewiredCpuRecordsIntoTheNewRegistry) {
  ArmStack stack(StackConfig::NestedV83(false), 1);
  Machine& machine = stack.machine();
  Cpu& cpu = machine.cpu(0);
  machine.obs().set_enabled(true);
  Observability other;
  other.set_enabled(true);

  std::string before;
  uint64_t traps_before = 0;
  uint64_t hits_before = 0;
  uint64_t traps_moved = 0;
  uint64_t hits_moved = 0;
  stack.Run([&](GuestEnv& env) {
    auto hypercalls = [&] {
      for (int i = 0; i < 5; ++i) {
        env.Hvc(kHvcTestCall);
      }
    };
    hypercalls();
    before = machine.obs().metrics().TextReport();
    traps_before = cpu.trace().traps_to_el2();
    hits_before = cpu.resolution_cache().hits();

    cpu.SetObservability(&other);
    hypercalls();
    traps_moved = cpu.trace().traps_to_el2() - traps_before;
    hits_moved = cpu.resolution_cache().hits() - hits_before;
    EXPECT_EQ(machine.obs().metrics().TextReport(), before);

    cpu.SetObservability(&machine.obs());
    hypercalls();
  });
  EXPECT_EQ(CounterValue(machine.obs(), "cpu.traps_to_el2") + traps_moved,
            cpu.trace().traps_to_el2());
  EXPECT_GT(traps_moved, 5u);
  EXPECT_EQ(CounterValue(other, "cpu.traps_to_el2"), traps_moved);
  EXPECT_EQ(CounterValue(other, "cpu.resolve_cache_hits"), hits_moved);
  EXPECT_GT(CounterValue(other, "hyp.switches_into_guest"), 0u);
  EXPECT_GT(CounterValue(machine.obs(), "cpu.traps_to_el2"), traps_before);
}

}  // namespace
}  // namespace neve
