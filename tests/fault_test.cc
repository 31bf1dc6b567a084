// Tests for the deterministic fault-injection harness and guest-fault
// confinement: same seed => byte-identical injection log (at any thread
// fan-out), armed-at-rate-zero behaves exactly like disabled, a
// guest-attributable fault kills only its VM while siblings and the machine
// keep running, the watchdog converts trap livelock into a confined kill,
// RestartVm brings a killed VM back, and fault metrics reconcile exactly
// with the injection log.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/parallel.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/hyp/virtio.h"
#include "src/obs/observability.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

using testing::HasSubstr;

// --- injector unit behavior --------------------------------------------------

FaultConfig Campaign(uint64_t seed, double rate,
                     uint32_t points = kAllFaultPoints,
                     uint64_t watchdog = 0) {
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = seed;
  fc.rate = rate;
  fc.points = points;
  fc.watchdog_budget = watchdog;
  return fc;
}

TEST(FaultInjectorTest, SameSeedSameDrawSequenceSameLog) {
  FaultInjector a(Campaign(42, 0.3));
  FaultInjector b(Campaign(42, 0.3));
  for (int i = 0; i < 200; ++i) {
    FaultPoint p = static_cast<FaultPoint>(i % (kNumFaultPoints - 1));
    a.ShouldInject(p, i % 2, 1000u * i, i);
    b.ShouldInject(p, i % 2, 1000u * i, i);
  }
  EXPECT_GT(a.total_injections(), 0u);
  EXPECT_EQ(a.LogText(), b.LogText());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(Campaign(1, 0.5));
  FaultInjector b(Campaign(2, 0.5));
  for (int i = 0; i < 200; ++i) {
    a.ShouldInject(FaultPoint::kGicDroppedIrq, 0, i);
    b.ShouldInject(FaultPoint::kGicDroppedIrq, 0, i);
  }
  EXPECT_NE(a.LogText(), b.LogText());
}

TEST(FaultInjectorTest, DisarmedPointsNeverFire) {
  FaultInjector fi(Campaign(7, 1.0, FaultPointBit(FaultPoint::kGicDroppedIrq)));
  EXPECT_FALSE(fi.ShouldInject(FaultPoint::kGicSpuriousIrq, 0, 0));
  EXPECT_TRUE(fi.ShouldInject(FaultPoint::kGicDroppedIrq, 0, 0));
  EXPECT_EQ(fi.count(FaultPoint::kGicSpuriousIrq), 0u);
  EXPECT_EQ(fi.count(FaultPoint::kGicDroppedIrq), 1u);
}

TEST(FaultInjectorTest, TrapLoopRefusedWithoutWatchdog) {
  // An injected infinite trap loop with no watchdog would hang the process,
  // so the injector refuses to fire that point until a budget is set.
  FaultInjector no_watchdog(Campaign(5, 1.0));
  EXPECT_FALSE(no_watchdog.ShouldInject(FaultPoint::kTrapLoop, 0, 0));
  FaultInjector with_watchdog(Campaign(5, 1.0, kAllFaultPoints, 1000));
  EXPECT_TRUE(with_watchdog.ShouldInject(FaultPoint::kTrapLoop, 0, 0));
}

TEST(FaultInjectorTest, RateZeroDrawsNothing) {
  FaultInjector fi(Campaign(9, 0.0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.ShouldInject(FaultPoint::kVncrCorruption, 0, i));
  }
  EXPECT_EQ(fi.total_injections(), 0u);
  EXPECT_EQ(fi.LogText(), "");
}

// --- end-to-end campaigns ----------------------------------------------------

struct CampaignResult {
  Status status;
  std::string log;
  uint64_t injections = 0;
  uint64_t cycles = 0;
  uint64_t traps = 0;
  int64_t open_spans = 0;
};

// Runs a nested (L2-under-L1) workload with enough variety -- memory traffic
// through the shadow Stage-2, hypercalls, world switches -- to present many
// injection opportunities. Observability is on, as in the chaos campaigns;
// recording charges no simulated cycle.
CampaignResult RunNestedCampaign(const FaultConfig& fault, bool vhe = false,
                                 bool neve = false) {
  StackConfig cfg =
      neve ? StackConfig::NestedNeve(vhe) : StackConfig::NestedV83(vhe);
  cfg.fault = fault;
  ArmStack stack(cfg, 1);
  stack.machine().obs().set_enabled(true);
  CampaignResult r;
  r.status = stack.Run([](GuestEnv& env) {
    for (int i = 0; i < 40; ++i) {
      env.Store(Va(0x2000 + i * 0x1000), i);
      (void)env.Load(Va(0x2000 + i * 0x1000));
      env.Hvc(kHvcTestCall);
    }
  });
  r.log = stack.machine().fault().LogText();
  r.injections = stack.machine().fault().total_injections();
  r.cycles = stack.machine().cpu(0).cycles();
  r.traps = stack.TotalTrapsToHost();
  r.open_spans = stack.machine().obs().tracer().open_spans();
  return r;
}

TEST(CampaignTest, SameSeedIsByteIdenticalAcrossRuns) {
  FaultConfig fc = Campaign(1234, 0.02, kAllFaultPoints, 10'000'000);
  CampaignResult a = RunNestedCampaign(fc);
  CampaignResult b = RunNestedCampaign(fc);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.traps, b.traps);
  EXPECT_EQ(a.status.ToString(), b.status.ToString());
  EXPECT_EQ(a.open_spans, 0);
  EXPECT_EQ(b.open_spans, 0);
}

TEST(CampaignTest, LogIdenticalAcrossThreadFanout) {
  // The bench harness fans cells out with --threads=N; every cell owns its
  // machine and seed, so the logs must not depend on the fan-out width.
  constexpr size_t kCells = 4;
  auto run_cells = [&](unsigned threads) {
    std::vector<std::string> logs(kCells);
    std::vector<int64_t> open_spans(kCells);
    ParallelFor(kCells, threads, [&](size_t i) {
      FaultConfig fc =
          Campaign(1000 + i, 0.02, kAllFaultPoints, 10'000'000);
      CampaignResult r = RunNestedCampaign(fc);
      logs[i] = r.log;
      open_spans[i] = r.open_spans;
    });
    EXPECT_EQ(open_spans, std::vector<int64_t>(kCells, 0));
    return logs;
  };
  std::vector<std::string> serial = run_cells(1);
  EXPECT_EQ(serial, run_cells(2));
  EXPECT_EQ(serial, run_cells(4));
}

TEST(CampaignTest, ArmedAtRateZeroMatchesDisabledExactly) {
  // The zero-cost contract: arming the injector with nothing to inject must
  // not perturb a single cycle or trap.
  FaultConfig off;  // disabled
  FaultConfig armed_zero = Campaign(77, 0.0);
  CampaignResult a = RunNestedCampaign(off);
  CampaignResult b = RunNestedCampaign(armed_zero);
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(b.injections, 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.traps, b.traps);
  EXPECT_EQ(a.open_spans, 0);
  EXPECT_EQ(b.open_spans, 0);
}

TEST(CampaignTest, MetricsReconcileExactlyWithInjectionLog) {
  StackConfig cfg = StackConfig::NestedV83(false);
  cfg.fault = Campaign(4242, 0.05, kAllFaultPoints, 10'000'000);
  ArmStack stack(cfg, 1);
  stack.machine().obs().set_enabled(true);
  (void)stack.Run([](GuestEnv& env) {
    for (int i = 0; i < 40; ++i) {
      env.Store(Va(0x3000 + i * 0x1000), i);
      env.Hvc(kHvcTestCall);
    }
  });
  const FaultInjector& fi = stack.machine().fault();
  MetricsRegistry& metrics = stack.machine().obs().metrics();

  std::map<std::string, uint64_t> from_log;
  for (const InjectionRecord& rec : fi.log()) {
    ++from_log[FaultPointName(rec.point)];
  }
  const MetricCounter* total = metrics.FindCounter("fault.injected_total");
  EXPECT_EQ(total != nullptr ? total->value() : 0, fi.total_injections());
  uint64_t sum = 0;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    FaultPoint point = static_cast<FaultPoint>(p);
    const char* name = FaultPointName(point);
    EXPECT_EQ(fi.count(point), from_log[name]) << name;
    const MetricCounter* c =
        metrics.FindCounter(std::string("fault.injected.") + name);
    EXPECT_EQ(c != nullptr ? c->value() : 0, from_log[name]) << name;
    sum += fi.count(point);
  }
  EXPECT_EQ(sum, fi.total_injections());
}

TEST(CampaignTest, InjectedGuestHypPanicIsConfined) {
  FaultConfig fc = Campaign(3, 1.0, FaultPointBit(FaultPoint::kGuestHypPanic));
  CampaignResult r = RunNestedCampaign(fc);
  EXPECT_FALSE(r.status.ok());
  EXPECT_THAT(r.status.message(), HasSubstr("guest_hyp_panic"));
  EXPECT_GE(r.injections, 1u);
  // The panic unwinds the trap episodes it interrupted; their spans close.
  EXPECT_EQ(r.open_spans, 0);
}

TEST(CampaignTest, InjectedTrapLoopIsCaughtByWatchdog) {
  FaultConfig fc = Campaign(11, 1.0, FaultPointBit(FaultPoint::kTrapLoop),
                            2'000'000);
  CampaignResult r = RunNestedCampaign(fc);
  EXPECT_FALSE(r.status.ok());
  EXPECT_THAT(r.status.message(), HasSubstr("watchdog"));
  EXPECT_EQ(r.open_spans, 0);
}

// --- confinement -------------------------------------------------------------

constexpr uint64_t kVmRam = 8ull << 20;

TEST(ConfinementTest, FaultedVmDiesSiblingRunsWithUnchangedCycles) {
  auto run_sibling = [](HostKvm& l0, Vm* b, int pcpu) {
    uint64_t sum = 0;
    b->vcpu(0).main_sw.main = [&](GuestEnv& env) {
      for (int i = 0; i < 16; ++i) {
        env.Store(Va(0x1000 + i * 8), i);
        sum += env.Load(Va(0x1000 + i * 8));
      }
      env.Hvc(kHvcTestCall);
    };
    Status s = l0.RunVcpu(b->vcpu(0), pcpu);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return sum;
  };

  MachineConfig mc;
  mc.num_cpus = 2;
  mc.features = ArchFeatures::Armv83Nv();

  // Control: VM a exists (same RAM layout) but never runs.
  Machine control(mc);
  HostKvm control_l0(&control, {});
  control_l0.CreateVm({.name = "a", .ram_size = kVmRam});
  Vm* control_b = control_l0.CreateVm({.name = "b", .ram_size = kVmRam});
  uint64_t control_sum = run_sibling(control_l0, control_b, 1);
  uint64_t control_cycles = control.cpu(1).cycles();

  // Faulted machine: VM a dies on pCPU 0, then b runs on pCPU 1.
  Machine machine(mc);
  machine.obs().set_enabled(true);
  HostKvm l0(&machine, {});
  Vm* a = l0.CreateVm({.name = "a", .ram_size = kVmRam});
  Vm* b = l0.CreateVm({.name = "b", .ram_size = kVmRam});
  a->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.Store(Va(0x5000'0000), 1);  // unmapped non-MMIO: guest fault
  };
  Status sa = l0.RunVcpu(a->vcpu(0), 0);
  EXPECT_FALSE(sa.ok());
  EXPECT_THAT(sa.message(), HasSubstr("unmapped_mmio"));
  EXPECT_TRUE(a->dead());
  EXPECT_FALSE(b->dead());
  EXPECT_EQ(l0.LoadedVcpu(0), nullptr) << "pCPU must be reclaimed";

  uint64_t sum = run_sibling(l0, b, 1);
  EXPECT_EQ(sum, control_sum);
  EXPECT_EQ(machine.cpu(1).cycles(), control_cycles)
      << "the sibling VM must be bit-for-bit unaffected by the kill";

  const MetricCounter* kills =
      machine.obs().metrics().FindCounter("fault.vm_kills");
  ASSERT_NE(kills, nullptr);
  EXPECT_EQ(kills->value(), 1u);
  // The kill unwound VM a's data-abort trap episode; its span still closed.
  EXPECT_EQ(machine.obs().tracer().open_spans(), 0);
}

TEST(ConfinementTest, DeadVmRefusesToRunUntilRestarted) {
  MachineConfig mc;
  mc.features = ArchFeatures::Armv83Nv();
  Machine machine(mc);
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "crashy", .ram_size = kVmRam});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.Store(Va(0x5000'0000), 1);
  };
  EXPECT_FALSE(l0.RunVcpu(vm->vcpu(0), 0).ok());
  EXPECT_TRUE(vm->dead());
  EXPECT_EQ(vm->generation(), 0u);

  Status refused = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(refused.code(), ErrorCode::kFailedPrecondition);
  EXPECT_THAT(refused.message(), HasSubstr("crashy"));

  l0.RestartVm(*vm);
  EXPECT_FALSE(vm->dead());
  EXPECT_EQ(vm->generation(), 1u);
  uint64_t value = 0;
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    env.Store(Va(0x1000), 99);
    value = env.Load(Va(0x1000));
  };
  Status ok = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(value, 99u);
}

TEST(ConfinementTest, WatchdogConvertsTrapLivelockIntoVmKill) {
  MachineConfig mc;
  mc.features = ArchFeatures::Armv83Nv();
  mc.fault.watchdog_budget = 1'000'000;  // watchdog works without injection
  Machine machine(mc);
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "livelock", .ram_size = kVmRam});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    for (;;) {
      env.Hvc(kHvcTestCall);  // traps forever
    }
  };
  Status s = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_FALSE(s.ok());
  EXPECT_THAT(s.message(), HasSubstr("watchdog"));
  EXPECT_TRUE(vm->dead());
  // The machine survives: a fresh VM still runs on the same pCPU.
  Vm* other = l0.CreateVm({.name = "after", .ram_size = kVmRam});
  other->vcpu(0).main_sw.main = [](GuestEnv& env) { env.Hvc(kHvcTestCall); };
  EXPECT_TRUE(l0.RunVcpu(other->vcpu(0), 0).ok());
}

TEST(ConfinementTest, WatchdogCatchesNonTrappingSpinLivelock) {
  // A guest can livelock without ever trapping -- e.g. spinning on a flag
  // that a dropped interrupt will never set. The trap-entry check can't see
  // that; the guest-context compute/memory check must.
  MachineConfig mc;
  mc.features = ArchFeatures::Armv83Nv();
  mc.fault.watchdog_budget = 1'000'000;
  Machine machine(mc);
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "spinlock", .ram_size = kVmRam});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    for (;;) {
      if (env.Load(Va(0x2000)) == 1) {  // nobody will ever store this
        break;
      }
      env.Compute(8);
    }
  };
  Status s = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_FALSE(s.ok());
  EXPECT_THAT(s.message(), HasSubstr("watchdog"));
  EXPECT_THAT(s.message(), HasSubstr("spin"));
  EXPECT_TRUE(vm->dead());
  Vm* other = l0.CreateVm({.name = "after-spin", .ram_size = kVmRam});
  other->vcpu(0).main_sw.main = [](GuestEnv& env) { env.Hvc(kHvcTestCall); };
  EXPECT_TRUE(l0.RunVcpu(other->vcpu(0), 0).ok());
}

TEST(ConfinementTest, TornVirtioRingKillsOnlyTheVm) {
  constexpr uint64_t kRingIpa = 0x10000;
  constexpr uint64_t kDoorbellIpa = 0x4000'0000;
  MachineConfig mc;
  mc.features = ArchFeatures::Armv83Nv();
  mc.fault = Campaign(21, 1.0, FaultPointBit(FaultPoint::kVirtioRingCorruption));
  Machine machine(mc);
  HostKvm kvm(&machine, {});
  Vm* vm = kvm.CreateVm({.name = "vio", .ram_size = kVmRam});
  VirtioBackend backend(&machine.mem(), Pa(vm->ram_base().value + kRingIpa),
                        /*per_buffer_cycles=*/5000);
  backend.SetFaultInjector(&machine.fault());
  vm->AddMmioRange(Ipa(kDoorbellIpa), kPageSize, &backend);
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    VirtioDriver driver{Va(kRingIpa), Va(kDoorbellIpa)};
    driver.Init(env);
    driver.SendBuffer(env, 0x5000, 1500);
    driver.ReapUsed(env);  // sees the torn used.idx: the driver BUG()s
  };
  Status s = kvm.RunVcpu(vm->vcpu(0), 0);
  EXPECT_FALSE(s.ok());
  EXPECT_THAT(s.message(), HasSubstr("virtio_ring"));
  EXPECT_TRUE(vm->dead());
  EXPECT_EQ(machine.fault().count(FaultPoint::kVirtioRingCorruption), 1u);
}

// --- restart-from-checkpoint -------------------------------------------------

TEST(ConfinementTest, RestartRestoresFromCheckpointExactly) {
  MachineConfig mc;
  mc.features = ArchFeatures::Armv83Nv();
  Machine machine(mc);
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "phoenix", .ram_size = kVmRam});

  // Phase A: write recognizable state, then checkpoint it.
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    for (uint64_t i = 0; i < 8; ++i) {
      env.Store(Va(0x1000 + 8 * i), 0xA0 + i);
    }
  };
  ASSERT_TRUE(l0.RunVcpu(vm->vcpu(0), 0).ok());
  l0.CheckpointVm(*vm);
  ASSERT_TRUE(l0.HasCheckpoint(*vm));

  // Phase B: scribble over phase A, dirty a brand-new page, then die on an
  // out-of-RAM access.
  vm->vcpu(0).main_sw = {};
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    for (uint64_t i = 0; i < 8; ++i) {
      env.Store(Va(0x1000 + 8 * i), 0xDEAD);
    }
    env.Store(Va(0x9000), 0xBEEF);
    env.Store(Va(0x5000'0000), 1);
  };
  EXPECT_FALSE(l0.RunVcpu(vm->vcpu(0), 0).ok());
  EXPECT_TRUE(vm->dead());

  // Restart restores the checkpoint: phase A is back byte-for-byte, and the
  // page first touched after the checkpoint is back to implicit zero.
  l0.RestartVm(*vm);
  EXPECT_FALSE(vm->dead());
  std::vector<uint64_t> vals(8);
  uint64_t fresh = 1;
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    for (uint64_t i = 0; i < 8; ++i) {
      vals[i] = env.Load(Va(0x1000 + 8 * i));
    }
    fresh = env.Load(Va(0x9000));
  };
  ASSERT_TRUE(l0.RunVcpu(vm->vcpu(0), 0).ok());
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(vals[i], 0xA0 + i) << "slot " << i;
  }
  EXPECT_EQ(fresh, 0u);
}

TEST(ConfinementTest, CheckpointKillRestoreIsInvisibleToSibling) {
  // Two machines run sibling VM b identically; on one of them, VM a also
  // checkpoints, crashes and restores in between. b must be byte-identical.
  auto run_b = [](HostKvm& l0, Vm* b) {
    uint64_t sum = 0;
    b->vcpu(0).main_sw.main = [&](GuestEnv& env) {
      for (int i = 0; i < 16; ++i) {
        env.Store(Va(0x1000 + i * 8), i * 3);
        sum += env.Load(Va(0x1000 + i * 8));
      }
      env.Hvc(kHvcTestCall);
    };
    Status s = l0.RunVcpu(b->vcpu(0), 1);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return sum;
  };
  auto phase_a = [](Vm* a) {
    a->vcpu(0).main_sw.main = [](GuestEnv& env) {
      for (uint64_t i = 0; i < 4; ++i) {
        env.Store(Va(0x2000 + 8 * i), 0x50 + i);
      }
    };
  };

  MachineConfig mc;
  mc.num_cpus = 2;
  mc.features = ArchFeatures::Armv83Nv();

  Machine control(mc);
  HostKvm control_l0(&control, {});
  Vm* ca = control_l0.CreateVm({.name = "a", .ram_size = kVmRam});
  Vm* cb = control_l0.CreateVm({.name = "b", .ram_size = kVmRam});
  phase_a(ca);
  ASSERT_TRUE(control_l0.RunVcpu(ca->vcpu(0), 0).ok());
  uint64_t control_sum = run_b(control_l0, cb);

  Machine machine(mc);
  HostKvm l0(&machine, {});
  Vm* a = l0.CreateVm({.name = "a", .ram_size = kVmRam});
  Vm* b = l0.CreateVm({.name = "b", .ram_size = kVmRam});
  phase_a(a);
  ASSERT_TRUE(l0.RunVcpu(a->vcpu(0), 0).ok());
  l0.CheckpointVm(*a);
  a->vcpu(0).main_sw = {};
  a->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.Store(Va(0x5000'0000), 1);
  };
  EXPECT_FALSE(l0.RunVcpu(a->vcpu(0), 0).ok());
  l0.RestartVm(*a);
  uint64_t sum = run_b(l0, b);

  EXPECT_EQ(sum, control_sum);
  EXPECT_EQ(machine.cpu(1).ArchStateDigest(),
            control.cpu(1).ArchStateDigest());
  EXPECT_EQ(machine.cpu(1).cycles(), control.cpu(1).cycles());
}

}  // namespace
}  // namespace neve
