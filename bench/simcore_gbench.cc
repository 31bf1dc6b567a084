// google-benchmark microbenchmarks of the *simulator itself*: how fast the
// machine model executes, so users know what workload sizes are practical.
// (The paper's motivation for paravirtualization over cycle-accurate
// simulators -- section 3 -- is simulator slowness; ours runs a full nested
// hypercall, >100 traps deep, in microseconds of host time.)

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/arch/vncr.h"
#include "src/obs/attr.h"
#include "src/sim/batch/batch.h"
#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

void BM_SysRegOp(benchmark::State& state) {
  PhysMem mem(16ull << 20);
  Cpu cpu(0, ArchFeatures::Armv83Nv(), CostModel::Default(), &mem);
  for (auto _ : state) {
    cpu.SysRegWrite(SysReg::kVBAR_EL2, 1);
    benchmark::DoNotOptimize(cpu.SysRegRead(SysReg::kVBAR_EL2));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SysRegOp);

// The steady-state call pattern of a guest hypervisor's world switch: a
// burst of EL2 sysreg accesses at virtual EL2 under NEVE, all resolving
// without trapping (deferred page + cached copies). This is the resolution
// pipeline's hottest path; the cached/uncached pair isolates the fast-path
// cache's host-side speedup (the uncached variant re-walks the full
// E2H/NV/NEVE decision tree on every access).
void RunVel2SysRegBurst(benchmark::State& state, bool cache_enabled,
                        CycleAttribution* attr = nullptr) {
  PhysMem mem(16ull << 20);
  Cpu cpu(0, ArchFeatures::Armv84Neve(), CostModel::Default(), &mem);
  if (attr != nullptr) {
    attr->AttachCpu(0);
    cpu.SetAttribution(attr);
  }
  cpu.resolution_cache().set_enabled(cache_enabled);
  cpu.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(8ull << 20, true).bits());
  cpu.PokeReg(RegId::kHCR_EL2, Hcr::Make({HcrBits::kVm, HcrBits::kImo,
                                          HcrBits::kNv, HcrBits::kNv1}));
  cpu.RunLowerEl(El::kEl1, [&] {
    for (auto _ : state) {
      benchmark::DoNotOptimize(cpu.SysRegRead(SysReg::kHCR_EL2));
      benchmark::DoNotOptimize(cpu.SysRegRead(SysReg::kVTTBR_EL2));
      benchmark::DoNotOptimize(cpu.SysRegRead(SysReg::kTPIDR_EL2));
      cpu.SysRegWrite(SysReg::kHSTR_EL2, 1);
    }
  });
  state.SetItemsProcessed(state.iterations() * 4);
}

void BM_Vel2SysRegBurstCached(benchmark::State& state) {
  RunVel2SysRegBurst(state, /*cache_enabled=*/true);
}
BENCHMARK(BM_Vel2SysRegBurstCached);

void BM_Vel2SysRegBurstUncached(benchmark::State& state) {
  RunVel2SysRegBurst(state, /*cache_enabled=*/false);
}
BENCHMARK(BM_Vel2SysRegBurstUncached);

void BM_Vel2SysRegBurstAttr(benchmark::State& state) {
  // The same burst with cycle attribution attached: the gap to
  // BM_Vel2SysRegBurstCached is the always-on accounting overhead (one
  // pointer-add per Charge). attr_test's overhead guard holds it within 3%.
  CycleAttribution attr;
  RunVel2SysRegBurst(state, /*cache_enabled=*/true, &attr);
}
BENCHMARK(BM_Vel2SysRegBurstAttr);

void BM_GuestMemoryAccess(benchmark::State& state) {
  ArmStack stack(StackConfig::Vm(), 1);
  stack.Run([&](GuestEnv& env) {
    (void)env.Load(Va(0x2000));  // warm the TLB
    for (auto _ : state) {
      benchmark::DoNotOptimize(env.Load(Va(0x2000)));
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestMemoryAccess);

void BM_VmHypercall(benchmark::State& state) {
  ArmStack stack(StackConfig::Vm(), 1);
  stack.Run([&](GuestEnv& env) {
    for (auto _ : state) {
      env.Hvc(kHvcTestCall);
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmHypercall);

void BM_NestedHypercallV83(benchmark::State& state) {
  // >120 traps and two full world switches per iteration.
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.Run([&](GuestEnv& env) {
    for (auto _ : state) {
      env.Hvc(kHvcTestCall);
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedHypercallV83);

void BM_NestedHypercallV83Uncached(benchmark::State& state) {
  // The same >120-trap episode with the resolution fast-path cache disabled:
  // every sysreg access in every world switch re-walks the decision tree.
  // The gap to BM_NestedHypercallV83 is the cache's win on a trap-heavy
  // workload.
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.machine().cpu(0).resolution_cache().set_enabled(false);
  stack.Run([&](GuestEnv& env) {
    for (auto _ : state) {
      env.Hvc(kHvcTestCall);
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedHypercallV83Uncached);

void BM_NestedHypercallNeve(benchmark::State& state) {
  ArmStack stack(StackConfig::NestedNeve(false), 1);
  stack.Run([&](GuestEnv& env) {
    for (auto _ : state) {
      env.Hvc(kHvcTestCall);
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedHypercallNeve);

void BM_NestedHypercallV83Observed(benchmark::State& state) {
  // Same workload as BM_NestedHypercallV83 with the observability layer
  // recording: the gap between the two is the cost of metrics + tracing when
  // *enabled* (disabled-cost is covered by the plain variant, whose Machine
  // carries the layer switched off).
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.machine().obs().set_enabled(true);
  stack.Run([&](GuestEnv& env) {
    for (auto _ : state) {
      env.Hvc(kHvcTestCall);
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedHypercallV83Observed);

// --- guest-ops/sec: interpreter vs batched superblock execution --------------
//
// The trap-free burst family: a straight-line run of guest ops none of which
// trap under the stack's configuration, executed through the batch engine's
// program IR -- per-op interpretation with --batch=off, one compiled block
// per Run with --batch=on. items_per_second is guest ops retired per host
// second; the batched/interpreter ratio is the engine's raw speedup, locked
// by tools/perf_ratchet.txt in CI.
batch::Program TrapFreeBurst() {
  batch::Program p;
  for (int i = 0; i < 8; ++i) {
    p.ops.push_back({.kind = batch::OpKind::kSysWrite,
                     .enc = SysReg::kTPIDR_EL1,
                     .value = static_cast<uint64_t>(i)});
    p.ops.push_back({.kind = batch::OpKind::kSysRead,
                     .enc = SysReg::kTPIDR_EL1});
    p.ops.push_back({.kind = batch::OpKind::kSysWrite,
                     .enc = SysReg::kCONTEXTIDR_EL1,
                     .value = static_cast<uint64_t>(i) * 3});
    p.ops.push_back({.kind = batch::OpKind::kSysRead,
                     .enc = SysReg::kTPIDR_EL0});
    p.ops.push_back({.kind = batch::OpKind::kCurrentEl});
    p.ops.push_back({.kind = batch::OpKind::kCompute, .value = 16});
    p.ops.push_back({.kind = batch::OpKind::kBarrier});
    p.ops.push_back({.kind = batch::OpKind::kSysRead,
                     .enc = SysReg::kCONTEXTIDR_EL1});
  }
  p.Finalize();
  return p;
}

void RunGuestOpsBurst(benchmark::State& state, StackConfig cfg, bool batch) {
  cfg.batch = batch;
  ArmStack stack(cfg, 1);
  batch::Program burst = TrapFreeBurst();
  stack.Run([&](GuestEnv& env) {
    batch::BatchEngine& eng = stack.machine().batch_engine();
    for (auto _ : state) {
      benchmark::DoNotOptimize(eng.Run(env.cpu(), burst));
    }
  });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(burst.ops.size()));
}

#define NEVE_GUEST_OPS_BENCH(tag, config)                            \
  void BM_GuestOpsBurst_##tag##_interp(benchmark::State& state) {    \
    RunGuestOpsBurst(state, config, /*batch=*/false);                \
  }                                                                  \
  BENCHMARK(BM_GuestOpsBurst_##tag##_interp);                        \
  void BM_GuestOpsBurst_##tag##_batched(benchmark::State& state) {   \
    RunGuestOpsBurst(state, config, /*batch=*/true);                 \
  }                                                                  \
  BENCHMARK(BM_GuestOpsBurst_##tag##_batched)

NEVE_GUEST_OPS_BENCH(vm, StackConfig::Vm());
NEVE_GUEST_OPS_BENCH(nested_v83, StackConfig::NestedV83(false));
NEVE_GUEST_OPS_BENCH(nested_v83_vhe, StackConfig::NestedV83(true));
NEVE_GUEST_OPS_BENCH(nested_neve, StackConfig::NestedNeve(false));
NEVE_GUEST_OPS_BENCH(nested_neve_vhe, StackConfig::NestedNeve(true));

#undef NEVE_GUEST_OPS_BENCH

void BM_StackConstruction(benchmark::State& state) {
  for (auto _ : state) {
    ArmStack stack(StackConfig::NestedNeve(false), 1);
    benchmark::DoNotOptimize(&stack);
  }
  // One item per stack, so tools/perf_ratchet.txt can floor stacks/s.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackConstruction);

}  // namespace
}  // namespace neve

// BENCHMARK_MAIN plus the repo-wide --json=<path> and --batch=on|off flags;
// --json translates into google-benchmark's JSON reporter so every bench
// shares one output contract, --batch is consumed here (google-benchmark
// would reject it) and applied process-wide before any stack is built.
int main(int argc, char** argv) {
  neve::SetBenchBatchMode(neve::BatchFromArgs(argc, argv));
  std::vector<std::string> args(argv, argv + argc);
  std::vector<char*> argv2;
  std::string out_flag, fmt_flag;
  for (std::string& a : args) {
    constexpr const char kFlag[] = "--json=";
    if (a.compare(0, sizeof(kFlag) - 1, kFlag) == 0) {
      out_flag = "--benchmark_out=" + a.substr(sizeof(kFlag) - 1);
      fmt_flag = "--benchmark_out_format=json";
      continue;
    }
    if (a.compare(0, 8, "--batch=") == 0) {
      continue;  // consumed above
    }
    argv2.push_back(a.data());
  }
  if (!out_flag.empty()) {
    argv2.push_back(out_flag.data());
    argv2.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
