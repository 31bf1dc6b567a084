#include "perfbench/src/probes.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "src/arch/hcr.h"
#include "src/arch/vncr.h"
#include "src/base/lock_order.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/harness.h"
#include "src/sim/batch/batch.h"
#include "src/workload/appbench.h"
#include "src/workload/stacks.h"

namespace perfbench {
namespace {

using neve::ArmStack;
using neve::GuestEnv;
using neve::StackConfig;
using neve::Va;

constexpr int kReps = 5;  // repeats of a short probe; the median is reported

struct Totals {
  uint64_t spans = 0;
  uint64_t items = 0;
  int64_t total_ns = 0;
};

// Per-name totals over spans recorded since index `from`.
std::map<std::string, Totals> SpanTotals(const SpanLog& log, size_t from) {
  std::map<std::string, Totals> out;
  for (size_t i = from; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    Totals& t = out[s.name];
    ++t.spans;
    t.items += s.items;
    t.total_ns += s.end_ns - s.start_ns;
  }
  return out;
}

// Mean host time per item of the spans named `name`, in units of `unit_ns`.
double PerItem(const std::map<std::string, Totals>& totals,
               const std::string& name, double unit_ns) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.items == 0) {
    return 0;
  }
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.items) / unit_ns;
}

class Probes {
 public:
  Probes(const Context& ctx, SpanLog& log, Gates& gates,
         std::vector<Metric>* out)
      : ctx_(ctx), log_(log), gates_(gates), out_(out) {}

  void Run() {
    StackBuild();
    PaperCells();
    SteadyState();
    SysRegBurst();
    Memory();
    Observed();
    Smp();
    Batch();
    Fuzz();
    Snap();
  }

 private:
  void Emit(std::string name, const char* unit, double value) {
    out_->push_back(Metric{std::move(name), unit, value});
  }

  // Runs a workload's pass 0 inside a probe span and reports lock-order
  // acquisitions per op. Returns the span index the pass began at.
  size_t WorkloadPass(const std::string& name, Workload& w) {
    ScopedSpan span(log_, "probe." + name);
    w.Setup(log_, gates_);
    size_t from = log_.spans().size();
    LoopStats stats;
    uint64_t before = neve::lock_order::Acquisitions();
    w.RunPass(0, log_, gates_, stats);
    Emit("base.lock_acq_per_op." + name, "count",
         static_cast<double>(neve::lock_order::Acquisitions() - before) /
             std::max(stats.TotalWork(), 1.0));
    return from;
  }

  // workload.stack_build_ms.<cfg>, hyp.nested_boot_ms.<nested cfg>
  void StackBuild() {
    for (const ArmConfig& ac : ArmConfigs()) {
      std::vector<double> build_ms, boot_ms;
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span(log_, std::string("probe.stack/") + ac.name);
        std::optional<ArmStack> stack;
        build_ms.push_back(
            TimeNs(log_, std::string("workload.ArmStack/") + ac.name, 1,
                   [&] { stack.emplace(ac.cfg, 1); }) /
            1e6);
        if (ac.cfg.nested) {
          neve::Status st;
          boot_ms.push_back(
              TimeNs(log_, std::string("hyp.nested_boot/") + ac.name, 1,
                     [&] { st = stack->Run([](GuestEnv&) {}); }) /
              1e6);
          gates_.Op(st.ok(), std::string("nested boot on ") + ac.name);
        }
      }
      Emit(std::string("workload.stack_build_ms.") + ac.name, "ms",
           Median(build_ms));
      if (ac.cfg.nested) {
        Emit(std::string("hyp.nested_boot_ms.") + ac.name, "ms",
             Median(boot_ms));
      }
    }
  }

  // workload.micro_ms.*, x86.micro_ms.*, workload.app_ms.*: one paper_tables
  // pass, one span per cell.
  void PaperCells() {
    std::unique_ptr<Workload> w = MakeWorkload("paper_tables", ctx_);
    std::map<std::string, Totals> t =
        SpanTotals(log_, WorkloadPass("paper_tables", *w));
    for (neve::MicrobenchKind kind :
         {neve::MicrobenchKind::kHypercall, neve::MicrobenchKind::kDeviceIo,
          neve::MicrobenchKind::kVirtualIpi,
          neve::MicrobenchKind::kVirtualEoi}) {
      std::string k = KindName(kind);
      for (const ArmConfig& ac : ArmConfigs()) {
        Emit("workload.micro_ms." + k + "." + ac.name, "ms",
             PerItem(t, "workload.micro/" + k + "/" + ac.name, 1e6));
      }
      for (const char* x86 : {"vm", "nested"}) {
        Emit("x86.micro_ms." + k + "." + x86, "ms",
             PerItem(t, "x86.micro/" + k + "/" + x86, 1e6));
      }
    }
    for (const char* stack : {"vm", "v83", "v83_vhe", "neve", "neve_vhe",
                              "x86_vm", "x86_nested"}) {
      Emit(std::string("workload.app_ms.") + stack, "ms",
           PerItem(t, std::string("workload.app/") + stack, 1e6));
    }
  }

  // hyp.hvc_us.<cfg>, hyp.trap_ns.<cfg>, hyp.mmio_us.<cfg>: steady-state
  // GuestEnv::Hvc and device Load/Store loops after a warm-up.
  void SteadyState() {
    for (const ArmConfig& ac : ArmConfigs()) {
      const int calls = ac.cfg.nested ? 200 : 4000;
      ArmStack stack(ac.cfg, 1);
      int64_t hvc_ns = 0, mmio_ns = 0;
      uint64_t traps = 0;
      neve::Status st = stack.Run([&](GuestEnv& env) {
        for (int i = 0; i < 8; ++i) {
          env.Hvc(neve::kHvcTestCall);
          env.Store(Va(neve::kBenchDeviceBase + 0x20), 1);
        }
        uint64_t before = stack.TotalTrapsToHost();
        hvc_ns = TimeNs(log_, std::string("hyp.GuestEnv::Hvc/") + ac.name,
                        calls, [&] {
                          for (int i = 0; i < calls; ++i) {
                            env.Hvc(neve::kHvcTestCall);
                          }
                        });
        traps = stack.TotalTrapsToHost() - before;
        mmio_ns = TimeNs(log_, std::string("hyp.mmio/") + ac.name, 2 * calls,
                         [&] {
                           for (int i = 0; i < calls; ++i) {
                             env.Store(Va(neve::kBenchDeviceBase + 0x20),
                                       static_cast<uint64_t>(i));
                             (void)env.Load(Va(neve::kBenchDeviceBase + 0x10));
                           }
                         });
      });
      double golden = GoldenTraps(ctx_, "Hypercall", ac.golden_name);
      gates_.Op(st.ok() && static_cast<double>(traps) ==
                               golden / kGoldenIterations * calls,
                std::string("steady hypercalls on ") + ac.name +
                    ": traps differ from golden");
      Emit(std::string("hyp.hvc_us.") + ac.name, "us",
           static_cast<double>(hvc_ns) / calls / 1e3);
      Emit(std::string("hyp.trap_ns.") + ac.name, "ns",
           static_cast<double>(hvc_ns) /
               static_cast<double>(std::max<uint64_t>(traps, 1)));
      Emit(std::string("hyp.mmio_us.") + ac.name, "us",
           static_cast<double>(mmio_ns) / (2.0 * calls) / 1e3);
    }
  }

  // cpu.sysreg_ns.<cached|uncached>: a burst of EL2 sysreg accesses at
  // virtual EL2 under NEVE, none of which trap (the world switch's pattern).
  void SysRegBurst() {
    constexpr int kBursts = 50000;
    for (bool cached : {true, false}) {
      neve::PhysMem mem(16ull << 20);
      neve::Cpu cpu(0, neve::ArchFeatures::Armv84Neve(),
                    neve::CostModel::Default(), &mem);
      cpu.resolution_cache().set_enabled(cached);
      cpu.PokeReg(neve::RegId::kVNCR_EL2,
                  neve::VncrEl2::Make(8ull << 20, true).bits());
      cpu.PokeReg(neve::RegId::kHCR_EL2,
                  neve::Hcr::Make({neve::HcrBits::kVm, neve::HcrBits::kImo,
                                   neve::HcrBits::kNv, neve::HcrBits::kNv1}));
      uint64_t sink = 0;
      int64_t ns = 0;
      cpu.RunLowerEl(neve::El::kEl1, [&] {
        ns = TimeNs(log_,
                    std::string("cpu.Cpu::SysReg/") +
                        (cached ? "cached" : "uncached"),
                    4 * kBursts, [&] {
                      for (int i = 0; i < kBursts; ++i) {
                        sink += cpu.SysRegRead(neve::SysReg::kHCR_EL2);
                        sink += cpu.SysRegRead(neve::SysReg::kVTTBR_EL2);
                        sink += cpu.SysRegRead(neve::SysReg::kTPIDR_EL2);
                        cpu.SysRegWrite(neve::SysReg::kHSTR_EL2, 1);
                      }
                    });
      });
      gates_.Op(cpu.trace().traps_to_el2() == 0 && sink != 1,
                "virtual-EL2 sysreg burst trapped");
      Emit(std::string("cpu.sysreg_ns.") + (cached ? "cached" : "uncached"),
           "ns", static_cast<double>(ns) / (4.0 * kBursts));
    }
  }

  // mem.load_ns.<vm|neve>: hot-page loads. mem.first_touch_us.<cfg>: the
  // first store to each of 64 fresh pages (a shadow Stage-2 fill when
  // nested).
  void Memory() {
    constexpr int kLoads = 100000;
    constexpr int kPages = 64;
    for (const ArmConfig& ac : ArmConfigs()) {
      bool hot = std::string(ac.name) == "vm" || std::string(ac.name) == "neve";
      ArmStack stack(ac.cfg, 1);
      int64_t load_ns = 0, touch_ns = 0;
      uint64_t sum = 0;
      neve::Status st = stack.Run([&](GuestEnv& env) {
        touch_ns = TimeNs(log_, std::string("mem.first_touch/") + ac.name,
                          kPages, [&] {
                            for (int i = 0; i < kPages; ++i) {
                              env.Store(Va(0x100000 + i * 0x1000),
                                        static_cast<uint64_t>(i));
                            }
                          });
        if (hot) {
          (void)env.Load(Va(0x2000));
          load_ns = TimeNs(log_, std::string("mem.Load/") + ac.name, kLoads,
                           [&] {
                             for (int i = 0; i < kLoads; ++i) {
                               sum += env.Load(Va(0x100000 + (i % 8) * 8));
                             }
                           });
        }
      });
      gates_.Op(st.ok() && (!hot || sum == 0),
                std::string("memory probe on ") + ac.name);
      Emit(std::string("mem.first_touch_us.") + ac.name, "us",
           static_cast<double>(touch_ns) / kPages / 1e3);
      if (hot) {
        Emit(std::string("mem.load_ns.") + ac.name, "ns",
             static_cast<double>(load_ns) / kLoads);
      }
    }
  }

  // obs.hvc_us_observed.<v83|neve>, obs.overhead_ratio.<v83|neve>: the
  // hypercall loop with the observability layer recording, against off.
  void Observed() {
    constexpr int kCalls = 100;
    for (const ArmConfig& ac : ArmConfigs()) {
      std::string name = ac.name;
      if (name != "v83" && name != "neve") {
        continue;
      }
      double us[2] = {0, 0};
      for (int observed = 0; observed < 2; ++observed) {
        ArmStack stack(ac.cfg, 1);
        stack.machine().obs().set_enabled(observed != 0);
        neve::Status st = stack.Run([&](GuestEnv& env) {
          env.Hvc(neve::kHvcTestCall);
          us[observed] =
              TimeNs(log_,
                     std::string(observed ? "obs.observed_hvc/"
                                          : "obs.unobserved_hvc/") +
                         name,
                     kCalls,
                     [&] {
                       for (int i = 0; i < kCalls; ++i) {
                         env.Hvc(neve::kHvcTestCall);
                       }
                     }) /
              1e3 / kCalls;
        });
        gates_.Op(st.ok(), "observed hypercalls on " + name);
      }
      Emit("obs.hvc_us_observed." + name, "us", us[1]);
      Emit("obs.overhead_ratio." + name, "ratio", us[1] / us[0]);
    }
  }

  // sim.smp_round_us.<cfg>.lanes1|lanesN, sim.smp_speedup.<cfg>: RunSmp of
  // the same rendezvous at one lane and at N lanes, which must agree.
  void Smp() {
    std::unique_ptr<Workload> w = MakeWorkload("smp_ipi", ctx_);
    WorkloadPass("smp_ipi", *w);
    const int lanes = static_cast<int>(ctx_.threads);
    for (const ArmConfig& ac : ArmConfigs()) {
      std::string name = ac.name;
      if (name != "v83_vhe" && name != "neve_vhe") {
        continue;
      }
      ScopedSpan span(log_, "probe.smp/" + name);
      SmpJob one = RunSmpJob(ac.cfg, true, kSmpRounds, 1, log_);
      SmpJob many = RunSmpJob(ac.cfg, true, kSmpRounds, lanes, log_);
      gates_.Op(one.ok && many.ok && one.traps == many.traps,
                "rendezvous on " + name + " differs between 1 and N lanes");
      double us1 = static_cast<double>(one.run_ns) / kSmpRounds / 1e3;
      double usn = static_cast<double>(many.run_ns) / kSmpRounds / 1e3;
      Emit("sim.smp_round_us." + name + ".lanes1", "us", us1);
      Emit("sim.smp_round_us." + name + ".lanesN", "us", usn);
      Emit("sim.smp_speedup." + name, "ratio", us1 / usn);
    }
  }

  // batch.guest_ops_per_s.<on|off>: BatchEngine::Run on a trap-free burst
  // at L2 of a nested NEVE stack, batched and interpreted.
  void Batch() {
    constexpr int kRuns = 2000;
    neve::batch::Program burst;
    for (int i = 0; i < 8; ++i) {
      using neve::batch::OpKind;
      burst.ops.push_back({.kind = OpKind::kSysWrite,
                           .enc = neve::SysReg::kTPIDR_EL1,
                           .value = static_cast<uint64_t>(i)});
      burst.ops.push_back(
          {.kind = OpKind::kSysRead, .enc = neve::SysReg::kTPIDR_EL1});
      burst.ops.push_back({.kind = OpKind::kSysWrite,
                           .enc = neve::SysReg::kCONTEXTIDR_EL1,
                           .value = static_cast<uint64_t>(i) * 3});
      burst.ops.push_back({.kind = OpKind::kCurrentEl});
      burst.ops.push_back({.kind = OpKind::kCompute, .value = 16});
      burst.ops.push_back({.kind = OpKind::kBarrier});
    }
    burst.Finalize();
    uint64_t digest[2] = {0, 0};
    for (int on = 0; on < 2; ++on) {
      StackConfig cfg = StackConfig::NestedNeve(false);
      cfg.batch = on != 0;
      ArmStack stack(cfg, 1);
      int64_t ns = 0;
      neve::Status st = stack.Run([&](GuestEnv& env) {
        neve::batch::BatchEngine& engine = stack.machine().batch_engine();
        ns = TimeNs(log_,
                    std::string("batch.BatchEngine::Run/") + (on ? "on" : "off"),
                    kRuns * burst.ops.size(), [&] {
                      for (int i = 0; i < kRuns; ++i) {
                        digest[on] = engine.Run(env.cpu(), burst);
                      }
                    });
      });
      gates_.Op(st.ok(), "batch burst failed");
      Emit(std::string("batch.guest_ops_per_s.") + (on ? "on" : "off"), "1/s",
           static_cast<double>(kRuns * burst.ops.size()) /
               (static_cast<double>(ns) / 1e9));
    }
    gates_.Op(digest[0] == digest[1], "batched burst differs from interpreted");
  }

  // fuzz.runcase_ms.*, fuzz.variant_ms.*: RunCase and RunProgramVariant over
  // the tests/corpus seeds. fuzz.execs_per_case, .corpus_size,
  // .coverage_bits, .execs_per_s.threads1, .thread_scaling: one campaign at
  // 1 thread and at N threads, which must agree.
  void Fuzz() {
    std::vector<std::vector<uint8_t>> corpus;
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             ctx_.root + "/tests/corpus", ec)) {
      if (e.path().extension() == ".seed") {
        paths.push_back(e.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& p : paths) {
      if (std::optional<std::vector<uint8_t>> bytes =
              neve::fuzz::LoadSeedFile(p)) {
        corpus.push_back(std::move(*bytes));
      }
    }
    gates_.Op(!corpus.empty(), "no seeds in tests/corpus");

    constexpr int kPasses = 2;
    std::vector<double> case_ms;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const std::vector<uint8_t>& bytes : corpus) {
        neve::fuzz::CaseResult r;
        case_ms.push_back(TimeNs(log_, "fuzz.RunCase", 1, [&] {
                            r = neve::fuzz::RunCase(bytes);
                          }) /
                          1e6);
        gates_.Op(r.ok, "corpus case failed: " + r.failure);
      }
    }
    Emit("fuzz.runcase_ms.p50", "ms", Median(case_ms));
    Emit("fuzz.runcase_ms.p95", "ms", Percentile(case_ms, 95));

    struct Variant {
      const char* name;
      bool cache;
      bool snap;
      bool batch;
    };
    const Variant kVariants[] = {{"cache_on", true, false, false},
                                 {"cache_off", false, false, false},
                                 {"snap", true, true, false},
                                 {"batch", true, false, true}};
    for (bool neve_arch : {false, true}) {
      std::string arch = neve_arch ? "neve" : "v83";
      std::map<std::string, std::pair<int64_t, uint64_t>> time;  // ns, calls
      for (const std::vector<uint8_t>& bytes : corpus) {
        neve::fuzz::Program program = neve::fuzz::DecodeProgram(bytes);
        if (program.cfg.fault) {
          continue;  // a fault case runs one architecture only
        }
        uint64_t reference = 0;
        for (const Variant& v : kVariants) {
          if (v.snap && !program.cfg.snap_restore) {
            continue;
          }
          neve::fuzz::VariantSpec spec;
          spec.neve = neve_arch;
          spec.cache_enabled = v.cache;
          spec.snap_restore = v.snap;
          spec.batch = v.batch;
          neve::fuzz::RunResult r;
          std::string span = "fuzz.RunProgramVariant/" + arch + "/" + v.name;
          int64_t ns = TimeNs(log_, span, 1, [&] {
            r = neve::fuzz::RunProgramVariant(program, spec);
          });
          time[v.name].first += ns;
          time[v.name].second += 1;
          if (reference == 0) {
            reference = r.full_digest;
          }
          // Every variant is a simulator fast path or split of the same
          // run: the full digest must not move.
          gates_.Op(r.full_digest == reference,
                    span + ": digest differs from the cache-on run");
        }
      }
      for (const Variant& v : kVariants) {
        const auto& [ns, calls] = time[v.name];
        Emit("fuzz.variant_ms." + arch + "." + v.name, "ms",
             calls == 0 ? 0
                        : static_cast<double>(ns) / 1e6 /
                              static_cast<double>(calls));
      }
    }

    constexpr uint64_t kCases = 4;
    struct Outcome {
      uint64_t execs, corpus, bits;
      double seconds;
      int failures;
    };
    auto campaign = [&](unsigned threads) {
      neve::fuzz::FuzzOptions opts;
      opts.seed = SubSeed(ctx_.seed, 0xF022);
      opts.runs = kCases;
      opts.threads = threads;
      neve::fuzz::Fuzzer fuzzer(opts);
      std::ostringstream sink;
      int failures = 0;
      int64_t ns = TimeNs(log_,
                          "fuzz.Fuzzer::Run/threads" + std::to_string(threads),
                          kCases, [&] { failures = fuzzer.Run(sink); });
      return Outcome{fuzzer.execs(), fuzzer.corpus_size(),
                     fuzzer.coverage_bits(), static_cast<double>(ns) / 1e9,
                     failures};
    };
    Outcome one = campaign(1);
    uint64_t before = neve::lock_order::Acquisitions();
    Outcome many = campaign(ctx_.threads);
    Emit("base.lock_acq_per_op.fuzz_campaign", "count",
         static_cast<double>(neve::lock_order::Acquisitions() - before) /
             static_cast<double>(std::max<uint64_t>(many.execs, 1)));
    gates_.Op(one.failures == 0 && many.failures == 0 &&
                  one.execs == many.execs && one.corpus == many.corpus &&
                  one.bits == many.bits,
              "fuzz campaign differs between 1 and N threads, or failed");
    Emit("fuzz.execs_per_case", "count",
         static_cast<double>(one.execs) / kCases);
    Emit("fuzz.corpus_size", "count", static_cast<double>(one.corpus));
    Emit("fuzz.coverage_bits", "count", static_cast<double>(one.bits));
    Emit("fuzz.execs_per_s.threads1", "1/s",
         static_cast<double>(one.execs) / one.seconds);
    Emit("fuzz.thread_scaling", "ratio", one.seconds / many.seconds);
  }

  // snap.*: one migrate_chaos pass (capture/encode/decode/apply from its
  // round trips, protocol counts from its migrations), and
  // MigrationEngine::Pulse driven directly on a fault-free migration.
  void Snap() {
    std::unique_ptr<Workload> w = MakeWorkload("migrate_chaos", ctx_);
    std::map<std::string, Totals> t =
        SpanTotals(log_, WorkloadPass("migrate_chaos", *w));
    for (const char* op : {"Capture", "Encode", "Decode", "Apply"}) {
      std::string lower = op;
      std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
      Emit("snap." + lower + "_us", "us",
           PerItem(t, std::string("snap.Serializer::") + op, 1e3));
    }
    for (const Metric& m : w->Counters()) {
      out_->push_back(m);
    }

    neve::snap::MigrateConfig mc = ChaosMigrateConfig(0);
    neve::snap::MigrationEngine engine(mc);
    neve::snap::SnapRunner source(MigrateSpec(StackConfig::NestedNeve(false), 32));
    neve::snap::SnapHooks hooks;
    size_t from = log_.spans().size();
    hooks.on_step = [&](uint64_t step, const neve::snap::SnapTargets& targets) {
      if (step % mc.pulse_interval_steps != 0) {
        return false;
      }
      bool committed = false;
      TimeNs(log_, "snap.MigrationEngine::Pulse", 1,
             [&] { committed = engine.Pulse(step, targets); });
      return committed;
    };
    neve::Status st = source.Run(hooks);
    gates_.Op(st.ok() && engine.stats().committed,
              "fault-free migration did not commit");
    Emit("snap.pulse_us", "us",
         PerItem(SpanTotals(log_, from), "snap.MigrationEngine::Pulse", 1e3));
  }

  const Context& ctx_;
  SpanLog& log_;
  Gates& gates_;
  std::vector<Metric>* out_;
};

}  // namespace

void RunProbes(const Context& ctx, SpanLog& log, Gates& gates,
               std::vector<Metric>* out) {
  Probes(ctx, log, gates, out).Run();
}

}  // namespace perfbench
