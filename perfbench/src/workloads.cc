#include "perfbench/src/workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <utility>

#include "src/base/digest.h"
#include "src/fuzz/fuzzer.h"
#include "src/obs/json.h"
#include "src/snap/migrate.h"
#include "src/snap/snap_stack.h"
#include "src/workload/appbench.h"
#include "src/workload/stacks.h"

namespace perfbench {

using neve::AppStack;
using neve::ArmStack;
using neve::GuestEnv;
using neve::GuestMain;
using neve::MicrobenchKind;
using neve::StackConfig;
using neve::Status;

void Gates::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
}

void LoopStats::Add(size_t key, double work, double ms) {
  Op& op = ops[key];
  op.work = work;
  op.ms.push_back(ms);
  speed.Sample(3);
}

double LoopStats::TotalWork() const {
  double total = 0;
  for (const auto& [key, op] : ops) {
    total += op.work * static_cast<double>(op.ms.size());
  }
  return total;
}

double LoopStats::OpsPerSecond() const {
  double work = 0, ms = 0;
  for (const auto& [key, op] : ops) {
    work += op.work;
    ms += *std::min_element(op.ms.begin(), op.ms.end());
  }
  return ms == 0 ? 0 : work / (ms * speed.Scale() / 1e3);
}

double LoopStats::MedianOpMs() const {
  std::vector<double> per_op;
  for (const auto& [key, op] : ops) {
    per_op.push_back(*std::min_element(op.ms.begin(), op.ms.end()) *
                     speed.Scale() / op.work);
  }
  return Quartiles(per_op)[1];
}

std::vector<double> LoopStats::AllOpMs() const {
  std::vector<double> out;
  for (const auto& [key, op] : ops) {
    for (double ms : op.ms) {
      out.push_back(ms * speed.Scale() / op.work);
    }
  }
  return out;
}

namespace {

// Co-tenants load the host's CPUs unevenly, and a thread tends to stay on
// one CPU for a whole run. A single-threaded loop therefore runs pass k on
// the k-th CPU the process may use, so each op's fastest repeat comes from
// the least-contended CPU. Restores the thread's affinity when destroyed.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&saved_);
    if (enabled && sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &saved_)) {
          cpus_.push_back(c);
        }
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Pin(int64_t pass) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<size_t>(pass) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

}  // namespace

void Workload::Loop(double seconds, SpanLog& log, Gates& gates,
                    LoopStats& stats) {
  CpuRotation rotation(SingleThreaded());
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  // Whole passes only, so every run measures the same mix of operations.
  // Stop once another pass would end more than half a pass past the
  // deadline.
  int64_t passes = 0;
  int64_t now = t0;
  do {
    rotation.Pin(passes);
    RunPass(static_cast<uint64_t>(passes++), log, gates, stats);
    now = NowNs();
  } while (now + (now - t0) / passes / 2 < deadline);
}

const std::vector<ArmConfig>& ArmConfigs() {
  static const std::vector<ArmConfig> kConfigs = {
      {"vm", "vm", StackConfig::Vm()},
      {"v83", "nested-v83", StackConfig::NestedV83(false)},
      {"v83_vhe", "nested-v83-vhe", StackConfig::NestedV83(true)},
      {"neve", "nested-neve", StackConfig::NestedNeve(false)},
      {"neve_vhe", "nested-neve-vhe", StackConfig::NestedNeve(true)},
  };
  return kConfigs;
}

const char* KindName(MicrobenchKind kind) {
  switch (kind) {
    case MicrobenchKind::kHypercall:
      return "hypercall";
    case MicrobenchKind::kDeviceIo:
      return "device_io";
    case MicrobenchKind::kVirtualIpi:
      return "virtual_ipi";
    case MicrobenchKind::kVirtualEoi:
      return "virtual_eoi";
  }
  return "?";
}

double GoldenTraps(const Context& ctx, const std::string& bench,
                   const std::string& config) {
  static const std::map<std::pair<std::string, std::string>, double> golden =
      [&ctx] {
        std::map<std::pair<std::string, std::string>, double> out;
        std::ifstream in(ctx.root + "/tests/golden/trap_counts.json");
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        std::unique_ptr<neve::JsonValue> doc =
            neve::JsonValue::Parse(text.str(), &error);
        const neve::JsonValue* iters =
            doc != nullptr ? doc->Find("iterations") : nullptr;
        const neve::JsonValue* entries =
            doc != nullptr ? doc->Find("entries") : nullptr;
        if (iters == nullptr || iters->AsU64() != kGoldenIterations ||
            entries == nullptr) {
          return out;  // every gate that needs it then fails
        }
        for (const neve::JsonValue& e : entries->Items()) {
          out[{e.Find("bench")->AsString(), e.Find("config")->AsString()}] =
              e.Find("traps")->AsDouble();
        }
        return out;
      }();
  auto it = golden.find({bench, config});
  return it == golden.end() ? -1 : it->second;
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  return neve::DigestOf(seed, a, b);
}

namespace {

constexpr MicrobenchKind kKinds[] = {
    MicrobenchKind::kHypercall,
    MicrobenchKind::kDeviceIo,
    MicrobenchKind::kVirtualIpi,
    MicrobenchKind::kVirtualEoi,
};

// A seeded permutation of [0, n).
std::vector<size_t> Order(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- paper_tables -----------------------------------------------------------
// Every Table 1/6/7 microbenchmark cell and every Figure 2 cell, at the
// tables' own sizes. Trap-path bound; bypasses fuzz, snap, SMP and obs.

constexpr int kMicroIters = 50;  // bench/table*_micro: kIters

const char* const kAppStackNames[] = {"vm",       "v83",    "v83_vhe",
                                      "neve",     "neve_vhe", "x86_vm",
                                      "x86_nested"};

class PaperTables : public Workload {
 public:
  explicit PaperTables(const Context& ctx) : ctx_(ctx) {
    for (MicrobenchKind kind : kKinds) {
      for (size_t c = 0; c < ArmConfigs().size(); ++c) {
        const ArmConfig& ac = ArmConfigs()[c];
        cells_.push_back(Cell{.type = Cell::kArm,
                              .kind = kind,
                              .config = c,
                              .span = std::string("workload.micro/") +
                                      KindName(kind) + "/" + ac.name,
                              .golden = GoldenTraps(ctx_,
                                                    neve::MicrobenchName(kind),
                                                    ac.golden_name)});
      }
      for (size_t nested = 0; nested < 2; ++nested) {
        cells_.push_back(Cell{.type = Cell::kX86,
                              .kind = kind,
                              .config = nested,
                              .span = std::string("x86.micro/") +
                                      KindName(kind) +
                                      (nested ? "/nested" : "/vm")});
      }
    }
    for (size_t p = 0; p < neve::AppProfiles().size(); ++p) {
      for (size_t s = 0; s < std::size(kAppStackNames); ++s) {
        cells_.push_back(Cell{.type = Cell::kApp,
                              .config = s,
                              .profile = p,
                              .span = std::string("workload.app/") +
                                      kAppStackNames[s]});
      }
    }
    reference_.resize(cells_.size());
  }

  void Setup(SpanLog& log, Gates& gates) override {
    LoopStats ignored;
    for (size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      if (cell.kind == MicrobenchKind::kHypercall && cell.type != Cell::kApp) {
        RunCell(i, log, gates, ignored);
      }
    }
  }

  bool SingleThreaded() const override { return true; }

  void RunPass(uint64_t pass, SpanLog& log, Gates& gates,
               LoopStats& stats) override {
    for (size_t i : Order(cells_.size(), SubSeed(ctx_.seed, pass))) {
      RunCell(i, log, gates, stats);
    }
  }

 private:
  struct Cell {
    enum Type { kArm, kX86, kApp } type = kArm;
    MicrobenchKind kind = MicrobenchKind::kHypercall;
    size_t config = 0;  // ArmConfigs() index, x86 nested flag, or AppStack
    size_t profile = 0;
    std::string span;
    double golden = -1;  // ARM cells: golden traps per kGoldenIterations ops
  };

  void RunCell(size_t i, SpanLog& log, Gates& gates, LoopStats& stats) {
    const Cell& cell = cells_[i];
    std::pair<double, double> result;
    int64_t ns = TimeNs(log, cell.span, 1, [&] {
      switch (cell.type) {
        case Cell::kArm: {
          neve::MicrobenchResult r = neve::RunArmMicrobench(
              cell.kind, ArmConfigs()[cell.config].cfg, kMicroIters);
          result = {r.cycles_per_op, r.traps_per_op};
          break;
        }
        case Cell::kX86: {
          neve::MicrobenchResult r = neve::RunX86Microbench(
              cell.kind, cell.config != 0, kMicroIters);
          result = {r.cycles_per_op, r.traps_per_op};
          break;
        }
        case Cell::kApp: {
          neve::AppBenchResult r =
              neve::RunAppBench(neve::AppProfiles()[cell.profile],
                                static_cast<AppStack>(cell.config));
          result = {r.overhead, r.cycles_per_request};
          break;
        }
      }
    });
    stats.Add(i, 1, Ms(ns));

    bool ok = std::isfinite(result.first) && result.first > 0;
    if (cell.type == Cell::kArm) {
      ok = ok && cell.golden >= 0 &&
           std::fabs(result.second * kGoldenIterations - cell.golden) < 1e-6;
    }
    // Simulation is deterministic: every repeat of a cell must reproduce
    // its first result exactly.
    if (!reference_[i]) {
      reference_[i] = result;
    }
    ok = ok && *reference_[i] == result;
    gates.Op(ok, cell.span + (cell.type == Cell::kApp
                                  ? " profile " + std::to_string(cell.profile)
                                  : "") +
                     ": result differs from golden trap counts or its "
                     "first run");
  }

  Context ctx_;
  std::vector<Cell> cells_;
  std::vector<std::optional<std::pair<double, double>>> reference_;
};

// --- fuzz_campaign ----------------------------------------------------------
// The developers' robustness loop: Fuzzer::Run campaigns at min(4, nproc)
// threads, including the serial shrink phase and the snapshot-split and batch
// oracles. Bound by per-exec stack construction. A pass is a fixed pool of
// campaigns whose order the seed draws: exec cost depends on what a campaign
// generates, and campaigns seeded from the run seed spread execs/s by about
// 20% between seeds, more than the metric's bound. The traced run's probes
// run a campaign seeded from the run seed.

constexpr uint64_t kCampaignCases = 4;
constexpr uint64_t kCampaignSeeds[] = {1, 2, 3};

class FuzzCampaign : public Workload {
 public:
  explicit FuzzCampaign(const Context& ctx) : ctx_(ctx) {
    // The tests/corpus seeds named cov-cfg* each cover one case config.
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             ctx_.root + "/tests/corpus", ec)) {
      if (e.path().filename().string().starts_with("cov-cfg")) {
        paths.push_back(e.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& p : paths) {
      if (std::optional<std::vector<uint8_t>> bytes =
              neve::fuzz::LoadSeedFile(p)) {
        warmup_.push_back(std::move(*bytes));
      }
    }
  }

  // One RunCase per case config.
  void Setup(SpanLog& log, Gates& gates) override {
    gates.Op(!warmup_.empty(), "no cov-cfg seeds in tests/corpus");
    for (const std::vector<uint8_t>& bytes : warmup_) {
      neve::fuzz::CaseResult r;
      TimeNs(log, "fuzz.RunCase", 1, [&] { r = neve::fuzz::RunCase(bytes); });
      gates.Op(r.ok, "fuzz warm-up case failed: " + r.failure);
    }
  }

  void RunPass(uint64_t pass, SpanLog& log, Gates& gates,
               LoopStats& stats) override {
    for (size_t i : Order(std::size(kCampaignSeeds), SubSeed(ctx_.seed, pass))) {
      Campaign(i, log, gates, stats);
    }
  }

 private:
  void Campaign(size_t index, SpanLog& log, Gates& gates, LoopStats& stats) {
    const uint64_t seed = kCampaignSeeds[index];
    neve::fuzz::FuzzOptions opts;
    opts.seed = seed;
    opts.runs = kCampaignCases;
    opts.threads = ctx_.threads;
    neve::fuzz::Fuzzer fuzzer(opts);
    std::ostringstream sink;
    int failures = 0;
    int64_t ns = TimeNs(log, "fuzz.Fuzzer::Run", kCampaignCases,
                        [&] { failures = fuzzer.Run(sink); });
    stats.Add(index, static_cast<double>(std::max<uint64_t>(fuzzer.execs(), 1)),
              Ms(ns));
    for (uint64_t c = 0; c < fuzzer.cases_run(); ++c) {
      bool failed = std::any_of(
          fuzzer.failures().begin(), fuzzer.failures().end(),
          [c](const neve::fuzz::FailureRecord& f) { return f.case_index == c; });
      gates.Op(!failed, "fuzz seed " + std::to_string(seed) + " case " +
                            std::to_string(c) + ": oracle failure");
    }
    if (fuzzer.cases_run() != kCampaignCases || failures != 0) {
      gates.Op(false, "fuzz seed " + std::to_string(seed) + ": " +
                          std::to_string(failures) + " oracle failures");
    }
  }

  Context ctx_;
  std::vector<std::vector<uint8_t>> warmup_;
};

// --- smp_ipi ----------------------------------------------------------------
// 4-vCPU nested stacks through ArmStack::RunSmp: all-to-all IPI rendezvous
// rounds and concurrent per-vCPU hypercalls. The only workload where host
// threads share one Machine.

constexpr int kVcpus = 4;
constexpr int kRounds = kSmpRounds;
constexpr int kHvcsPerVcpu = 16;

struct SmpConfig {
  const char* name;
  const char* golden_name;
  StackConfig cfg;
};

const SmpConfig kSmpConfigs[] = {
    {"v83_vhe", "nested-v83-vhe", StackConfig::NestedV83(true)},
    {"neve_vhe", "nested-neve-vhe", StackConfig::NestedNeve(true)},
};

}  // namespace

SmpJob RunSmpJob(const StackConfig& cfg, bool rendezvous, int count,
                 int lanes, SpanLog& log) {
  std::optional<ArmStack> stack;
  TimeNs(log, "workload.ArmStack", 1, [&] { stack.emplace(cfg, kVcpus); });
  std::vector<GuestMain> bodies;
  for (int k = 0; k < kVcpus; ++k) {
    if (rendezvous) {
      bodies.push_back(stack->MakeIpiRendezvous(k, kVcpus, count));
    } else {
      bodies.push_back([count](GuestEnv& env) {
        for (int i = 0; i < count; ++i) {
          env.Hvc(neve::kHvcTestCall);
        }
      });
    }
  }
  std::vector<Status> statuses;
  SmpJob job;
  job.run_ns = TimeNs(log, "sim.RunSmp", static_cast<uint64_t>(count), [&] {
    statuses = stack->RunSmp(std::move(bodies), lanes);
  });
  job.ok = std::all_of(statuses.begin(), statuses.end(),
                       [](const Status& s) { return s.ok(); });
  job.traps = stack->TotalTrapsToHost();
  return job;
}

namespace {

class SmpIpi : public Workload {
 public:
  explicit SmpIpi(const Context& ctx) : ctx_(ctx) {
    for (const SmpConfig& c : kSmpConfigs) {
      rdv_traps_per_round_.push_back(
          GoldenTraps(ctx_, "SMP Rendezvous", c.golden_name) /
          kGoldenIterations);
      hvc_traps_per_call_.push_back(
          GoldenTraps(ctx_, "Hypercall", c.golden_name) / kGoldenIterations);
    }
  }

  // Boot-and-teardown traps: a 2-round rendezvous and a 1-call hypercall job
  // per config. The gates difference against these, as golden_traps_test
  // does, so boot traps cancel.
  void Setup(SpanLog& log, Gates& gates) override {
    rdv_base_.clear();
    hvc_base_.clear();
    for (const SmpConfig& c : kSmpConfigs) {
      SmpJob rdv = RunSmpJob(c.cfg, true, 2, ctx_.threads, log);
      SmpJob hvc = RunSmpJob(c.cfg, false, 1, ctx_.threads, log);
      gates.Op(rdv.ok && hvc.ok,
               std::string("smp warm-up on ") + c.name + " failed");
      rdv_base_.push_back(rdv.traps);
      hvc_base_.push_back(hvc.traps);
    }
  }

  void RunPass(uint64_t pass, SpanLog& log, Gates& gates,
               LoopStats& stats) override {
    for (size_t job : Order(2 * std::size(kSmpConfigs),
                            SubSeed(ctx_.seed, pass))) {
      size_t c = job / 2;
      bool rendezvous = job % 2 == 0;
      std::string span = std::string("sim.smp_") +
                         (rendezvous ? "rendezvous/" : "hvc/") +
                         kSmpConfigs[c].name;
      SmpJob result;
      int64_t ns = TimeNs(log, span, 1, [&] {
        result = RunSmpJob(kSmpConfigs[c].cfg, rendezvous,
                           rendezvous ? kRounds : kHvcsPerVcpu, ctx_.threads,
                           log);
      });
      stats.Add(job, 1, Ms(ns));
      double want =
          rendezvous
              ? static_cast<double>(rdv_base_[c]) +
                    (kRounds - 2) * rdv_traps_per_round_[c]
              : static_cast<double>(hvc_base_[c]) +
                    kVcpus * (kHvcsPerVcpu - 1) * hvc_traps_per_call_[c];
      gates.Op(result.ok && rdv_traps_per_round_[c] > 0 &&
                   hvc_traps_per_call_[c] > 0 &&
                   static_cast<double>(result.traps) == want,
               span + ": traps differ from the golden per-round count");
    }
  }

 private:
  Context ctx_;
  std::vector<double> rdv_traps_per_round_;
  std::vector<double> hvc_traps_per_call_;
  std::vector<uint64_t> rdv_base_;
  std::vector<uint64_t> hvc_base_;
};

// --- migrate_chaos ----------------------------------------------------------
// snap::RunMigration over the 5 ARM configs x dirty spans {1, 32, 128} with
// the engine's kMigrate* transport faults seeded from the run seed, plus one
// explicit Capture -> Encode -> Decode -> Apply round trip per config.

constexpr uint64_t kDirtySpans[] = {1, 32, 128};
constexpr uint64_t kMigrateSteps = 160;  // outlasts 4 attempts + backoff
constexpr uint64_t kRoundTripSteps = 24;
constexpr uint64_t kRoundTripAt = 12;
constexpr uint64_t kWorkloadSeed = 11;  // guest step mix, as chaos uses
constexpr double kMigrateFaultRate = 0.25;

}  // namespace

neve::snap::SnapSpec MigrateSpec(const StackConfig& cfg, uint64_t span) {
  neve::snap::SnapSpec spec;
  spec.cfg = cfg;
  spec.steps = kMigrateSteps;
  spec.seed = kWorkloadSeed;
  spec.store_span_pages = span;
  return spec;
}

namespace {

neve::snap::SnapSpec RoundTripSpec(const StackConfig& cfg) {
  neve::snap::SnapSpec spec;
  spec.cfg = cfg;
  spec.steps = kRoundTripSteps;
  spec.seed = kWorkloadSeed;
  return spec;
}

}  // namespace

neve::snap::MigrateConfig ChaosMigrateConfig(uint64_t fault_seed) {
  neve::snap::MigrateConfig mc;
  mc.precopy_rounds = 3;
  mc.pulse_interval_steps = 4;
  mc.fault.enabled = fault_seed != 0;
  mc.fault.seed = fault_seed;
  mc.fault.rate = kMigrateFaultRate;
  mc.fault.points = neve::kMigrateFaultPoints;
  return mc;
}

namespace {

class MigrateChaos : public Workload {
 public:
  explicit MigrateChaos(const Context& ctx) : ctx_(ctx) {}

  // Unmigrated control runs for every cell, then one fault-free migration
  // per config.
  void Setup(SpanLog& log, Gates& gates) override {
    LoopStats ignored;
    control_.clear();
    rt_control_.clear();
    for (const ArmConfig& ac : ArmConfigs()) {
      for (uint64_t span : kDirtySpans) {
        control_.push_back(Control(MigrateSpec(ac.cfg, span), gates));
      }
      rt_control_.push_back(Control(RoundTripSpec(ac.cfg), gates));
    }
    for (size_t c = 0; c < ArmConfigs().size(); ++c) {
      Migrate(c * std::size(kDirtySpans), 0, log, gates, ignored);
    }
  }

  bool SingleThreaded() const override { return true; }

  void RunPass(uint64_t pass, SpanLog& log, Gates& gates,
               LoopStats& stats) override {
    const size_t migrations = ArmConfigs().size() * std::size(kDirtySpans);
    const size_t jobs = migrations + ArmConfigs().size();
    for (size_t job : Order(jobs, SubSeed(ctx_.seed, pass))) {
      if (job < migrations) {
        Migrate(job, SubSeed(ctx_.seed, pass, job) | 1, log, gates, stats);
      } else {
        RoundTrip(job - migrations, log, gates, stats);
      }
    }
  }

  std::vector<Metric> Counters() const override {
    double commits = static_cast<double>(std::max<uint64_t>(commits_, 1));
    double migrations =
        static_cast<double>(std::max<uint64_t>(migrations_, 1));
    return {
        {"snap.attempts_per_commit", "count",
         static_cast<double>(attempts_) / commits},
        {"snap.pages_per_migration", "count",
         static_cast<double>(pages_) / migrations},
        {"snap.image_kb", "KB", static_cast<double>(image_bytes_) / 1024.0},
    };
  }

 private:
  neve::snap::EndState Control(const neve::snap::SnapSpec& spec,
                               Gates& gates) {
    neve::snap::SnapRunner runner(spec);
    Status st = runner.Run();
    gates.Op(st.ok(), "migrate control run failed: " + st.ToString());
    return runner.End();
  }

  // Cell `cell` = config * spans + span index. fault_seed 0 = fault-free.
  void Migrate(size_t cell, uint64_t fault_seed, SpanLog& log, Gates& gates,
               LoopStats& stats) {
    const ArmConfig& ac = ArmConfigs()[cell / std::size(kDirtySpans)];
    uint64_t span = kDirtySpans[cell % std::size(kDirtySpans)];
    std::string name = std::string("snap.RunMigration/") + ac.name + "/span" +
                       std::to_string(span);
    neve::snap::MigrationOutcome out;
    Status st;
    int64_t ns = TimeNs(log, name, 1, [&] {
      st = neve::snap::RunMigration(MigrateSpec(ac.cfg, span),
                                    ChaosMigrateConfig(fault_seed), &out);
    });
    stats.Add(cell, 1, Ms(ns));
    attempts_ += static_cast<uint64_t>(out.stats.attempts);
    commits_ += out.stats.committed ? 1 : 0;
    pages_ += out.stats.pages_sent;
    ++migrations_;
    // Rolling back or giving up under an injected transport fault is
    // protocol behaviour. Failures: a non-OK status, a lost or forked VM,
    // or a live side whose end state differs from the control run's.
    const neve::snap::EndState& live =
        out.stats.committed ? out.dest_end : out.source_end;
    bool ok = st.ok() && out.vm_on_dest == out.stats.committed &&
              (out.stats.committed || out.stats.gave_up) &&
              live == control_[cell] &&
              (fault_seed != 0 || out.stats.committed);
    gates.Op(ok, name + " fault seed " + std::to_string(fault_seed) +
                     ": VM lost, forked or diverged from control");
  }

  // Capture mid-run, encode, decode, and apply the image at the same step of
  // a fresh run, which must then end exactly like the control run.
  void RoundTrip(size_t c, SpanLog& log, Gates& gates, LoopStats& stats) {
    const ArmConfig& ac = ArmConfigs()[c];
    neve::snap::Image captured;
    neve::snap::Image decoded;
    Status capture_st, decode_st, apply_st, run_st;
    bool ok = false;
    int64_t ns = TimeNs(log, std::string("snap.roundtrip/") + ac.name, 1, [&] {
      neve::snap::SnapRunner source(RoundTripSpec(ac.cfg));
      neve::snap::SnapHooks capture;
      capture.on_step = [&](uint64_t step, const neve::snap::SnapTargets& t) {
        if (step == kRoundTripAt) {
          TimeNs(log, "snap.Serializer::Capture", 1, [&] {
            capture_st = neve::snap::Serializer::Capture(t, &captured);
          });
        }
        return false;
      };
      run_st = source.Run(capture);
      std::vector<uint8_t> bytes;
      TimeNs(log, "snap.Serializer::Encode", 1,
             [&] { bytes = neve::snap::Serializer::Encode(captured); });
      TimeNs(log, "snap.Serializer::Decode", 1, [&] {
        decode_st = neve::snap::Serializer::Decode(bytes, &decoded);
      });
      image_bytes_ = bytes.size();
      neve::snap::SnapRunner dest(RoundTripSpec(ac.cfg));
      neve::snap::SnapHooks apply;
      apply.on_step = [&](uint64_t step, const neve::snap::SnapTargets& t) {
        if (step == kRoundTripAt) {
          TimeNs(log, "snap.Serializer::Apply", 1, [&] {
            apply_st = neve::snap::Serializer::Apply(t, decoded);
          });
        }
        return false;
      };
      Status dest_st = dest.Run(apply);
      ok = run_st.ok() && dest_st.ok() && source.End() == rt_control_[c] &&
           dest.End() == rt_control_[c];
    });
    stats.Add(ArmConfigs().size() * std::size(kDirtySpans) + c, 1, Ms(ns));
    gates.Op(ok && capture_st.ok() && decode_st.ok() && apply_st.ok(),
             std::string("snapshot round trip on ") + ac.name +
                 " failed or diverged from control");
  }

  Context ctx_;
  std::vector<neve::snap::EndState> control_;
  std::vector<neve::snap::EndState> rt_control_;
  uint64_t attempts_ = 0;
  uint64_t commits_ = 0;
  uint64_t migrations_ = 0;
  uint64_t pages_ = 0;
  uint64_t image_bytes_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_tables", "fuzz_campaign", "smp_ipi", "migrate_chaos"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Context& ctx) {
  if (name == "paper_tables") {
    return std::make_unique<PaperTables>(ctx);
  }
  if (name == "fuzz_campaign") {
    return std::make_unique<FuzzCampaign>(ctx);
  }
  if (name == "smp_ipi") {
    return std::make_unique<SmpIpi>(ctx);
  }
  if (name == "migrate_chaos") {
    return std::make_unique<MigrateChaos>(ctx);
  }
  return nullptr;
}

}  // namespace perfbench
