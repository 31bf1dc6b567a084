// The benchmark's four workloads. Each is a closed-loop batch job driven
// from one process: it runs whole passes over its operations, in an order
// drawn from the seed, until the measured time is up. Simulated results are
// the correctness gate, never the metric.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host_speed.h"
#include "perfbench/src/results.h"
#include "perfbench/src/spans.h"
#include "src/snap/migrate.h"
#include "src/workload/microbench.h"

namespace perfbench {

// Operations attempted and failed in one run. An operation fails when it
// returns an error status or its simulated result fails a gate.
struct Gates {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void Op(bool ok, const std::string& what);
};

// Host times of one run's operations. Every operation has a key that is
// stable across passes (a table cell, a campaign, an SMP job, a migration),
// and runs once per pass.
//
// Interference from co-tenants only ever adds time, so each operation's host
// time is the fastest of its repeats in the run. The reference kernel
// (host_speed.h) runs after every operation, and the run's figures are
// scaled to the reference host by its fastest time in the same run.
struct LoopStats {
  struct Op {
    double work = 1;         // work units per run of the op (fuzz: execs)
    std::vector<double> ms;  // host milliseconds, one per pass
  };
  std::map<size_t, Op> ops;
  HostSpeed speed;

  void Add(size_t key, double work, double ms);
  double TotalWork() const;
  // Work units per reference-host second of one pass at each op's fastest
  // time.
  double OpsPerSecond() const;
  // Median over ops of the fastest reference-host ms per work unit.
  double MedianOpMs() const;
  // Every sample, as reference-host ms per work unit.
  std::vector<double> AllOpMs() const;
};

struct Context {
  std::string root;   // checkout root (tests/golden, tests/corpus)
  uint64_t seed = 1;
  unsigned threads = 1;  // min(4, nproc): fuzz threads and SMP lanes
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One untimed warm-up op per config. Also builds the references the gates
  // compare against, so it runs before the first pass.
  virtual void Setup(SpanLog& log, Gates& gates) = 0;

  // One pass over the workload's operations, in the order pass `pass` of
  // this seed draws.
  virtual void RunPass(uint64_t pass, SpanLog& log, Gates& gates,
                       LoopStats& stats) = 0;

  // True when every op runs on the calling thread alone; Loop then spreads
  // the passes over the host's CPUs.
  virtual bool SingleThreaded() const { return false; }

  // Runs whole passes until `seconds` have elapsed (at least one pass).
  void Loop(double seconds, SpanLog& log, Gates& gates, LoopStats& stats);

  // Per-layer counts the workload keeps across passes (traced run only).
  virtual std::vector<Metric> Counters() const { return {}; }
};

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Context& ctx);

// The five ARM stack configurations, short-named for metric names.
struct ArmConfig {
  const char* name;         // vm, v83, v83_vhe, neve, neve_vhe
  const char* golden_name;  // the config's name in tests/golden
  neve::StackConfig cfg;
};
const std::vector<ArmConfig>& ArmConfigs();

// Metric-name spelling of a microbenchmark kind (hypercall, device_io, ...).
const char* KindName(neve::MicrobenchKind kind);

// Golden trap count for (bench, config) from tests/golden/trap_counts.json,
// which holds totals over its "iterations" ops; -1 when absent.
double GoldenTraps(const Context& ctx, const std::string& bench,
                   const std::string& config);
inline constexpr int kGoldenIterations = 8;

// Runs one smp_ipi job on a fresh 4-vCPU stack: `count` all-to-all IPI
// rendezvous rounds, or `count` hypercalls per vCPU, on `lanes` host threads.
struct SmpJob {
  bool ok = false;      // every lane returned OK
  uint64_t traps = 0;   // the stack's traps to the host
  int64_t run_ns = 0;   // host time inside ArmStack::RunSmp
};
SmpJob RunSmpJob(const neve::StackConfig& cfg, bool rendezvous, int count,
                 int lanes, SpanLog& log);
inline constexpr int kSmpRounds = 40;

// migrate_chaos's workload for one config and dirty span, and its migration
// settings; fault_seed 0 arms no faults.
neve::snap::SnapSpec MigrateSpec(const neve::StackConfig& cfg, uint64_t span);
neve::snap::MigrateConfig ChaosMigrateConfig(uint64_t fault_seed);

// Mixes a run seed with indices into an independent stream seed.
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
