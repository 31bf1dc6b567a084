// Shared helpers for the table/figure regeneration benches.

#ifndef NEVE_BENCH_BENCH_UTIL_H_
#define NEVE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/parallel.h"
#include "src/fault/fault.h"

namespace neve {

// Renders "measured (paper: X, d%)" for side-by-side comparison. A zero
// paper value means "no reference number": the delta prints as n/a rather
// than a misleading +0%. The divisor is |paper| so the delta's sign always
// means "measured above/below the reference" even for negative references
// (e.g. a paper speedup expressed as a negative overhead).
inline std::string VsPaper(double measured, double paper) {
  char buf[96];
  if (paper != 0) {
    std::snprintf(buf, sizeof(buf), "%.0f (paper %.0f, %+.0f%%)", measured,
                  paper, (measured - paper) / std::fabs(paper) * 100.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f (paper %.0f, n/a)", measured, paper);
  }
  return buf;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("    reproduces: %s\n", paper_ref);
  std::printf("    units: simulated cycles (see DESIGN.md section 1)\n\n");
}

// The value of the last argument that starts with `flag` (spelled with its
// "=", e.g. "--json="), or "" when there is none. Repeated flags behave like
// standard CLI flags: the last one wins. Every caller treats an empty value
// as absent.
inline std::string FlagValue(int argc, char** argv, const char* flag) {
  const size_t len = std::strlen(flag);
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0) {
      value = argv[i] + len;
    }
  }
  return value;
}

// The --json=<path> argument, or "" when absent. Every bench accepts this
// flag and mirrors its printed table into a machine-readable
// BENCH_<name>.json (schema: src/obs/report.h).
inline std::string JsonOutPath(int argc, char** argv) {
  return FlagValue(argc, argv, "--json=");
}

// Worker count for the parallel bench harness: --threads=N; absent or 0
// means "pick for me" (DefaultBenchThreads). --threads=1 forces the serial
// path. Results are identical either way -- each cell runs its own Machine,
// and the tables print after the join.
inline unsigned ThreadsFromArgs(int argc, char** argv) {
  const auto threads = static_cast<unsigned>(std::strtoul(
      FlagValue(argc, argv, "--threads=").c_str(), nullptr, 10));
  return threads == 0 ? DefaultBenchThreads() : threads;
}

// Batched superblock execution (src/sim/batch): --batch=on|off, default on
// (batching is the production path and byte-identical by the engine's
// design invariant). "off" forces the pure per-op interpreter everywhere --
// the baseline half of every batched-vs-interpreted pair and the escape
// hatch if a batching bug is ever suspected.
inline bool BatchFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--batch=") != "off";
}

// Fault-injection campaign seed: --fault-seed=N. 0 (the default) leaves
// injection disabled so every bench stays byte-identical to its
// uninstrumented behavior unless a campaign is explicitly requested.
inline uint64_t FaultSeedFromArgs(int argc, char** argv) {
  return std::strtoull(FlagValue(argc, argv, "--fault-seed=").c_str(),
                       nullptr, 10);
}

// Per-opportunity injection probability: --fault-rate=R in [0,1]; defaults
// to 0.
inline double FaultRateFromArgs(int argc, char** argv) {
  return std::strtod(FlagValue(argc, argv, "--fault-rate=").c_str(), nullptr);
}

// Assembles a fault campaign from the two flags above. The campaign is
// enabled only when --fault-rate is positive; --fault-seed alone keeps
// injection off (a seed without a rate draws nothing anyway, and benches
// must stay byte-identical unless a campaign is explicitly requested). The
// watchdog budget clears the longest legitimate single vcpu entry (a full
// nested-v8.3 boot, ~22M cycles) with a wide margin.
inline FaultConfig FaultCampaignFromArgs(int argc, char** argv) {
  FaultConfig fault;
  fault.seed = FaultSeedFromArgs(argc, argv);
  fault.rate = FaultRateFromArgs(argc, argv);
  fault.enabled = fault.rate > 0.0;
  if (fault.enabled) {
    fault.watchdog_budget = 200'000'000;
  }
  return fault;
}

}  // namespace neve

#endif  // NEVE_BENCH_BENCH_UTIL_H_
