// Benchmark results: metrics, the build/host fingerprint, the result
// document each run writes, and the comparison of result sets.

#ifndef PERFBENCH_SRC_RESULTS_H_
#define PERFBENCH_SRC_RESULTS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// What host time depends on besides the code: two result sets compare only
// when every field matches. The lock-order detector alone changes host time
// by about 2.7x, and it is detected by watching its acquisition counter move.
struct Fingerprint {
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool lock_order = false;
  unsigned nproc = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint HostFingerprint();

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // first few, for the log
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && gate_failures.empty(); }
};

// The full result document (fingerprint, seed, metrics, gate failures).
std::string ResultDocument(const RunResult& r, const Fingerprint& fp);

// The one-line summary the benchmark prints last on stdout:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string SummaryLine(const RunResult& r);

// Reads result documents (or directories of them) and prints, per workload,
// trace mode and metric, the median and quartiles of each set. Refuses
// (returns 2) when any two documents' fingerprints differ; returns 1 on an
// unreadable document, 0 otherwise.
int CompareResults(const std::vector<std::string>& sets, std::ostream& out);

// statistics.quantiles(values, n=4) (exclusive method): {q1, median, q3}.
std::vector<double> Quartiles(std::vector<double> values);
double Median(std::vector<double> values);

// Nearest-rank percentile, p in [0, 100]; 0 for no values.
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RESULTS_H_
