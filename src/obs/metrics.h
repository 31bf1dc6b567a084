// Machine-wide metrics registry: named counters, gauges and log2-bucketed
// latency histograms, plus handles that bind a static name to its metric.
//
// The registry is owned per-Machine and shared by every CPU and device model
// of that machine, so a counter like "cpu.traps_to_el2" aggregates across
// CPUs by construction. All instrumentation sites are gated on
// Observability::enabled() -- when the layer is off nothing here executes,
// keeping the hot paths at their uninstrumented cost (the "zero-cost when
// disabled" contract verified by bench/simcore_gbench).
//
// Hot sites record through a handle (CounterRef, HistogramRef): a member
// holding the metric's static name and the metric it last bound to, so an
// enabled site costs a compare and a store, not a locked lookup by string.
// Cold sites may keep looking metrics up by name. Metrics are never removed
// from a registry (there is no Reset), which is what keeps a bound handle
// valid for the registry's lifetime.
//
// Concurrency (DESIGN.md 6i/6j): registration -- the name->metric map
// structure -- is guarded by mu_, so threads may look metrics up
// concurrently (the --threads= bench fan-out constructs and reads registries
// on worker threads); a handle reaches it only on a bind. The *recorded
// values* (Add/Set/Record on the returned references) stay unsynchronized:
// with the obs layer enabled a Machine has exactly one mutator thread at a
// time, and the ParallelFor join publishes its writes to whoever aggregates.
// The SMP engine (sim/smp.h) runs many mutator threads per machine, which is
// why SmpEngine::Run refuses to start with obs enabled -- SMP runs keep
// their observability through the sharded cycle attribution (attr.h) and
// per-vCPU counters, not this registry.
//
// Naming scheme (see DESIGN.md "Observability"): dot-separated
// `<subsystem>.<event>[,k=v...]`, e.g. "cpu.traps_to_el2",
// "shadow_s2.faults_installed", "virtio.kicks". Histograms record simulated
// cycles unless the name says otherwise.

#ifndef NEVE_SRC_OBS_METRICS_H_
#define NEVE_SRC_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace neve {

// Monotonically increasing event count.
class MetricCounter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Last-write-wins instantaneous value.
class MetricGauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram of non-negative integer samples (latencies in
// simulated cycles). Bucket i holds samples whose bit width is i, i.e.
// [2^(i-1), 2^i); bucket 0 holds the value 0. Quantiles are estimated as the
// upper bound of the bucket where the cumulative count crosses the rank --
// good to within 2x, which is what a log-scale latency summary needs. min
// and max are tracked exactly.
class MetricHistogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit_width of a uint64_t is 0..64

  void Record(uint64_t sample) {
    ++buckets_[std::bit_width(sample)];
    ++count_;
    sum_ += sample;
    if (sample < min_ || count_ == 1) {
      min_ = sample;
    }
    if (sample > max_) {
      max_ = sample;
    }
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  // Record with an exemplar: remembers `trace_id` (a Tracer event ID) as the
  // most recent representative of the sample's bucket, so a histogram
  // outlier links back to the trace event that produced it. trace_id 0
  // ("no event") records the sample without touching the exemplar.
  void RecordWithExemplar(uint64_t sample, uint64_t trace_id) {
    Record(sample);
    if (trace_id != 0) {
      exemplars_[std::bit_width(sample)] = trace_id;
    }
  }

  // Upper-bound estimate of the p-th percentile (p in [0, 100]).
  uint64_t Percentile(double p) const;

  // The exemplar trace ID of the bucket the p-th percentile falls in;
  // nullopt when the histogram is empty or that bucket never recorded an
  // exemplar.
  std::optional<uint64_t> PercentileExemplar(double p) const;

  // Exemplar of log2 bucket `bucket` (0 when none recorded).
  uint64_t BucketExemplar(int bucket) const {
    return exemplars_[static_cast<size_t>(bucket)];
  }

  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    double mean = 0.0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };
  Summary Summarize() const;

 private:
  // The log2 bucket Percentile(p) resolves to; -1 when the histogram is
  // empty.
  int PercentileBucket(double p) const;

  std::array<uint64_t, kNumBuckets> buckets_ = {};
  std::array<uint64_t, kNumBuckets> exemplars_ = {};  // 0: no exemplar
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Name -> metric registry. Lookup creates on first use; references remain
// valid for the registry's lifetime (std::map nodes are stable), so hot
// instrumentation sites may cache them.
class MetricsRegistry {
 public:
  MetricsRegistry();

  // Unique per registry in the process and never 0, so a handle can tell
  // the registry it bound to from one later built at the same address.
  uint64_t serial() const { return serial_; }

  MetricCounter& Counter(std::string_view name) EXCLUDES(mu_);
  MetricGauge& Gauge(std::string_view name) EXCLUDES(mu_);
  MetricHistogram& Histogram(std::string_view name) EXCLUDES(mu_);

  // Lookup without creation; nullptr when the metric was never touched.
  const MetricCounter* FindCounter(std::string_view name) const EXCLUDES(mu_);
  const MetricGauge* FindGauge(std::string_view name) const EXCLUDES(mu_);
  const MetricHistogram* FindHistogram(std::string_view name) const
      EXCLUDES(mu_);

  // Whole-map read side, used by the post-join reporting paths (obsreport,
  // BENCH json, panic dumps). Owner-serialized: the caller is the machine's
  // only mutator (or runs after the fan-out joined), so the analysis is
  // waived rather than taking the lock on every report line.
  const std::map<std::string, MetricCounter, std::less<>>& counters() const
      NO_THREAD_SAFETY_ANALYSIS {
    return counters_;
  }
  const std::map<std::string, MetricGauge, std::less<>>& gauges() const
      NO_THREAD_SAFETY_ANALYSIS {
    return gauges_;
  }
  const std::map<std::string, MetricHistogram, std::less<>>& histograms()
      const NO_THREAD_SAFETY_ANALYSIS {
    return histograms_;
  }

  // Human-readable dump of every metric, one per line, sorted by name.
  std::string TextReport() const EXCLUDES(mu_);

 private:
  const uint64_t serial_;
  // Guards the map structure (registration); see the header comment for why
  // the metric values themselves stay owner-serialized.
  mutable Mutex mu_{"obs.metrics"};
  std::map<std::string, MetricCounter, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, MetricGauge, std::less<>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, MetricHistogram, std::less<>> histograms_
      GUARDED_BY(mu_);
};

// A handle on one metric by static name. In(reg) returns the metric in
// `reg`, looking the name up only when `reg` is not the registry of the
// last bind: an object re-wired to another registry rebinds by itself.
// Binding happens on first use, not at wiring, so the metric comes into
// being when it is first recorded, exactly as a lookup by name would make
// it -- reports never list a metric the run did not touch. Keep handles as
// members of objects owned by one Machine, never as statics: Machines run on
// different threads, and In() writes the handle.
template <typename Metric>
class MetricRef {
  static_assert(std::is_same_v<Metric, MetricCounter> ||
                std::is_same_v<Metric, MetricHistogram>);

 public:
  // `name` must be a static string.
  explicit constexpr MetricRef(const char* name) : name_(name) {}

  Metric& In(MetricsRegistry& reg) {
    if (reg.serial() != serial_) [[unlikely]] {
      Bind(reg);
    }
    return *metric_;
  }

 private:
  // Out of line, so a hot site's In() stays a compare and a load.
  [[gnu::noinline]] void Bind(MetricsRegistry& reg) {
    if constexpr (std::is_same_v<Metric, MetricCounter>) {
      metric_ = &reg.Counter(name_);
    } else {
      metric_ = &reg.Histogram(name_);
    }
    serial_ = reg.serial();
  }

  const char* name_;
  uint64_t serial_ = 0;  // serial() of the registry metric_ lives in
  Metric* metric_ = nullptr;
};

using CounterRef = MetricRef<MetricCounter>;
using HistogramRef = MetricRef<MetricHistogram>;

}  // namespace neve

#endif  // NEVE_SRC_OBS_METRICS_H_
