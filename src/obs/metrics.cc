#include "src/obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace neve {
namespace {

// Upper bound of log2 bucket i (the largest value that lands in it).
uint64_t BucketUpperBound(int i) {
  if (i == 0) {
    return 0;
  }
  if (i >= 64) {
    return ~uint64_t{0};
  }
  return (uint64_t{1} << i) - 1;
}

template <typename Map>
auto* FindIn(const Map& map, std::string_view name) {
  auto it = map.find(name);
  return it != map.end() ? &it->second : nullptr;
}

}  // namespace

int MetricHistogram::PercentileBucket(double p) const {
  if (count_ == 0) {
    return -1;
  }
  // NaN fails both comparisons below and would reach the float->uint64_t
  // cast, which is undefined for NaN; treat it as the median.
  if (std::isnan(p)) {
    p = 50.0;
  }
  if (p <= 0.0) {
    return std::bit_width(min_);
  }
  if (p >= 100.0) {
    return std::bit_width(max_);
  }
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return i;
    }
  }
  return std::bit_width(max_);
}

uint64_t MetricHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (std::isnan(p)) {
    p = 50.0;
  }
  // The extremes are tracked exactly; report them rather than a bucket
  // bound.
  if (p <= 0.0) {
    return min_;
  }
  if (p >= 100.0) {
    return max_;
  }
  // Clamp to the observed extremes so sparse histograms stay sane: the
  // bucket upper bound can exceed max (or undershoot min) when only a
  // few samples landed in it.
  return std::clamp(BucketUpperBound(PercentileBucket(p)), min_, max_);
}

std::optional<uint64_t> MetricHistogram::PercentileExemplar(double p) const {
  int bucket = PercentileBucket(p);
  if (bucket < 0) {
    return std::nullopt;
  }
  uint64_t id = exemplars_[static_cast<size_t>(bucket)];
  if (id == 0) {
    return std::nullopt;
  }
  return id;
}

MetricHistogram::Summary MetricHistogram::Summarize() const {
  return Summary{.count = count_,
                 .sum = sum_,
                 .mean = mean(),
                 .min = min(),
                 .max = max_,
                 .p50 = Percentile(50),
                 .p95 = Percentile(95),
                 .p99 = Percentile(99)};
}

MetricsRegistry::MetricsRegistry()
    : serial_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

MetricCounter& MetricsRegistry::Counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), MetricCounter{}).first;
  }
  return it->second;
}

MetricGauge& MetricsRegistry::Gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), MetricGauge{}).first;
  }
  return it->second;
}

MetricHistogram& MetricsRegistry::Histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), MetricHistogram{}).first;
  }
  return it->second;
}

const MetricCounter* MetricsRegistry::FindCounter(std::string_view name) const {
  MutexLock lock(mu_);
  return FindIn(counters_, name);
}

const MetricGauge* MetricsRegistry::FindGauge(std::string_view name) const {
  MutexLock lock(mu_);
  return FindIn(gauges_, name);
}

const MetricHistogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  MutexLock lock(mu_);
  return FindIn(histograms_, name);
}

std::string MetricsRegistry::TextReport() const {
  MutexLock lock(mu_);
  std::ostringstream oss;
  for (const auto& [name, c] : counters_) {
    oss << "counter   " << name << " = " << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%g", g.value());
    oss << "gauge     " << name << " = " << buf << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    MetricHistogram::Summary s = h.Summarize();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "count=%llu mean=%.1f min=%llu p50=%llu p95=%llu p99=%llu "
                  "max=%llu",
                  static_cast<unsigned long long>(s.count), s.mean,
                  static_cast<unsigned long long>(s.min),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p95),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.max));
    oss << "histogram " << name << " = " << buf << "\n";
  }
  return oss.str();
}

}  // namespace neve
