// In-memory span log for the traced benchmark run.
//
// A span brackets one call from the benchmark into a simulator layer: its
// name, start, end, the span that was open when it began (its parent), and
// how many calls it covers (a timed loop of N hypercalls is one span with
// items = N). Spans are recorded only from the benchmark's main thread and
// kept in memory; the run writes them out when it ends. A span's self time
// is its duration minus the time its direct children cover.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Host monotonic time in nanoseconds.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open
  int32_t parent = -1;
  uint64_t items = 1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span under the innermost open one. Returns its index, or -1
  // when the log is disabled.
  int32_t Open(std::string name, uint64_t items);
  void Close(int32_t index);

  // Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimes() const;

  // One message per span that is still open, ends before it starts, lies
  // outside its parent, or has negative self time. Empty when spans nest.
  std::vector<std::string> CheckNesting() const;

  // The span list plus per-name totals, as a JSON document.
  std::string ToJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, uint64_t items = 1)
      : log_(log), index_(log.Open(std::move(name), items)) {}
  ~ScopedSpan() { log_.Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int32_t index_;
};

// Runs fn() inside a span and returns its host duration in nanoseconds. The
// duration is measured whether or not the log records spans.
template <class Fn>
int64_t TimeNs(SpanLog& log, std::string name, uint64_t items, Fn&& fn) {
  int32_t index = log.Open(std::move(name), items);
  int64_t start = NowNs();
  fn();
  int64_t ns = NowNs() - start;
  log.Close(index);
  return ns;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
