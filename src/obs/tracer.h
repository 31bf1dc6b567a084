// Structured event tracer: a bounded ring buffer of begin/end spans and
// instant events, exportable as Chrome trace-event JSON.
//
// The timebase is *simulated cycles* (each simulated CPU's own clock), not
// host time: a span covering a nested trap episode shows where the simulated
// machine's cycles went, which is the quantity the paper accounts (Tables
// 1/6/7). The exporter maps each simulated CPU to one Chrome track (tid),
// writing cycles into the microsecond field -- chrome://tracing renders the
// numbers verbatim, so read "us" as "cycles". Load the file via
// chrome://tracing -> Load, or https://ui.perfetto.dev.
//
// Spans are recorded only through ScopedSpan (observability.h), so every
// begin event gets its end event, also when a guest fault unwinds the span.
// The ring overwrites the oldest events when full (a long run keeps the tail
// of the episode, which is usually the part being inspected);
// `dropped_events()` says how many were lost, and `open_spans()` counts the
// spans still open whether or not the ring wrapped. chrome://tracing
// tolerates the unbalanced begin/end pairs a wrapped ring can produce.
//
// Recording is a store into the ring: event names and categories are static
// strings (literals, EcName, SysRegName, FaultPointName), so an event is
// trivially copyable and nothing is allocated per event. The ring takes no
// lock. Like the metric values (metrics.h), it is owner-serialized: while
// the obs layer is enabled a Machine has one mutator thread at a time, which
// SmpEngine::Run enforces for the one Machine that runs on several threads
// by refusing to start with obs enabled. Readers (Snapshot, the Chrome
// export) run on that thread or after the fan-out joined.

#ifndef NEVE_SRC_OBS_TRACER_H_
#define NEVE_SRC_OBS_TRACER_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace neve {

enum class TracePhase : uint8_t {
  kBegin,    // Chrome "B"
  kEnd,      // Chrome "E"
  kInstant,  // Chrome "i" (thread scope)
};

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  int cpu = 0;               // simulated CPU (one Chrome track each)
  uint64_t ts = 0;           // simulated cycles
  const char* category = ""; // static string: "trap", "world_switch", ...
  const char* name = "";     // static string: "hvc", EcName(ec), ...
  // Optional single argument, rendered into Chrome "args" when arg_name set.
  const char* arg_name = nullptr;
  uint64_t arg = 0;
  // Monotonic per-tracer event ID (1-based; 0 means "no event"). Histogram
  // exemplars store these so an outlier sample links back to its trace
  // event; the ID survives ring overwrites as evidence the event existed
  // even after its payload is gone.
  uint64_t id = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "recording a trace event is a plain store into the ring");

class MetricCounter;
template <typename Clocked>
class ScopedSpan;

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  // Names and categories must be static strings. Returns the recorded
  // event's ID (for exemplar links).
  uint64_t Instant(int cpu, const char* category, const char* name,
                   uint64_t ts, const char* arg_name = nullptr,
                   uint64_t arg = 0);

  // Mirrors ring-overwrite drops into a metrics counter
  // (obs.trace_dropped_events); Observability wires this at construction.
  // The counter must outlive the tracer.
  void SetDropCounter(MetricCounter* counter) { drop_counter_ = counter; }

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped_events() const { return dropped_; }

  // Spans begun minus spans ended over the tracer's life. Counted outside
  // the ring, so it stays exact after the ring wraps; Clear() leaves it, as
  // a span open across a Clear still closes.
  int64_t open_spans() const { return open_spans_; }

  // Recorded events, oldest first (unwinds the ring).
  std::vector<TraceEvent> Snapshot() const;

  // Chrome trace-event JSON ({"traceEvents": [...], ...}).
  std::string ToChromeJson() const;

  // Writes ToChromeJson() to `path`; false (with a log line) on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  void Clear();

 private:
  // Spans open and close only through ScopedSpan. Begin, End and Instant
  // stay out of line on purpose: each writes its fields straight into the
  // ring slot, and inlining the writes into every span site cost the
  // unobserved trap path 7-14% of paper_tables throughput (RelWithDebInfo,
  // 4-vCPU Xeon VM).
  template <typename Clocked>
  friend class ScopedSpan;
  uint64_t Begin(int cpu, const char* category, const char* name,
                 uint64_t ts);
  void End(int cpu, const char* category, const char* name, uint64_t ts);

  // The slot the next event goes to: appended while the ring grows, the
  // oldest event's once it is full (counted as a drop).
  TraceEvent& NextSlot();

  size_t capacity_;
  std::vector<TraceEvent> events_;  // ring once at capacity
  size_t next_ = 0;                 // ring write position
  uint64_t dropped_ = 0;
  uint64_t next_id_ = 1;  // 0 is reserved for "no event"
  int64_t open_spans_ = 0;
  MetricCounter* drop_counter_ = nullptr;
};

}  // namespace neve

#endif  // NEVE_SRC_OBS_TRACER_H_
