// The per-Machine observability layer: one metrics registry plus one event
// tracer behind a single enable switch.
//
// Wiring: Machine owns an Observability and hands a pointer to every Cpu,
// the GIC and (via the hypervisors) device models. Hot instrumentation
// sites record through a metric handle held by the instrumented object
// (metrics.h) and pass static names to the tracer:
//
//     CounterRef traps_to_el2_{"cpu.traps_to_el2"};  // a Cpu member
//     ...
//     if (ObsActive(obs_)) {
//       traps_to_el2_.In(obs_->metrics()).Add(1);
//       obs_->tracer().Instant(index_, "trap", EcName(s.ec), cycles_);
//     }
//
// so a disabled (or absent) layer costs one pointer test and one predictable
// branch -- the zero-cost-when-disabled contract bench/simcore_gbench
// guards -- and an enabled one a compare and a store per record, with no
// lock and no allocation. Cold sites may look metrics up by name instead
// (metrics().Counter("fault.vm_kills")). Spans go only through the
// ScopedSpan RAII helper below, which captures the enable decision at
// construction so a span begun while enabled always closes.

#ifndef NEVE_SRC_OBS_OBSERVABILITY_H_
#define NEVE_SRC_OBS_OBSERVABILITY_H_

#include <cstdint>
#include <string>

#include "src/base/lock_order.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace neve {

class Observability {
 public:
  explicit Observability(size_t trace_capacity = Tracer::kDefaultCapacity)
      : tracer_(trace_capacity) {
    // Ring-overwrite drops surface as a metric so overflowing runs are
    // visible without parsing the trace export.
    tracer_.SetDropCounter(&metrics_.Counter("obs.trace_dropped_events"));
  }

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // Mirrors process-global concurrency counters (the lock-order detector in
  // src/base/lock_order.h) into this registry so reports and panic dumps
  // carry them. Delta-mirrored against the current metric value, so calling
  // it repeatedly (or from several report paths) never double-counts.
  void SyncProcessCounters() {
    MetricCounter& acq = metrics_.Counter("base.lock_acquisitions");
    acq.Add(lock_order::Acquisitions() - acq.value());
    MetricCounter& edges = metrics_.Counter("base.lock_order_edges");
    edges.Add(lock_order::Edges() - edges.value());
  }

 private:
  bool enabled_ = false;
  MetricsRegistry metrics_;
  Tracer tracer_;
};

// True when instrumentation should record: the site has an observability
// layer and it is switched on.
inline bool ObsActive(const Observability* obs) {
  return obs != nullptr && obs->enabled();
}

// RAII begin/end span on the clock of `Clocked` (anything exposing cycles()
// and index(), i.e. a Cpu); the only way to record a span, since
// Tracer::Begin/End are private to it. Templated so the tracer stays
// independent of the CPU model while call sites read naturally:
//
//     ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_el1");
//
// The end event is written also when a confined guest fault unwinds the
// scope. `name` must be a static string, as for every tracer event: a
// disabled span costs two pointer tests and an enabled one two events
// written into the ring -- world-switch phases run 100+ times per nested
// trap.
template <typename Clocked>
class ScopedSpan {
 public:
  ScopedSpan(Observability* obs, Clocked& clock, const char* category,
             const char* name)
      : obs_(ObsActive(obs) ? obs : nullptr),
        clock_(clock),
        category_(category),
        name_(name) {
    if (obs_ != nullptr) {
      id_ = obs_->tracer().Begin(clock_.index(), category_, name_,
                                 clock_.cycles());
    }
  }

  ~ScopedSpan() {
    if (obs_ != nullptr) {
      obs_->tracer().End(clock_.index(), category_, name_, clock_.cycles());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // The begin event's ID (a histogram exemplar links to it), or 0 when the
  // span does not record.
  uint64_t id() const { return id_; }

 private:
  Observability* obs_;
  Clocked& clock_;
  const char* category_;
  const char* name_;
  uint64_t id_ = 0;
};

template <typename Clocked>
ScopedSpan(Observability*, Clocked&, const char*, const char*)
    -> ScopedSpan<Clocked>;

}  // namespace neve

#endif  // NEVE_SRC_OBS_OBSERVABILITY_H_
