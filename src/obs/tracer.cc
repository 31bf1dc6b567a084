#include "src/obs/tracer.h"

#include <cstdio>

#include "src/base/log.h"
#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"

namespace neve {
namespace {

const char* PhaseString(TracePhase phase) {
  switch (phase) {
    case TracePhase::kBegin:
      return "B";
    case TracePhase::kEnd:
      return "E";
    case TracePhase::kInstant:
      return "i";
  }
  return "i";
}

}  // namespace

Tracer::Tracer(size_t capacity) : capacity_(capacity) {
  NEVE_CHECK(capacity > 0);
}

inline TraceEvent& Tracer::NextSlot() {
  if (events_.size() < capacity_) {
    return events_.emplace_back();
  }
  TraceEvent& slot = events_[next_];
  if (++next_ == capacity_) {
    next_ = 0;
  }
  ++dropped_;
  if (drop_counter_ != nullptr) {
    drop_counter_->Add(1);
  }
  return slot;
}

uint64_t Tracer::Begin(int cpu, const char* category, const char* name,
                       uint64_t ts) {
  ++open_spans_;
  TraceEvent& ev = NextSlot();
  ev = {.phase = TracePhase::kBegin,
        .cpu = cpu,
        .ts = ts,
        .category = category,
        .name = name,
        .id = next_id_++};
  return ev.id;
}

void Tracer::End(int cpu, const char* category, const char* name,
                 uint64_t ts) {
  --open_spans_;
  NextSlot() = {.phase = TracePhase::kEnd,
                .cpu = cpu,
                .ts = ts,
                .category = category,
                .name = name,
                .id = next_id_++};
}

uint64_t Tracer::Instant(int cpu, const char* category, const char* name,
                         uint64_t ts, const char* arg_name, uint64_t arg) {
  TraceEvent& ev = NextSlot();
  ev = {.phase = TracePhase::kInstant,
        .cpu = cpu,
        .ts = ts,
        .category = category,
        .name = name,
        .arg_name = arg_name,
        .arg = arg,
        .id = next_id_++};
  return ev.id;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  // Oldest-first: the ring's write position is the oldest slot once wrapped.
  size_t start = events_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(start + i) % events_.size()]);
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceEvent& ev : Snapshot()) {
    w.BeginObject();
    w.Key("name");
    w.String(ev.name);
    w.Key("cat");
    w.String(ev.category);
    w.Key("ph");
    w.String(PhaseString(ev.phase));
    w.Key("ts");
    w.Number(ev.ts);
    w.Key("pid");
    w.Number(uint64_t{0});
    w.Key("tid");
    w.Number(static_cast<uint64_t>(ev.cpu));
    if (ev.phase == TracePhase::kInstant) {
      w.Key("s");
      w.String("t");
    }
    if (ev.arg_name != nullptr) {
      w.Key("args");
      w.BeginObject();
      w.Key(ev.arg_name);
      w.Number(ev.arg);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ns");
  w.Key("otherData");
  w.BeginObject();
  w.Key("timebase");
  w.String("simulated cycles (rendered as us)");
  w.Key("dropped_events");
  w.Number(dropped_);
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    NEVE_LOG_ERROR << "cannot open trace output file " << path;
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    NEVE_LOG_ERROR << "short write to trace output file " << path;
    return false;
  }
  return true;
}

void Tracer::Clear() {
  events_.clear();
  next_ = 0;
  dropped_ = 0;
}

}  // namespace neve
