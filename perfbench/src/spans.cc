#include "perfbench/src/spans.h"

#include <chrono>
#include <map>

#include "src/obs/report.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Open(std::string name, uint64_t items) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.items = items;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::Close(int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan/TimeNs scoping guarantees it).
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::vector<std::string> SpanLog::CheckNesting() const {
  std::vector<std::string> errors;
  std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
    if (s.end_ns == 0 || s.end_ns < s.start_ns) {
      errors.push_back(where + " is open or ends before it starts");
      continue;
    }
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        errors.push_back(where + " lies outside its parent " + p.name);
      }
    }
    if (self[i] < 0) {
      errors.push_back(where + " has negative self time");
    }
  }
  return errors;
}

std::string SpanLog::ToJson() const {
  struct Total {
    uint64_t spans = 0;
    uint64_t items = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::vector<int64_t> self = SelfTimes();
  std::map<std::string, Total> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Total& t = totals[spans_[i].name];
    ++t.spans;
    t.items += spans_[i].items;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  neve::JsonWriter w;
  w.BeginObject();
  w.Key("totals");
  w.BeginArray();
  for (const auto& [name, t] : totals) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("spans");
    w.Number(t.spans);
    w.Key("items");
    w.Number(t.items);
    w.Key("total_ns");
    w.Number(t.total_ns);
    w.Key("self_ns");
    w.Number(t.self_ns);
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_ns");
    w.Number(s.start_ns);
    w.Key("end_ns");
    w.Number(s.end_ns);
    w.Key("parent");
    w.Number(static_cast<int64_t>(s.parent));
    w.Key("items");
    w.Number(s.items);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
