// Unit tests for the observability layer: metrics registry, tracer ring,
// Chrome JSON export, JSON writer, bench report schema, VsPaper rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/report.h"
#include "src/obs/tracer.h"

namespace neve {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CounterFindOrCreateAndAccumulate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("cpu.traps_to_el2"), nullptr);
  reg.Counter("cpu.traps_to_el2").Add();
  reg.Counter("cpu.traps_to_el2").Add(4);
  const MetricCounter* c = reg.FindCounter("cpu.traps_to_el2");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 5u);
}

TEST(MetricsTest, CounterReferencesAreStable) {
  MetricsRegistry reg;
  MetricCounter& cached = reg.Counter("a");
  // Creating many more metrics must not invalidate the cached reference.
  for (int i = 0; i < 100; ++i) {
    reg.Counter("b" + std::to_string(i)).Add();
  }
  cached.Add(7);
  EXPECT_EQ(reg.FindCounter("a")->value(), 7u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  reg.Gauge("gic.pending").Set(3);
  reg.Gauge("gic.pending").Set(1.5);
  EXPECT_DOUBLE_EQ(reg.FindGauge("gic.pending")->value(), 1.5);
}

TEST(MetricsTest, HistogramTracksExactMinMaxMean) {
  MetricHistogram h;
  h.Record(100);
  h.Record(300);
  h.Record(200);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(MetricsTest, HistogramEmptyIsAllZero) {
  MetricHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  MetricHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0u);
}

TEST(MetricsTest, HistogramZeroSampleLandsInBucketZero) {
  MetricHistogram h;
  h.Record(0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
}

TEST(MetricsTest, HistogramPercentilesAreLog2UpperBounds) {
  MetricHistogram h;
  // 99 samples in [2^3, 2^4) and one huge outlier.
  for (int i = 0; i < 99; ++i) {
    h.Record(10);
  }
  h.Record(1 << 20);
  // p50/p95 fall in the bucket holding 10 -> upper bound 2^4 - 1 territory.
  EXPECT_LE(h.Percentile(50), 15u);
  EXPECT_GE(h.Percentile(50), 10u);
  EXPECT_LE(h.Percentile(95), 15u);
  // p100 must reach the outlier's bucket.
  EXPECT_GE(h.Percentile(100), 1u << 19);
}

TEST(MetricsTest, HistogramPercentileClampsToObservedExtremes) {
  // The log2 bucket upper bound can overshoot badly for sparse histograms:
  // a single sample of 1000 lands in the [512, 1023] bucket, whose upper
  // bound is 1023. Percentile must clamp to the observed max (and min), not
  // report a value never recorded.
  MetricHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.Percentile(50), 1000u);
  EXPECT_EQ(h.Percentile(99), 1000u);
  MetricHistogram multi;
  multi.Record(100);
  multi.Record(120);
  multi.Record(90);
  EXPECT_EQ(multi.Percentile(0), 90u) << "p0 is the observed minimum";
  EXPECT_EQ(multi.Percentile(100), 120u) << "p100 is the observed maximum";
  EXPECT_GE(multi.Percentile(50), 90u);
  EXPECT_LE(multi.Percentile(50), 120u);
}

TEST(MetricsTest, HistogramPercentileEmptyIsZero) {
  MetricHistogram h;
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 0u);
  }
}

TEST(MetricsTest, HistogramPercentileBoundaryArguments) {
  // NaN fails both range guards, so without explicit handling it reaches a
  // float->uint64 cast whose behaviour is undefined. It must degrade to the
  // median, and out-of-range finite arguments must clamp to the extremes.
  MetricHistogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(h.Percentile(nan), h.Percentile(50));
  EXPECT_EQ(h.Percentile(-5.0), 10u);
  EXPECT_EQ(h.Percentile(250.0), 30u);
  EXPECT_EQ(h.Percentile(std::numeric_limits<double>::infinity()), 30u);
  EXPECT_EQ(h.Percentile(-std::numeric_limits<double>::infinity()), 10u);
  MetricHistogram empty;
  EXPECT_EQ(empty.Percentile(nan), 0u);
}

TEST(MetricsTest, HistogramSingleSampleIsEveryPercentile) {
  MetricHistogram h;
  h.Record(7);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 7u) << "p" << p;
  }
}

TEST(MetricsTest, ExemplarLinksPercentileToTraceEvent) {
  MetricHistogram h;
  h.RecordWithExemplar(10, 41);
  h.RecordWithExemplar(12, 42);   // same log2 bucket: latest exemplar wins
  h.RecordWithExemplar(5000, 77); // outlier in its own bucket
  std::optional<uint64_t> p50 = h.PercentileExemplar(50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 42u);
  std::optional<uint64_t> p100 = h.PercentileExemplar(100);
  ASSERT_TRUE(p100.has_value());
  EXPECT_EQ(*p100, 77u);
}

TEST(MetricsTest, ExemplarEmptyHistogramIsNullopt) {
  MetricHistogram h;
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_FALSE(h.PercentileExemplar(p).has_value()) << "p" << p;
  }
}

TEST(MetricsTest, ExemplarSingleSampleCoversEveryPercentile) {
  MetricHistogram h;
  h.RecordWithExemplar(7, 9);
  for (double p : {0.0, 50.0, 100.0}) {
    std::optional<uint64_t> ex = h.PercentileExemplar(p);
    ASSERT_TRUE(ex.has_value()) << "p" << p;
    EXPECT_EQ(*ex, 9u);
  }
  EXPECT_EQ(h.BucketExemplar(3), 9u);  // bit_width(7) == 3
}

TEST(MetricsTest, ExemplarIdZeroRecordsSampleButNoExemplar) {
  // Trace ID 0 means "no event" (tracing disabled): the sample must count,
  // but a real exemplar must not be displaced and none must be invented.
  MetricHistogram h;
  h.RecordWithExemplar(10, 0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_FALSE(h.PercentileExemplar(50).has_value());
  h.RecordWithExemplar(10, 5);
  h.RecordWithExemplar(10, 0);
  std::optional<uint64_t> ex = h.PercentileExemplar(50);
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(*ex, 5u);
}

TEST(MetricsTest, SummarizeMatchesAccessors) {
  MetricHistogram h;
  for (uint64_t v : {5u, 9u, 17u, 33u}) {
    h.Record(v);
  }
  MetricHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.sum, h.sum());
  EXPECT_EQ(s.min, h.min());
  EXPECT_EQ(s.max, h.max());
  EXPECT_EQ(s.p50, h.Percentile(50));
  EXPECT_EQ(s.p95, h.Percentile(95));
  EXPECT_EQ(s.p99, h.Percentile(99));
}

TEST(MetricsTest, TextReportListsEveryKind) {
  MetricsRegistry reg;
  reg.Counter("cpu.traps_to_el2").Add(42);
  reg.Gauge("x.level").Set(2.5);
  reg.Histogram("cpu.episode_cycles").Record(1000);
  std::string out = reg.TextReport();
  EXPECT_NE(out.find("cpu.traps_to_el2"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("x.level"), std::string::npos);
  EXPECT_NE(out.find("cpu.episode_cycles"), std::string::npos);
}

// --- Metric handles ----------------------------------------------------------

TEST(MetricRefTest, BindsOnFirstUseNotAtConstruction) {
  MetricsRegistry reg;
  CounterRef traps("cpu.traps_to_el2");
  HistogramRef episodes("cpu.trap_episode_cycles");
  // A handle that was never used registers nothing, so reports do not list
  // zero-valued metrics the run never touched.
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.histograms().empty());
  traps.In(reg).Add(2);
  traps.In(reg).Add(3);
  episodes.In(reg).Record(100);
  ASSERT_NE(reg.FindCounter("cpu.traps_to_el2"), nullptr);
  EXPECT_EQ(reg.FindCounter("cpu.traps_to_el2")->value(), 5u);
  ASSERT_NE(reg.FindHistogram("cpu.trap_episode_cycles"), nullptr);
  EXPECT_EQ(reg.FindHistogram("cpu.trap_episode_cycles")->count(), 1u);
}

TEST(MetricRefTest, SharesTheMetricALookupByNameReturns) {
  MetricsRegistry reg;
  reg.Counter("gic.phys_sgis").Add(4);
  CounterRef sgis("gic.phys_sgis");
  EXPECT_EQ(&sgis.In(reg), &reg.Counter("gic.phys_sgis"));
  sgis.In(reg).Add(1);
  EXPECT_EQ(reg.FindCounter("gic.phys_sgis")->value(), 5u);
}

TEST(MetricRefTest, RebindsWhenUsedWithAnotherRegistry) {
  MetricsRegistry a;
  MetricsRegistry b;
  EXPECT_NE(a.serial(), b.serial());
  CounterRef c("virtio.kicks");
  c.In(a).Add(1);
  c.In(b).Add(10);
  c.In(a).Add(2);
  ASSERT_NE(a.FindCounter("virtio.kicks"), nullptr);
  ASSERT_NE(b.FindCounter("virtio.kicks"), nullptr);
  EXPECT_EQ(a.FindCounter("virtio.kicks")->value(), 3u);
  EXPECT_EQ(b.FindCounter("virtio.kicks")->value(), 10u);
}

TEST(MetricRefTest, RegistryAtAReusedAddressIsANewRegistry) {
  // A handle must not mistake a registry built where its last one died for
  // that registry: the metric it bound to went with the old one.
  std::optional<MetricsRegistry> reg;
  reg.emplace();
  uint64_t first = reg->serial();
  CounterRef c("cpu.vncr_redirects");
  c.In(*reg).Add(7);
  reg.reset();
  reg.emplace();
  EXPECT_NE(reg->serial(), first);
  EXPECT_NE(reg->serial(), 0u);
  EXPECT_EQ(reg->FindCounter("cpu.vncr_redirects"), nullptr);
  c.In(*reg).Add(1);
  ASSERT_NE(reg->FindCounter("cpu.vncr_redirects"), nullptr);
  EXPECT_EQ(reg->FindCounter("cpu.vncr_redirects")->value(), 1u);
}

// --- Tracer ------------------------------------------------------------------

// Minimal stand-in for a Cpu: the span template only needs cycles()/index().
// Spans reach the tracer only through ScopedSpan.
struct FakeClock {
  uint64_t cycles() const { return now; }
  int index() const { return 3; }
  uint64_t now = 0;
};

TEST(TracerTest, RecordsInOrder) {
  Observability obs;
  obs.set_enabled(true);
  FakeClock clock;
  {
    clock.now = 100;
    ScopedSpan span(&obs, clock, "trap", "hvc");
    obs.tracer().Instant(clock.index(), "vncr", "redirect", 150, "reg", 7);
    clock.now = 200;
  }
  const Tracer& t = obs.tracer();
  auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].phase, TracePhase::kInstant);
  EXPECT_EQ(events[1].arg, 7u);
  EXPECT_EQ(events[2].phase, TracePhase::kEnd);
  EXPECT_EQ(events[2].ts, 200u);
  EXPECT_EQ(t.dropped_events(), 0u);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  static constexpr const char* kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                           "e5", "e6", "e7", "e8", "e9"};
  Tracer t(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    t.Instant(0, "c", kNames[i], static_cast<uint64_t>(i));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped_events(), 6u);
  auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot: the survivors are events 6..9.
  EXPECT_EQ(std::string_view(events.front().name), "e6");
  EXPECT_EQ(std::string_view(events.back().name), "e9");
  EXPECT_EQ(events.front().id, 7u);
  EXPECT_EQ(events.back().id, 10u);
}

TEST(TracerTest, EventIdsAreMonotonicFromOne) {
  Observability obs;
  obs.set_enabled(true);
  FakeClock clock;
  {
    ScopedSpan hvc(&obs, clock, "trap", "hvc");
    EXPECT_EQ(hvc.id(), 1u);
    EXPECT_EQ(obs.tracer().Instant(0, "vncr", "redirect", 20), 2u);
    ScopedSpan wfx(&obs, clock, "trap", "wfx");
    EXPECT_EQ(wfx.id(), 3u);
  }
  auto events = obs.tracer().Snapshot();
  ASSERT_EQ(events.size(), 5u);  // the two End events, wfx's first
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[2].id, 3u);
  EXPECT_EQ(std::string_view(events[3].name), "wfx");
  EXPECT_EQ(events[4].id, 5u);
}

TEST(TracerTest, DropCounterMirrorsRingOverwrites) {
  MetricsRegistry reg;
  Tracer t(/*capacity=*/2);
  t.SetDropCounter(&reg.Counter("obs.trace_dropped_events"));
  for (int i = 0; i < 5; ++i) {
    t.Instant(0, "c", "e", static_cast<uint64_t>(i));
  }
  EXPECT_EQ(t.dropped_events(), 3u);
  EXPECT_EQ(reg.FindCounter("obs.trace_dropped_events")->value(), 3u);
}

TEST(TracerTest, ObservabilityWiresTheDropCounter) {
  Observability obs;
  obs.set_enabled(true);
  // The default ring is large; fill past capacity via the tracer directly.
  for (size_t i = 0; i < Tracer::kDefaultCapacity + 3; ++i) {
    obs.tracer().Instant(0, "c", "e", i);
  }
  const MetricCounter* c = obs.metrics().FindCounter("obs.trace_dropped_events");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3u);
}

TEST(TracerTest, ChromeJsonReportsDroppedCount) {
  Tracer t(/*capacity=*/2);
  for (int i = 0; i < 6; ++i) {
    t.Instant(0, "c", "e", static_cast<uint64_t>(i));
  }
  std::string json = t.ToChromeJson();
  EXPECT_NE(json.find("\"dropped_events\":4"), std::string::npos);
}

TEST(TracerTest, OpenSpansStayExactWhenTheRingWraps) {
  Observability obs(/*trace_capacity=*/4);
  obs.set_enabled(true);
  FakeClock clock;
  {
    ScopedSpan outer(&obs, clock, "trap", "hvc");
    for (uint64_t i = 0; i < 6; ++i) {
      ScopedSpan inner(&obs, clock, "world_switch", "save_el1");
      obs.tracer().Instant(clock.index(), "gic", "virtual_ack", i);
    }
    // 19 events through a 4-slot ring: outer's Begin is long gone.
    EXPECT_GT(obs.tracer().dropped_events(), 0u);
    EXPECT_EQ(obs.tracer().open_spans(), 1);
  }
  EXPECT_EQ(obs.tracer().open_spans(), 0);
}

TEST(TracerTest, ClearEmptiesRing) {
  Tracer t(4);
  t.Instant(0, "c", "x", 1);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.Snapshot().empty());
}

TEST(TracerTest, ChromeJsonShape) {
  Observability obs;
  obs.set_enabled(true);
  FakeClock clock;
  {
    clock.now = 1000;
    ScopedSpan span(&obs, clock, "world_switch", "save_el1");
    clock.now = 1500;
  }
  obs.tracer().Instant(0, "gic", "virtual_ack", 1700, "intid", 27);
  std::string json = obs.tracer().ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);  // CPU -> track
  EXPECT_NE(json.find("\"cat\":\"world_switch\""), std::string::npos);
  EXPECT_NE(json.find("\"intid\":27"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
}

// --- Observability / ScopedSpan ----------------------------------------------

TEST(ObservabilityTest, DisabledByDefaultAndNullSafe) {
  Observability obs;
  EXPECT_FALSE(obs.enabled());
  EXPECT_FALSE(ObsActive(&obs));
  EXPECT_FALSE(ObsActive(nullptr));
  obs.set_enabled(true);
  EXPECT_TRUE(ObsActive(&obs));
}

TEST(ObservabilityTest, ScopedSpanEmitsBalancedPair) {
  Observability obs;
  obs.set_enabled(true);
  FakeClock clock;
  {
    clock.now = 10;
    ScopedSpan span(&obs, clock, "trap", "hvc");
    clock.now = 90;
  }
  auto events = obs.tracer().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[0].cpu, 3);
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_EQ(events[1].ts, 90u);
}

TEST(ObservabilityTest, ScopedSpanCapturesEnableAtConstruction) {
  Observability obs;
  obs.set_enabled(true);
  FakeClock clock;
  {
    ScopedSpan span(&obs, clock, "trap", "hvc");
    obs.set_enabled(false);  // toggled mid-span: the End still fires
  }
  EXPECT_EQ(obs.tracer().size(), 2u);
  obs.tracer().Clear();
  {
    ScopedSpan span(&obs, clock, "trap", "hvc");  // begun while disabled
    obs.set_enabled(true);
  }
  EXPECT_EQ(obs.tracer().size(), 0u);
}

TEST(ObservabilityTest, DisabledSpanRecordsNothing) {
  Observability obs;
  FakeClock clock;
  {
    ScopedSpan span(&obs, clock, "trap", "hvc");
    EXPECT_EQ(span.id(), 0u);
  }
  { ScopedSpan span(nullptr, clock, "trap", "hvc"); }
  EXPECT_EQ(obs.tracer().size(), 0u);
}

// --- JsonWriter --------------------------------------------------------------

TEST(JsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("table7");
  w.Key("values");
  w.BeginArray();
  w.Number(int64_t{1});
  w.Number(2.5);
  w.Null();
  w.Bool(true);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"name\":\"table7\",\"values\":[1,2.5,null,true]}");
}

TEST(JsonWriterTest, EscapesControlCharsAndQuotes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\n\t");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\n\\t\"}");
}

// --- DeltaPct / BenchReport --------------------------------------------------

TEST(ReportTest, DeltaPctBasics) {
  ASSERT_TRUE(DeltaPct(110, 100).has_value());
  EXPECT_DOUBLE_EQ(*DeltaPct(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(*DeltaPct(90, 100), -10.0);
  EXPECT_FALSE(DeltaPct(90, std::nullopt).has_value());
  EXPECT_FALSE(DeltaPct(90, 0.0).has_value());  // no baseline -> n/a
}

TEST(ReportTest, DeltaPctUsesBaselineMagnitude) {
  // A negative reference (e.g. a paper speedup expressed as negative
  // overhead) must not flip the delta's sign: the divisor is |paper|, so
  // "measured above the reference" is always positive.
  ASSERT_TRUE(DeltaPct(-50, -100).has_value());
  EXPECT_DOUBLE_EQ(*DeltaPct(-50, -100), 50.0);
  EXPECT_DOUBLE_EQ(*DeltaPct(-150, -100), -50.0);
}

TEST(ReportTest, JsonContainsSchemaAndEntries) {
  BenchReport report("table7_trap_counts", "traps/op", "Table 7");
  report.Add("Hypercall", "ARMv8.3 Nested", 125, 126, 125);
  report.Add("Hypercall", "NEVE Nested", 14);
  report.AddMetric("ratio", 8.9);
  MetricHistogram h;
  h.Record(4000);
  report.AddHistogram("cpu.trap_episode_cycles", h.Summarize());
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"table7_trap_counts\""), std::string::npos);
  EXPECT_NE(json.find("\"units\":\"traps/op\""), std::string::npos);
  EXPECT_NE(json.find("\"paper\":126"), std::string::npos);
  EXPECT_NE(json.find("\"delta_pct\":"), std::string::npos);
  EXPECT_NE(json.find("\"paper\":null"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":8.9"), std::string::npos);
  EXPECT_NE(json.find("\"cpu.trap_episode_cycles\""), std::string::npos);
}

TEST(ReportTest, AddRegistryCopiesCountersAndHistograms) {
  MetricsRegistry reg;
  reg.Counter("virtio.kicks").Add(12);
  reg.Histogram("cpu.trap_episode_cycles").Record(5000);
  BenchReport report("virtio_notify", "kicks", "section 7.2");
  report.AddRegistry(reg);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"virtio.kicks\":12"), std::string::npos);
  EXPECT_NE(json.find("\"cpu.trap_episode_cycles\""), std::string::npos);
}

// --- bench_util --------------------------------------------------------------

TEST(BenchUtilTest, VsPaperWithBaselineShowsDelta) {
  EXPECT_EQ(VsPaper(110, 100), "110 (paper 100, +10%)");
  EXPECT_EQ(VsPaper(90, 100), "90 (paper 100, -10%)");
}

TEST(BenchUtilTest, VsPaperWithoutBaselineIsNa) {
  EXPECT_EQ(VsPaper(125, 0), "125 (paper 0, n/a)");
}

TEST(BenchUtilTest, JsonOutPathParsesFlag) {
  char prog[] = "bench";
  char flag[] = "--json=out/B.json";
  char other[] = "--verbose";
  char* argv1[] = {prog, flag};
  EXPECT_EQ(JsonOutPath(2, argv1), "out/B.json");
  char* argv2[] = {prog, other};
  EXPECT_EQ(JsonOutPath(2, argv2), "");
  EXPECT_EQ(JsonOutPath(1, argv1), "");
}

}  // namespace
}  // namespace neve
