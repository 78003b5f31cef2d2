// Tests for the dcc_telemetry subsystem: metrics registry semantics
// (find-or-create, label canonicalization, type conflicts, snapshot
// isolation, exporters, callback gauges) and the query-lifecycle tracer
// (ring bounding, trace-id composition, completeness, reports), plus an
// end-to-end scenario run asserting a benign query's full path can be
// reconstructed from the trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "tests/example_specs.h"

namespace dcc {
namespace telemetry {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", {{"outcome", "ok"}});
  Counter* b = registry.GetCounter("requests_total", {{"outcome", "ok"}});
  EXPECT_EQ(a, b);  // Same (name, labels) -> same instrument.
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);

  Counter* other = registry.GetCounter("requests_total", {{"outcome", "fail"}});
  EXPECT_NE(a, other);  // Distinct label set -> distinct instrument.
  EXPECT_EQ(registry.InstrumentCount(), 2u);
}

TEST(MetricsRegistryTest, LabelsAreOrderInsensitive) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("m", {{"x", "1"}, {"y", "2"}});
  Counter* b = registry.GetCounter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.InstrumentCount(), 1u);
  a->Inc();
  // Lookup helpers canonicalize too.
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("m", {{"y", "2"}, {"x", "1"}}), 1.0);
}

TEST(MetricsRegistryTest, TypeConflictHandsOutDetachedDummy) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("m");
  counter->Inc(5);
  // Requesting the same family name as a different type must not crash and
  // must not disturb the existing instrument.
  Gauge* gauge = registry.GetGauge("m");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(99);
  HistogramMetric* histogram = registry.GetHistogram("m");
  ASSERT_NE(histogram, nullptr);
  histogram->Observe(1.0);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 5.0);
  EXPECT_EQ(registry.InstrumentCount(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsIsolatedFromLaterMutation) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("m");
  counter->Inc(3);
  const MetricsSnapshot snap = registry.Snapshot();
  counter->Inc(100);
  EXPECT_DOUBLE_EQ(snap.Value("m", {}), 3.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("m", {}), 103.0);
}

TEST(MetricsRegistryTest, SumAddsAcrossLabelSets) {
  MetricsRegistry registry;
  registry.GetCounter("m", {{"k", "a"}})->Inc(2);
  registry.GetCounter("m", {{"k", "b"}})->Inc(5);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Sum("m"), 7.0);
  EXPECT_DOUBLE_EQ(snap.Sum("absent"), 0.0);
  EXPECT_DOUBLE_EQ(snap.Value("m", {{"k", "b"}}), 5.0);
  EXPECT_DOUBLE_EQ(snap.Value("m", {{"k", "c"}}, -1.0), -1.0);
  EXPECT_EQ(snap.Find("m", {{"k", "c"}}), nullptr);
}

TEST(MetricsRegistryTest, PrometheusExportFormat) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", {{"outcome", "ok"}}, "Total requests.")
      ->Inc(3);
  registry.GetGauge("depth", {}, "Queue depth.")->Set(4.5);
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# HELP requests_total Total requests.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{outcome=\"ok\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 4.5\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramSeries) {
  MetricsRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("latency_us");
  histogram->Observe(10);
  histogram->Observe(100);
  histogram->Observe(1000);
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# TYPE latency_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_sum "), std::string::npos);
}

TEST(MetricsRegistryTest, JsonLinesExport) {
  MetricsRegistry registry;
  registry.GetCounter("m", {{"k", "v"}})->Inc(2);
  registry.GetHistogram("h")->Observe(7);
  const std::string text = registry.ExportJsonLines();
  EXPECT_NE(text.find("{\"name\":\"m\",\"type\":\"counter\","
                      "\"labels\":{\"k\":\"v\"},\"value\":2}\n"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"h\",\"type\":\"histogram\""),
            std::string::npos);
  EXPECT_NE(text.find("\"count\":1"), std::string::npos);
  // One JSON object per line, nothing else.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(MetricsRegistryTest, CallbackGaugeSamplesLiveAndFreezes) {
  MetricsRegistry registry;
  double live = 7;
  registry.GetCallbackGauge("mem_bytes", [&live] { return live; });
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("mem_bytes", {}), 7.0);
  live = 9;
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("mem_bytes", {}), 9.0);
  // A second source of the same instrument adds to it (two components
  // registering one unlabelled gauge report their sum); counters too.
  registry.GetCallbackGauge("mem_bytes", [] { return 1.0; });
  uint64_t tally = 4;
  registry.GetCallbackCounter("ops_total", [&tally] { return double(tally); });
  registry.GetCallbackCounter("ops_total", [] { return 2.0; })->Inc(3);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("mem_bytes", {}), 10.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("ops_total", {}), 9.0);
  registry.FreezeCallbacks();
  live = 11;  // After the freeze the sources are gone; values stay pinned.
  tally = 40;
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("mem_bytes", {}), 10.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Value("ops_total", {}), 9.0);
}

// --- QueryTracer -------------------------------------------------------------

TEST(QueryTracerTest, TraceIdComposesAddressPortAndDnsId) {
  EXPECT_EQ(MakeTraceId(0x0a000001, 0x1234, 0xabcd), 0x0a0000011234abcdULL);
  EXPECT_EQ(MakeTraceId(0, 0, 1), 1ULL);
  EXPECT_NE(MakeTraceId(1, 2, 3), MakeTraceId(1, 3, 2));
}

TEST(QueryTracerTest, RingKeepsMostRecentWindow) {
  QueryTracer tracer(4);
  for (int i = 1; i <= 10; ++i) {
    tracer.Record(static_cast<uint64_t>(i), SpanKind::kStubSend, i * 100);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<SpanEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 7..10 survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 7 + i);
    EXPECT_EQ(events[i].at, static_cast<Time>((7 + i) * 100));
  }
}

TEST(QueryTracerTest, EventsForFiltersOneTraceInOrder) {
  QueryTracer tracer(16);
  tracer.Record(1, SpanKind::kStubSend, 10);
  tracer.Record(2, SpanKind::kStubSend, 11);
  tracer.Record(1, SpanKind::kResolverIngress, 20, 0x0a000002);
  tracer.Record(1, SpanKind::kClientReceive, 30, 0, 1);
  const std::vector<SpanEvent> events = tracer.EventsFor(1);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, SpanKind::kStubSend);
  EXPECT_EQ(events[1].kind, SpanKind::kResolverIngress);
  EXPECT_EQ(events[1].actor, 0x0a000002u);
  EXPECT_EQ(events[2].kind, SpanKind::kClientReceive);
  EXPECT_EQ(events[2].detail, 1);
}

TEST(QueryTracerTest, CompleteTracesNeedSendAndReceive) {
  QueryTracer tracer(16);
  tracer.Record(1, SpanKind::kStubSend, 10);
  tracer.Record(1, SpanKind::kClientReceive, 40);
  tracer.Record(2, SpanKind::kStubSend, 20);  // No receive.
  tracer.Record(3, SpanKind::kClientReceive, 30);  // Receive without send.
  const std::vector<uint64_t> complete = tracer.CompleteTraceIds();
  ASSERT_EQ(complete.size(), 1u);
  EXPECT_EQ(complete[0], 1u);
}

TEST(QueryTracerTest, RingWrapKeepsInterleavedTracesInRecordOrder) {
  QueryTracer tracer(6);
  // Two traces interleaved across a wrap: A at even steps, B at odd ones.
  for (int i = 0; i < 10; ++i) {
    tracer.Record(i % 2 == 0 ? 100 : 200, SpanKind::kResolverIngress,
                  (i + 1) * 10, 0, i);
  }
  EXPECT_EQ(tracer.dropped(), 4u);
  // The eviction must have taken the oldest events of BOTH traces, and the
  // per-trace views stay in record order with no gaps re-ordered.
  const std::vector<SpanEvent> a = tracer.EventsFor(100);
  const std::vector<SpanEvent> b = tracer.EventsFor(200);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(a.front().detail, 4);  // Steps 0 and 2 evicted.
  EXPECT_EQ(b.front().detail, 5);  // Steps 1 and 3 evicted.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].at, a[i - 1].at);
  }
  for (size_t i = 1; i < b.size(); ++i) {
    EXPECT_GT(b[i].at, b[i - 1].at);
  }
}

// The stage-by-stage report of `trace_id` as the tracer's window holds it;
// empty when nothing of the trace is retained.
std::string ReportOf(const QueryTracer& tracer, uint64_t trace_id) {
  for (const SpanTree& tree :
       BuildSpanTrees(tracer.Events(), tracer.ring_state())) {
    if (tree.trace_id == trace_id) {
      return RenderReport(tree);
    }
  }
  return "";
}

TEST(QueryTracerTest, PossiblyTruncatedFlagsEvictedHead) {
  QueryTracer tracer(4);
  tracer.Record(1, SpanKind::kStubSend, 10);
  tracer.Record(1, SpanKind::kResolverIngress, 20);
  EXPECT_FALSE(tracer.PossiblyTruncated(1));  // Nothing dropped yet.
  tracer.Record(1, SpanKind::kClientReceive, 30, 0, 1);
  tracer.Record(2, SpanKind::kStubSend, 40);
  tracer.Record(2, SpanKind::kResolverIngress, 50);  // Evicts 1's stub_send.
  tracer.Record(2, SpanKind::kClientReceive, 60, 0, 1);

  // Trace 1's retained window now opens mid-lifecycle: its head is gone.
  EXPECT_TRUE(tracer.PossiblyTruncated(1));
  // Trace 2 still opens with its stub send, so it is provably whole.
  EXPECT_FALSE(tracer.PossiblyTruncated(2));
  // A trace with nothing retained is indistinguishable from a fully evicted
  // one once drops happened.
  EXPECT_TRUE(tracer.PossiblyTruncated(777));
}

TEST(QueryTracerTest, CompleteTraceIdsAndReportAcrossWrap) {
  QueryTracer tracer(4);
  tracer.Record(1, SpanKind::kStubSend, 10);
  tracer.Record(1, SpanKind::kClientReceive, 20, 0, 1);
  tracer.Record(2, SpanKind::kStubSend, 30);
  tracer.Record(2, SpanKind::kClientReceive, 40, 0, 1);
  ASSERT_EQ(tracer.CompleteTraceIds().size(), 2u);

  // A third trace wraps the ring and eats trace 1 entirely plus trace 2's
  // send: neither may claim completeness afterwards.
  tracer.Record(3, SpanKind::kStubSend, 50);
  tracer.Record(3, SpanKind::kResolverIngress, 60);
  tracer.Record(3, SpanKind::kClientReceive, 70, 0, 1);
  const std::vector<uint64_t> complete = tracer.CompleteTraceIds();
  ASSERT_EQ(complete.size(), 1u);
  EXPECT_EQ(complete[0], 3u);

  // The breakdown of the beheaded trace says so instead of silently looking
  // like a receive-only lifecycle.
  const std::string report = ReportOf(tracer, 2);
  EXPECT_NE(report.find("[TRUNCATED"), std::string::npos);
  EXPECT_EQ(ReportOf(tracer, 3).find("[TRUNCATED"), std::string::npos);
  EXPECT_TRUE(ReportOf(tracer, 1).empty());
}

TEST(QueryTracerTest, SpanKindNamesRoundTrip) {
  for (int k = 0; k < kSpanKindCount; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    SpanKind parsed;
    ASSERT_TRUE(SpanKindFromName(SpanKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  SpanKind parsed;
  EXPECT_FALSE(SpanKindFromName("not_a_span", &parsed));
  EXPECT_FALSE(SpanKindFromName("", &parsed));
}

TEST(QueryTracerTest, ExportJsonLinesRendersSpans) {
  QueryTracer tracer(16);
  tracer.Record(MakeTraceId(0x0a000001, 5353, 7), SpanKind::kStubSend, 123,
                0x0a000001);
  const std::string text = tracer.ExportJsonLines();
  // The ring state leads, so offline readers see what was evicted.
  EXPECT_EQ(text.rfind("{\"ring\":{\"dropped\":0,\"last_evicted_us\":0}}\n", 0),
            0u);
  EXPECT_NE(text.find("\"trace_id\":\"0a00000114e90007\""), std::string::npos);
  EXPECT_NE(text.find("\"ts_us\":123"), std::string::npos);
  EXPECT_NE(text.find("\"span\":\"stub_send\""), std::string::npos);
  EXPECT_NE(text.find("\"actor\":\"10.0.0.1\""), std::string::npos);
}

TEST(QueryTracerTest, WrappedRingExportsOldestFirst) {
  QueryTracer tracer(3);
  for (int i = 1; i <= 10; ++i) {
    tracer.Record(static_cast<uint64_t>(i), SpanKind::kStubSend, i * 100);
  }
  EXPECT_EQ(tracer.dropped(), 7u);
  const std::string text = tracer.ExportJsonLines();
  EXPECT_EQ(text.rfind("{\"ring\":{\"dropped\":7,\"last_evicted_us\":700}}\n", 0),
            0u)
      << text;
  const size_t eight = text.find("\"ts_us\":800,");
  const size_t nine = text.find("\"ts_us\":900,");
  const size_t ten = text.find("\"ts_us\":1000,");
  ASSERT_NE(eight, std::string::npos) << text;
  ASSERT_NE(nine, std::string::npos) << text;
  ASSERT_NE(ten, std::string::npos) << text;
  EXPECT_LT(eight, nine);
  EXPECT_LT(nine, ten);
  EXPECT_EQ(text.find("\"ts_us\":700,"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

// The dotted quad as printf renders it.
std::string PrintfAddress(uint32_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

// The trace export rendered with printf format strings: the reference the
// to_chars writer must match byte for byte.
std::string PrintfTraceExport(const QueryTracer& tracer) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"ring\":{\"dropped\":%" PRIu64 ",\"last_evicted_us\":%" PRId64
                "}}\n",
                tracer.dropped(), tracer.ring_state().last_evicted_at);
  std::string out = buf;
  for (const SpanEvent& event : tracer.Events()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"trace_id\":\"%016" PRIx64 "\",\"ts_us\":%" PRId64
                  ",\"span\":\"%s\",\"actor\":\"%s\",\"detail\":%d"
                  ",\"span_id\":%u,\"parent_span_id\":%u,\"peer\":\"%s\"}\n",
                  event.trace_id, event.at, SpanKindName(event.kind),
                  PrintfAddress(event.actor).c_str(), event.detail,
                  event.span_id, event.parent_span_id,
                  PrintfAddress(event.peer).c_str());
    out += buf;
  }
  return out;
}

TEST(QueryTracerTest, ExportMatchesPrintfOnEdgeValues) {
  constexpr uint32_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  constexpr int32_t kMinI32 = std::numeric_limits<int32_t>::min();
  const uint32_t addresses[] = {0, kMaxU32, 0x0a000001, 0x7f00ff01};
  const uint64_t trace_ids[] = {0, 1, 0x0a00000114e90007ull,
                                std::numeric_limits<uint64_t>::max()};
  const int32_t details[] = {0, kMinI32, std::numeric_limits<int32_t>::max(),
                             -1, 7};
  const uint32_t span_ids[] = {0, kClientSpanId, 1234567, kMaxU32};
  const Time times[] = {std::numeric_limits<Time>::max(),
                        std::numeric_limits<Time>::min(), 0, 1000003};
  QueryTracer tracer(5);
  for (int i = 0; i < 13; ++i) {  // Wraps the ring twice.
    tracer.Record(trace_ids[i % 4], static_cast<SpanKind>(i % kSpanKindCount),
                  times[(i + 1) % 4], addresses[i % 4], details[i % 5], span_ids[i % 4],
                  span_ids[(i + 1) % 4], addresses[(i + 1) % 4]);
  }
  ASSERT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.ExportJsonLines(), PrintfTraceExport(tracer));

  QueryTracer empty(4);
  EXPECT_EQ(empty.ExportJsonLines(), PrintfTraceExport(empty));
}

// kMaxLineBytes, which sizes the export's one reservation, is the longest
// line any span kind renders.
TEST(QueryTracerTest, MaxLineBytesIsTheWidestLine) {
  QueryTracer tracer(kSpanKindCount);
  for (int k = 0; k < kSpanKindCount; ++k) {
    tracer.Record(std::numeric_limits<uint64_t>::max(),
                  static_cast<SpanKind>(k), std::numeric_limits<Time>::min(),
                  0xffffffff, std::numeric_limits<int32_t>::min(),
                  0xffffffff, 0xffffffff, 0xffffffff);
  }
  const std::string text = tracer.ExportJsonLines();
  size_t widest = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = text.find('\n', pos) + 1;
    widest = std::max(widest, end - pos);
    pos = end;
  }
  EXPECT_EQ(widest, QueryTracer::kMaxLineBytes);
}

TEST(QueryTracerTest, ReportShowsOffsets) {
  QueryTracer tracer(16);
  tracer.Record(9, SpanKind::kStubSend, 100);
  tracer.Record(9, SpanKind::kResolverIngress, 150);
  tracer.Record(9, SpanKind::kClientReceive, 400);
  const std::string report = ReportOf(tracer, 9);
  EXPECT_NE(report.find("stub_send"), std::string::npos);
  EXPECT_NE(report.find("client_receive"), std::string::npos);
  EXPECT_NE(report.find("+     300 us (d    250)"), std::string::npos);
  EXPECT_NE(report.find("critical path: span 1 (300 us)"), std::string::npos);
  EXPECT_TRUE(ReportOf(tracer, 12345).empty());
}

TEST(QueryTracerTest, SpanKindNamesCoverAllStages) {
  for (int k = 0; k < kSpanKindCount; ++k) {
    EXPECT_STRNE(SpanKindName(static_cast<SpanKind>(k)), "?");
  }
}

// --- End-to-end: scenario run populates metrics and a full trace -------------

// Every span a run records survives ExportJsonLines -> ParseSpanJsonLine,
// the span reader of dcc_why; the ring-state line leads the dump.
TEST(TelemetryEndToEndTest, RecordedTraceRoundTripsThroughJsonLines) {
  scenario::ScenarioSpec spec = testing_specs::LoadExampleSpec("fig8_wc.json");
  testing_specs::TrimToHorizon(&spec, Seconds(3));
  TelemetrySink sink;
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  testing_specs::RunSpec(spec, hooks);

  const std::vector<SpanEvent> recorded = sink.trace.Events();
  ASSERT_FALSE(recorded.empty());
  const std::string text = sink.trace.ExportJsonLines();
  size_t pos = text.find('\n') + 1;
  RingState ring;
  ASSERT_TRUE(ParseRingStateLine(text.substr(0, pos - 1), &ring));
  EXPECT_EQ(ring.dropped, sink.trace.dropped());
  std::vector<SpanEvent> parsed;
  while (pos < text.size()) {
    const size_t end = text.find('\n', pos);
    SpanEvent event;
    std::string error;
    ASSERT_TRUE(ParseSpanJsonLine(text.substr(pos, end - pos), &event, &error))
        << error;
    parsed.push_back(event);
    pos = end + 1;
  }
  ASSERT_EQ(parsed.size(), recorded.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, recorded[i].trace_id) << i;
    EXPECT_EQ(parsed[i].at, recorded[i].at) << i;
    EXPECT_EQ(parsed[i].actor, recorded[i].actor) << i;
    EXPECT_EQ(parsed[i].kind, recorded[i].kind) << i;
    EXPECT_EQ(parsed[i].detail, recorded[i].detail) << i;
    EXPECT_EQ(parsed[i].span_id, recorded[i].span_id) << i;
    EXPECT_EQ(parsed[i].parent_span_id, recorded[i].parent_span_id) << i;
    EXPECT_EQ(parsed[i].peer, recorded[i].peer) << i;
  }

  SpanEvent event;
  std::string error;
  EXPECT_FALSE(ParseSpanJsonLine("{\"trace_id\":\"1\",\"span\":\"nope\"}",
                                 &event, &error));
  EXPECT_NE(error.find("unknown span kind"), std::string::npos);
  EXPECT_FALSE(ParseSpanJsonLine("{\"span\":\"stub_send\"}", &event, &error));
  EXPECT_FALSE(ParseSpanJsonLine("not json", &event, &error));
}

TEST(TelemetryEndToEndTest, ScenarioProducesMetricsAndCompleteTrace) {
  // The Fig. 8a DCC resolver with one light benign WC client.
  scenario::ScenarioSpec spec = testing_specs::LoadExampleSpec("fig8_wc.json");
  spec.clients.resize(1);
  spec.clients[0].label = "Benign";
  spec.clients[0].qps = 40;
  testing_specs::TrimToHorizon(&spec, Seconds(5));
  TelemetrySink sink;
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  testing_specs::RunSpec(spec, hooks);

  const MetricsSnapshot snap = sink.metrics.Snapshot();
  EXPECT_GT(snap.Sum("stub_requests_total"), 0.0);
  EXPECT_GT(snap.Sum("stub_latency_us"), 0.0);  // Histogram count.
  EXPECT_GT(snap.Value("dcc_scheduler_enqueue_total", {{"outcome", "SUCCESS"}}),
            0.0);
  // MemoryFootprint()-backed gauges were frozen by the runner and must
  // remain readable after the testbed died.
  EXPECT_GT(snap.Sum("dcc_memory_bytes"), 0.0);

  const std::vector<uint64_t> complete = sink.trace.CompleteTraceIds();
  ASSERT_FALSE(complete.empty());
  // At least one benign query must traverse the full path: stub -> resolver
  // -> policer -> scheduler -> egress -> auth -> back to the client, with
  // monotone timestamps (virtual clock).
  bool found_full_path = false;
  for (uint64_t id : complete) {
    const std::vector<SpanEvent> events = sink.trace.EventsFor(id);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, SpanKind::kStubSend);
    EXPECT_EQ(events.back().kind, SpanKind::kClientReceive);
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].at, events[i - 1].at);
    }
    bool stages[kSpanKindCount] = {};
    for (const SpanEvent& event : events) {
      stages[static_cast<int>(event.kind)] = true;
    }
    if (stages[static_cast<int>(SpanKind::kResolverIngress)] &&
        stages[static_cast<int>(SpanKind::kPolicerVerdict)] &&
        stages[static_cast<int>(SpanKind::kSchedulerEnqueue)] &&
        stages[static_cast<int>(SpanKind::kSchedulerDequeue)] &&
        stages[static_cast<int>(SpanKind::kEgress)] &&
        stages[static_cast<int>(SpanKind::kAuthResponse)]) {
      found_full_path = true;
      EXPECT_FALSE(ReportOf(sink.trace, id).empty());
    }
  }
  EXPECT_TRUE(found_full_path);
}

}  // namespace
}  // namespace telemetry
}  // namespace dcc
