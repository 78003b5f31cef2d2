// Tests for the decision-audit trail (src/telemetry/audit.h): the cause
// taxonomy round-trip, ring-buffer eviction accounting and its export,
// the JSONL export schema, and — the tentpole guarantees — that auditing a
// scenario never perturbs it (byte-identical outcomes off/on/off), that the
// audit stream itself replays byte-identically under a fixed seed (fig8
// resilience and the seeded fleet_blackout.json deliverable), that the
// reason-labeled SERVFAIL/policer counters reconcile with the aggregate
// outcome, and that synthesized SERVFAILs (DCC shim fail path, frontend
// budget denial) carry trace spans joinable from their audit records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/outcome_json.h"
#include "src/scenario/spec.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/observer.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "tests/example_specs.h"

namespace dcc {
namespace {

using telemetry::AuditCause;
using telemetry::AuditRecord;
using telemetry::DecisionAuditLog;

using testing_specs::Fig8NxSlice;
using testing_specs::LoadExampleSpec;

// The Fig. 8a WC flood, trimmed to the shortest horizon at which it
// congests the upstream channel and the shim starts synthesizing SERVFAILs
// (the ramp needs ~6 virtual seconds).
scenario::ScenarioSpec CongestedSpec() {
  scenario::ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
  spec.horizon = Seconds(8);
  return spec;
}

AuditRecord MakeRecord(AuditCause cause, Time at) {
  AuditRecord rec;
  rec.cause = cause;
  rec.at = at;
  return rec;
}

// --- taxonomy ---------------------------------------------------------------

TEST(AuditTaxonomyTest, CauseNamesRoundTripAndAreDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < telemetry::kAuditCauseCount; ++i) {
    const AuditCause cause = static_cast<AuditCause>(i);
    const char* name = telemetry::AuditCauseName(cause);
    ASSERT_NE(name, nullptr) << "ordinal " << i;
    const std::string text(name);
    // Dotted `component.cause` names are the JSONL schema and the metric
    // `reason` label values; a rename is a breaking change.
    EXPECT_NE(text.find('.'), std::string::npos) << text;
    EXPECT_TRUE(seen.insert(text).second) << "duplicate name " << text;
    AuditCause parsed;
    ASSERT_TRUE(telemetry::AuditCauseFromName(text, &parsed)) << text;
    EXPECT_EQ(parsed, cause) << text;
  }
  AuditCause parsed;
  EXPECT_FALSE(telemetry::AuditCauseFromName("no.such_cause", &parsed));
  EXPECT_FALSE(telemetry::AuditCauseFromName("", &parsed));
}

// --- ring accounting --------------------------------------------------------

TEST(AuditLogTest, RingEvictsOldestAndAccountsForDrops) {
  DecisionAuditLog log(/*capacity=*/4);
  for (int i = 0; i < 7; ++i) {
    log.Record(MakeRecord(AuditCause::kMopiQueueFull, /*at=*/i + 1));
  }
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 7u);
  EXPECT_EQ(log.dropped(), 3u);
  // Records() is oldest-first over the retained window: 4, 5, 6, 7.
  const std::vector<AuditRecord> records = log.Records();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].at, static_cast<Time>(i + 4));
  }
  // The histogram counts retained records only.
  const std::vector<uint64_t> histogram = log.CauseHistogram();
  ASSERT_EQ(histogram.size(),
            static_cast<size_t>(telemetry::kAuditCauseCount));
  EXPECT_EQ(histogram[static_cast<size_t>(AuditCause::kMopiQueueFull)], 4u);
}

TEST(AuditLogTest, ObserverExportsRingEvictionsAsReads) {
  telemetry::MetricsRegistry registry;
  DecisionAuditLog log(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeRecord(AuditCause::kPolicerBlocked, /*at=*/i + 1));
  }
  // Three evictions happened before any observer existed; the exported
  // counter reads dropped(), so it matches regardless of wiring order.
  telemetry::Observer obs(&registry, /*trace=*/nullptr, &log);
  telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Sum("audit_records_dropped_total"), 3.0);
  EXPECT_EQ(snapshot.Sum("audit_records_retained"), 2.0);
  // A decision writes one record and bumps its cause's counters once.
  obs.Decide({.cause = AuditCause::kPolicerBlocked, .at = 6, .qname = "x."});
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Sum("audit_records_dropped_total"), 4.0);
  EXPECT_EQ(log.dropped(), 4u);
  EXPECT_EQ(snapshot.Value("dcc_policer_rejects_total",
                           {{"reason", "policer.blocked"}}),
            1.0);
  EXPECT_EQ(snapshot.Value("dcc_servfails_synthesized_total",
                           {{"reason", "policer.blocked"}}),
            1.0);
  // Freezing pins the reads: later ring activity no longer shows.
  obs.Freeze();
  log.Record(MakeRecord(AuditCause::kPolicerBlocked, /*at=*/7));
  EXPECT_EQ(registry.Snapshot().Sum("audit_records_dropped_total"), 4.0);
}

// --- JSONL export -----------------------------------------------------------

TEST(AuditLogTest, ExportJsonLinesEmitsSchemaFields) {
  DecisionAuditLog log;
  AuditRecord rec;
  rec.at = 1500000;  // 1.5 virtual seconds.
  rec.cause = AuditCause::kMopiChannelCongested;
  rec.actor = 0x0a000003;
  rec.client = 0x0a000006;
  rec.channel = 0x0a000001;
  rec.trace_id = 0x0a00000600350042ull;
  rec.span_id = 7;
  rec.parent_span_id = 1;
  rec.observed = 12;
  rec.limit = 8;
  telemetry::SetAuditQname(rec, "x1.target-domain");
  log.Record(rec);

  const std::string jsonl = log.ExportJsonLines();
  EXPECT_NE(jsonl.find("\"ts_us\":1500000"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"cause\":\"mopi.channel_congested\""),
            std::string::npos)
      << jsonl;
  // trace_id is 16-hex, matching the trace JSONL encoding so the two
  // streams join verbatim.
  EXPECT_NE(jsonl.find("\"trace_id\":\"0a00000600350042\""), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"span_id\":7"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"qname\":\"x1.target-domain\""), std::string::npos)
      << jsonl;
  // The export is a pure function of the retained window.
  EXPECT_EQ(jsonl, log.ExportJsonLines());
}

TEST(AuditLogTest, WrappedRingExportsOldestFirst) {
  DecisionAuditLog log(/*capacity=*/3);
  for (int i = 1; i <= 10; ++i) {
    log.Record(MakeRecord(AuditCause::kMopiQueueFull, /*at=*/i));
  }
  EXPECT_EQ(log.dropped(), 7u);
  const std::string jsonl = log.ExportJsonLines();
  EXPECT_EQ(jsonl.rfind("{\"ts_us\":8,", 0), 0u) << jsonl;
  const size_t nine = jsonl.find("{\"ts_us\":9,");
  const size_t ten = jsonl.find("{\"ts_us\":10,");
  ASSERT_NE(nine, std::string::npos) << jsonl;
  ASSERT_NE(ten, std::string::npos) << jsonl;
  EXPECT_LT(nine, ten);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
}

// The dotted quad as printf renders it.
std::string PrintfAddress(uint32_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

// The audit export rendered with printf format strings: the reference the
// to_chars writer must match byte for byte.
std::string PrintfAuditExport(const DecisionAuditLog& log) {
  std::string out;
  char buf[512];
  for (const AuditRecord& record : log.Records()) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"ts_us\":%" PRId64
        ",\"cause\":\"%s\",\"actor\":\"%s\",\"client\":\"%s\""
        ",\"channel\":\"%s\",\"trace_id\":\"%016" PRIx64
        "\",\"span_id\":%u,\"parent_span_id\":%u"
        ",\"observed\":%.6g,\"limit\":%.6g,\"qname\":\"%s\"}\n",
        record.at, telemetry::AuditCauseName(record.cause),
        PrintfAddress(record.actor).c_str(),
        PrintfAddress(record.client).c_str(),
        PrintfAddress(record.channel).c_str(), record.trace_id,
        record.span_id, record.parent_span_id, record.observed, record.limit,
        record.qname);
    out += buf;
  }
  return out;
}

TEST(AuditLogTest, ExportMatchesPrintfOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0,
                           0.1,
                           1e-5,
                           1234567,
                           1e21,
                           -2.5,
                           kInf,
                           kNan,
                           -0.0,
                           -kInf,
                           std::copysign(kNan, -1.0),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           -2.2250738585072014e-308,
                           123456.5,
                           999999.5};
  constexpr size_t kValues = sizeof(values) / sizeof(values[0]);
  const uint32_t addresses[] = {0, 0xffffffff, 0x0a000001};
  const std::string qnames[] = {"", std::string(47, 'q'), "a.target-domain.",
                                std::string(60, 'z')};
  DecisionAuditLog log(/*capacity=*/7);
  for (size_t i = 0; i < 2 * kValues; ++i) {  // Wraps the ring.
    AuditRecord rec;
    rec.at = i % 3 == 0 ? std::numeric_limits<Time>::min()
                        : static_cast<Time>(i * 999983);
    rec.cause = static_cast<AuditCause>(i % telemetry::kAuditCauseCount);
    rec.actor = addresses[i % 3];
    rec.client = addresses[(i + 1) % 3];
    rec.channel = addresses[(i + 2) % 3];
    rec.trace_id = i % 2 == 0 ? std::numeric_limits<uint64_t>::max() : i;
    rec.span_id = i % 2 == 0 ? std::numeric_limits<uint32_t>::max() : 0;
    rec.parent_span_id = static_cast<uint32_t>(i);
    rec.observed = values[i % kValues];
    rec.limit = values[(i + 5) % kValues];
    telemetry::SetAuditQname(rec, qnames[i % 4]);
    log.Record(rec);
  }
  ASSERT_GT(log.dropped(), 0u);
  EXPECT_EQ(log.ExportJsonLines(), PrintfAuditExport(log));

  // The retained window holds every value as observed and as limit.
  DecisionAuditLog whole(/*capacity=*/kValues);
  for (size_t i = 0; i < kValues; ++i) {
    AuditRecord rec;
    rec.observed = values[i];
    rec.limit = values[kValues - 1 - i];
    whole.Record(rec);
  }
  EXPECT_EQ(whole.ExportJsonLines(), PrintfAuditExport(whole));
  EXPECT_EQ(DecisionAuditLog(4).ExportJsonLines(), "");
}

// kMaxLineBytes, which sizes the export's one reservation, is the longest
// line any cause renders.
TEST(AuditLogTest, MaxLineBytesIsTheWidestLine) {
  DecisionAuditLog log(telemetry::kAuditCauseCount);
  for (int c = 0; c < telemetry::kAuditCauseCount; ++c) {
    AuditRecord rec;
    rec.at = std::numeric_limits<Time>::min();
    rec.cause = static_cast<AuditCause>(c);
    rec.actor = rec.client = rec.channel = 0xffffffff;
    rec.span_id = rec.parent_span_id = std::numeric_limits<uint32_t>::max();
    rec.observed = rec.limit = -2.2250738585072014e-308;
    telemetry::SetAuditQname(rec, std::string(100, 'q'));
    log.Record(rec);
  }
  const std::string jsonl = log.ExportJsonLines();
  size_t widest = 0;
  for (size_t pos = 0; pos < jsonl.size();) {
    const size_t end = jsonl.find('\n', pos) + 1;
    widest = std::max(widest, end - pos);
    pos = end;
  }
  EXPECT_EQ(widest, DecisionAuditLog::kMaxLineBytes);
}

TEST(AuditLogTest, QnamesAreSanitizedAndTruncated) {
  AuditRecord rec;
  telemetry::SetAuditQname(rec, "a\"b\\c\nd");
  EXPECT_STREQ(rec.qname, "a?b?c?d");
  const std::string longname(200, 'x');
  telemetry::SetAuditQname(rec, longname);
  EXPECT_EQ(std::strlen(rec.qname), telemetry::kAuditQnameCapacity - 1);
}

// --- behavior neutrality (the tentpole guarantee) ---------------------------

TEST(AuditNeutralityTest, AuditingDoesNotPerturbScenario) {
  const scenario::ScenarioSpec spec = Fig8NxSlice();

  auto run = [&spec](bool audited) {
    DecisionAuditLog log;
    scenario::EngineHooks hooks;
    if (audited) {
      hooks.audit = &log;
    }
    scenario::ScenarioOutcome outcome;
    std::string error;
    EXPECT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
        << error;
    if (audited) {
      EXPECT_TRUE(outcome.audit_enabled);
      EXPECT_GT(outcome.audit_records, 0u);
      // Strip the audit rollup so the remaining outcome must compare
      // byte-identical to the un-audited runs.
      outcome.audit_enabled = false;
      outcome.audit_records = 0;
      outcome.audit_dropped = 0;
      outcome.audit_causes.clear();
    } else {
      EXPECT_FALSE(outcome.audit_enabled);
    }
    return scenario::WriteScenarioOutcome(outcome);
  };

  const std::string baseline = run(/*audited=*/false);
  const std::string audited = run(/*audited=*/true);
  const std::string again = run(/*audited=*/false);
  EXPECT_EQ(baseline, again) << "scenario itself is not deterministic";
  EXPECT_EQ(baseline, audited) << "auditing perturbed the simulation outcome";
}

// --- replay determinism -----------------------------------------------------

TEST(AuditDeterminismTest, Fig8AuditStreamReplaysByteIdentical) {
  const scenario::ScenarioSpec spec = Fig8NxSlice();

  auto run = [&spec](DecisionAuditLog* log) {
    scenario::EngineHooks hooks;
    hooks.audit = log;
    scenario::ScenarioOutcome outcome;
    std::string error;
    EXPECT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
        << error;
  };

  DecisionAuditLog first;
  DecisionAuditLog second;
  run(&first);
  run(&second);
  EXPECT_GT(first.total_recorded(), 0u);
  EXPECT_EQ(first.total_recorded(), second.total_recorded());
  EXPECT_EQ(first.dropped(), second.dropped());
  EXPECT_EQ(first.CauseHistogram(), second.CauseHistogram());
  EXPECT_EQ(first.ExportJsonLines(), second.ExportJsonLines());
}

TEST(AuditDeterminismTest, FleetBlackoutAuditsFaultAndHolddownCauses) {
  const scenario::ScenarioSpec spec = LoadExampleSpec("fleet_blackout.json");

  auto run = [&spec](DecisionAuditLog* log) {
    scenario::EngineHooks hooks;
    hooks.audit = log;
    scenario::ScenarioOutcome outcome;
    std::string error;
    EXPECT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
        << error;
  };

  DecisionAuditLog first;
  DecisionAuditLog second;
  run(&first);
  run(&second);
  EXPECT_EQ(first.ExportJsonLines(), second.ExportJsonLines());
  const std::vector<uint64_t> histogram = first.CauseHistogram();
  // The 15 s member blackout must leave evidence: the fault window itself
  // plus the upstream tracker's hold-down of the blacked-out member.
  EXPECT_GT(histogram[static_cast<size_t>(AuditCause::kFaultActivated)], 0u);
  EXPECT_GT(histogram[static_cast<size_t>(AuditCause::kResolverUpstreamDead)],
            0u);
}

// --- satellite: reason-labeled counters reconcile with the outcome ----------

TEST(AuditMetricsTest, ReasonLabeledCountersSumToAggregateOutcome) {
  // The congested Fig. 8a flood (every shim cause), and a fleet run whose
  // member blackout exercises the fault / hold-down / frontend decisions.
  for (const scenario::ScenarioSpec& spec :
       {CongestedSpec(), LoadExampleSpec("fleet_blackout.json")}) {
    SCOPED_TRACE(spec.name);
    telemetry::TelemetrySink sink;
    DecisionAuditLog log;
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    hooks.audit = &log;
    scenario::ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
        << error;

    const telemetry::MetricsSnapshot snapshot = sink.metrics.Snapshot();
    // Every synthesized SERVFAIL increments exactly one reason-labeled
    // counter, so the label sum must reconcile with the aggregate outcome.
    EXPECT_EQ(snapshot.Sum("dcc_servfails_synthesized_total"),
              static_cast<double>(outcome.dcc_servfails));
    EXPECT_EQ(snapshot.Sum("dcc_policer_rejects_total"),
              static_cast<double>(outcome.dcc_policed_drops));
    // A decision is emitted once and feeds both its audit record and its
    // counters, so with nothing evicted from the ring every reason-labeled
    // counter equals its cause's audit count.
    ASSERT_EQ(log.dropped(), 0u);
    const std::vector<uint64_t> histogram = log.CauseHistogram();
    size_t reconciled = 0;
    for (const telemetry::MetricSample& sample : snapshot.samples) {
      if (sample.name != "dcc_servfails_synthesized_total" &&
          sample.name != "dcc_policer_rejects_total") {
        continue;
      }
      bool found_reason = false;
      for (const auto& [key, value] : sample.labels) {
        if (key != "reason") {
          continue;
        }
        found_reason = true;
        // Every `reason` value is drawn from the shared audit taxonomy.
        AuditCause parsed;
        ASSERT_TRUE(telemetry::AuditCauseFromName(value, &parsed))
            << sample.name << " reason=" << value;
        EXPECT_EQ(sample.value,
                  static_cast<double>(histogram[static_cast<size_t>(parsed)]))
            << sample.name << " reason=" << value;
        ++reconciled;
      }
      EXPECT_TRUE(found_reason) << sample.name << " sample missing reason label";
    }
    if (spec.name == CongestedSpec().name) {
      ASSERT_GT(outcome.dcc_servfails, 0u);
      EXPECT_EQ(reconciled, 8u);  // Six SERVFAIL causes, two policer causes.
    }
  }
}

// --- satellite: synthesized SERVFAILs carry joinable spans ------------------

// Regression for the attribution bug: SERVFAILs synthesized by
// DccNode::FailQuery used to vanish from trace trees. Every MOPI/policer
// audit record with a trace id must now have a matching kAuthResponse span
// event carrying the SERVFAIL rcode (unless the trace head was ring-evicted,
// in which case no claim is possible).
TEST(AuditRegressionTest, ShimSynthesizedServfailsCarryTraceSpans) {
  const scenario::ScenarioSpec spec = CongestedSpec();
  telemetry::TelemetrySink sink;
  DecisionAuditLog log;
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  hooks.audit = &log;
  scenario::ScenarioOutcome outcome;
  std::string error;
  ASSERT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
      << error;

  size_t checked = 0;
  for (const AuditRecord& rec : log.Records()) {
    const bool shim_drop = rec.cause == AuditCause::kMopiChannelCongested ||
                           rec.cause == AuditCause::kMopiQueueFull ||
                           rec.cause == AuditCause::kMopiClientOverspeed ||
                           rec.cause == AuditCause::kMopiEvicted ||
                           rec.cause == AuditCause::kPolicerRateExceeded ||
                           rec.cause == AuditCause::kPolicerBlocked;
    if (!shim_drop || rec.trace_id == 0) {
      continue;
    }
    EXPECT_NE(rec.span_id, 0u);
    if (sink.trace.PossiblyTruncated(rec.trace_id)) {
      continue;
    }
    bool found = false;
    for (const telemetry::SpanEvent& event :
         sink.trace.EventsFor(rec.trace_id)) {
      if (event.kind == telemetry::SpanKind::kAuthResponse &&
          event.span_id == rec.span_id &&
          event.detail == static_cast<int32_t>(2 /* SERVFAIL */)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "audit record (cause "
                       << telemetry::AuditCauseName(rec.cause) << ", span "
                       << rec.span_id << ") has no SERVFAIL span event";
    ++checked;
  }
  // The NX flood must have produced per-query shim drops to check at all.
  EXPECT_GT(checked, 0u);
}

// Regression for the frontend half of the same bug: budget-denied failovers
// synthesize a SERVFAIL toward the client, and that response must both show
// up as a kResolverResponse span and be attributed in the audit stream.
TEST(AuditRegressionTest, FrontendBudgetDenialIsAuditedWithSpan) {
  scenario::ScenarioSpec spec = LoadExampleSpec("fleet_blackout.json");
  // Starve the re-steer budget so the blackout forces denials.
  bool adjusted = false;
  for (scenario::NodeSpec& node : spec.nodes) {
    if (node.kind == scenario::NodeKind::kFrontend) {
      node.frontend.resteer_budget_qps = 0.01;
      node.frontend.resteer_budget_burst = 1;
      adjusted = true;
    }
  }
  ASSERT_TRUE(adjusted);

  telemetry::TelemetrySink sink;
  DecisionAuditLog log;
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  hooks.audit = &log;
  scenario::ScenarioOutcome outcome;
  std::string error;
  ASSERT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
      << error;
  ASSERT_EQ(outcome.frontends.size(), 1u);
  EXPECT_GT(outcome.frontends[0].resteer_denied, 0u);

  const std::vector<uint64_t> histogram = log.CauseHistogram();
  ASSERT_GT(histogram[static_cast<size_t>(AuditCause::kFrontendBudgetDenied)],
            0u);
  size_t with_span = 0;
  for (const AuditRecord& rec : log.Records()) {
    if (rec.cause != AuditCause::kFrontendBudgetDenied || rec.trace_id == 0) {
      continue;
    }
    if (sink.trace.PossiblyTruncated(rec.trace_id)) {
      continue;
    }
    for (const telemetry::SpanEvent& event :
         sink.trace.EventsFor(rec.trace_id)) {
      if (event.kind == telemetry::SpanKind::kResolverResponse &&
          event.actor == rec.actor &&
          event.detail == static_cast<int32_t>(2 /* SERVFAIL */)) {
        ++with_span;
        break;
      }
    }
  }
  EXPECT_GT(with_span, 0u)
      << "no budget-denied SERVFAIL joined an audit record to a span";
}

}  // namespace
}  // namespace dcc
