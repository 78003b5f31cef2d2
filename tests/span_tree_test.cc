// Tests for causal span trees and amplification attribution: tree
// reconstruction from hand-built events (including orphaned spans with a
// missing parent), CQ-style chain amplification math, critical-path
// extraction, Chrome trace-event export well-formedness (validated with the
// in-tree JSON parser), and an end-to-end FF forensics run asserting the
// attacker's measured amplification lands near fan-out^2 and above every
// benign client — the paper's §2.2 compositional-amplification fingerprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/trace.h"
#include "tests/example_specs.h"

namespace dcc {
namespace telemetry {
namespace {

constexpr uint64_t kTrace = MakeTraceId(0x0a000004, 40000, 7);

SpanEvent Ev(uint64_t trace_id, SpanKind kind, Time at, uint32_t span_id,
             uint32_t parent_span_id, int32_t detail = 0, uint32_t peer = 0) {
  SpanEvent event;
  event.trace_id = trace_id;
  event.kind = kind;
  event.at = at;
  event.span_id = span_id;
  event.parent_span_id = parent_span_id;
  event.detail = detail;
  event.peer = peer;
  return event;
}

SpanEvent SubSend(uint64_t trace_id, Time at, uint32_t span_id,
                  uint32_t parent_span_id, SubQueryCause cause,
                  uint32_t peer = 0x0a000001) {
  return Ev(trace_id, SpanKind::kSubQuerySend, at, span_id, parent_span_id,
            static_cast<int32_t>(cause), peer);
}

// --- tree reconstruction -----------------------------------------------------

TEST(SpanTreeTest, BuildsFfStyleFanOutTree) {
  // Root client span -> initial fetch -> two glue-less NS children.
  std::vector<SpanEvent> events = {
      Ev(kTrace, SpanKind::kStubSend, 0, kClientSpanId, 0),
      SubSend(kTrace, 10, 2, kClientSpanId, SubQueryCause::kInitial),
      SubSend(kTrace, 20, 3, 2, SubQueryCause::kNs, 0x0a000002),
      SubSend(kTrace, 25, 4, 2, SubQueryCause::kNs, 0x0a000002),
      Ev(kTrace, SpanKind::kSubQueryDone, 60, 3, 2, 1),
      Ev(kTrace, SpanKind::kSubQueryDone, 70, 4, 2, 1),
      Ev(kTrace, SpanKind::kSubQueryDone, 80, 2, kClientSpanId, 1),
      Ev(kTrace, SpanKind::kClientReceive, 100, kClientSpanId, 0, 1),
  };
  const std::vector<SpanTree> trees = BuildSpanTrees(events);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& tree = trees[0];
  EXPECT_EQ(tree.trace_id, kTrace);
  EXPECT_EQ(tree.client, 0x0a000004u);
  ASSERT_EQ(tree.nodes.size(), 4u);
  ASSERT_NE(tree.root, kNoNode);

  const SpanNode* root = tree.Root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span_id, kClientSpanId);
  EXPECT_EQ(root->depth, 0);
  EXPECT_EQ(root->cause, SubQueryCause::kClient);
  ASSERT_EQ(root->children.size(), 1u);

  const SpanNode& initial = tree.nodes[root->children[0]];
  EXPECT_EQ(initial.span_id, 2u);
  EXPECT_EQ(initial.depth, 1);
  EXPECT_EQ(initial.cause, SubQueryCause::kInitial);
  ASSERT_EQ(initial.children.size(), 2u);
  for (size_t child : initial.children) {
    EXPECT_EQ(tree.nodes[child].cause, SubQueryCause::kNs);
    EXPECT_EQ(tree.nodes[child].depth, 2);
    EXPECT_EQ(tree.nodes[child].peer, 0x0a000002u);
    EXPECT_FALSE(tree.nodes[child].orphaned);
  }

  const TraceStats stats = ComputeStats(tree);
  EXPECT_EQ(stats.subqueries, 3u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.cause_counts[static_cast<int>(SubQueryCause::kInitial)], 1u);
  EXPECT_EQ(stats.cause_counts[static_cast<int>(SubQueryCause::kNs)], 2u);
  EXPECT_EQ(stats.max_depth, 2);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.latency, 100);
}

TEST(SpanTreeTest, CriticalPathDescendsLastFinishingChild) {
  std::vector<SpanEvent> events = {
      Ev(kTrace, SpanKind::kStubSend, 0, kClientSpanId, 0),
      SubSend(kTrace, 5, 2, kClientSpanId, SubQueryCause::kInitial),
      Ev(kTrace, SpanKind::kSubQueryDone, 40, 2, kClientSpanId, 1),
      SubSend(kTrace, 6, 3, kClientSpanId, SubQueryCause::kQmin),
      SubSend(kTrace, 50, 4, 3, SubQueryCause::kNs),
      Ev(kTrace, SpanKind::kSubQueryDone, 95, 4, 3, 1),
      Ev(kTrace, SpanKind::kSubQueryDone, 96, 3, kClientSpanId, 1),
      Ev(kTrace, SpanKind::kClientReceive, 100, kClientSpanId, 0, 1),
  };
  const std::vector<SpanTree> trees = BuildSpanTrees(events);
  ASSERT_EQ(trees.size(), 1u);
  const TraceStats stats = ComputeStats(trees[0]);
  // Span 3 finished after span 2, and its child 4 gates it.
  ASSERT_EQ(stats.critical_path.size(), 3u);
  EXPECT_EQ(stats.critical_path[0], kClientSpanId);
  EXPECT_EQ(stats.critical_path[1], 3u);
  EXPECT_EQ(stats.critical_path[2], 4u);
  EXPECT_EQ(stats.critical_path_latency, 100);
}

TEST(SpanTreeTest, MissingParentSpanIsOrphanedUnderRoot) {
  std::vector<SpanEvent> events = {
      Ev(kTrace, SpanKind::kStubSend, 0, kClientSpanId, 0),
      // Parent span 99 was never retained (evicted or uninstrumented hop).
      SubSend(kTrace, 30, 5, 99, SubQueryCause::kNs),
      Ev(kTrace, SpanKind::kClientReceive, 100, kClientSpanId, 0, 1),
  };
  const std::vector<SpanTree> trees = BuildSpanTrees(events);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& tree = trees[0];
  ASSERT_EQ(tree.nodes.size(), 2u);
  ASSERT_NE(tree.root, kNoNode);
  const SpanNode& orphan = tree.nodes[tree.root == 0 ? 1 : 0];
  EXPECT_TRUE(orphan.orphaned);
  EXPECT_EQ(orphan.parent, tree.root);
  EXPECT_EQ(orphan.depth, 1);
  // Attribution still counts it: the amplification happened regardless of
  // whether the causal link survived the ring.
  const TraceStats stats = ComputeStats(tree);
  EXPECT_EQ(stats.subqueries, 1u);
  const std::string rendered = RenderTree(tree);
  EXPECT_NE(rendered.find("(orphaned)"), std::string::npos);
}

TEST(SpanTreeTest, MissingRootFallsBackToEarliestSpan) {
  std::vector<SpanEvent> events = {
      SubSend(kTrace, 10, 2, kClientSpanId, SubQueryCause::kInitial),
      SubSend(kTrace, 20, 3, 2, SubQueryCause::kNs),
  };
  const std::vector<SpanTree> trees = BuildSpanTrees(events);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& tree = trees[0];
  EXPECT_EQ(tree.root, kNoNode);
  EXPECT_EQ(tree.Root(), nullptr);
  ASSERT_EQ(tree.nodes.size(), 2u);
  // Span 3's parent (span 2) is present, so the causal link survives even
  // though the client span itself is gone.
  EXPECT_EQ(tree.nodes[1].parent, 0u);
  EXPECT_FALSE(tree.nodes[1].orphaned);
  const std::string rendered = RenderTree(tree);
  EXPECT_NE(rendered.find("client span missing"), std::string::npos);
  const TraceStats stats = ComputeStats(tree);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.subqueries, 2u);
}

// --- amplification math ------------------------------------------------------

// Hand-built CQ-style chain: one client query drags the resolver through a
// CNAME chain, each hop a fresh sub-query parented on the previous one.
TEST(SpanTreeTest, CqChainAmplificationMath) {
  const uint32_t attacker = 0x0a000009;
  const uint32_t benign = 0x0a000008;
  const uint32_t victim = 0x0a000001;
  std::vector<SpanEvent> events;
  // Two attacker traces, chain length 5 after the initial fetch.
  for (uint16_t q = 0; q < 2; ++q) {
    const uint64_t id = MakeTraceId(attacker, 40000, q);
    events.push_back(Ev(id, SpanKind::kStubSend, 0, kClientSpanId, 0));
    events.push_back(
        SubSend(id, 1, 2, kClientSpanId, SubQueryCause::kInitial, victim));
    for (uint32_t hop = 0; hop < 5; ++hop) {
      events.push_back(SubSend(id, 10 + hop * 10, 3 + hop, 2 + hop,
                               SubQueryCause::kCname, victim));
    }
    events.push_back(Ev(id, SpanKind::kClientReceive, 100, kClientSpanId, 0, 1));
  }
  // Three benign traces: one initial fetch each, plus one with a retry
  // (retries must not inflate amplification).
  for (uint16_t q = 0; q < 3; ++q) {
    const uint64_t id = MakeTraceId(benign, 40001, q);
    events.push_back(Ev(id, SpanKind::kStubSend, 0, kClientSpanId, 0));
    events.push_back(
        SubSend(id, 1, 2, kClientSpanId, SubQueryCause::kInitial, victim));
    if (q == 0) {
      events.push_back(SubSend(id, 40, 3, 2, SubQueryCause::kRetry, victim));
    }
    events.push_back(Ev(id, SpanKind::kClientReceive, 90, kClientSpanId, 0, 1));
  }

  const std::vector<SpanTree> trees = BuildSpanTrees(events);
  ASSERT_EQ(trees.size(), 5u);

  // Chain shape: depth grows by one per CNAME hop.
  const TraceStats chain = ComputeStats(trees[0]);
  EXPECT_EQ(chain.subqueries, 6u);  // 1 initial + 5 CNAME hops.
  EXPECT_EQ(chain.cause_counts[static_cast<int>(SubQueryCause::kCname)], 5u);
  EXPECT_EQ(chain.max_depth, 6);

  const AmplificationReport report = Attribute(trees);
  EXPECT_EQ(report.traces, 5u);
  ASSERT_EQ(report.clients.size(), 2u);
  // Worst amplifier first: the CQ attacker at 6 sub-queries per request.
  EXPECT_EQ(report.clients[0].client, attacker);
  EXPECT_DOUBLE_EQ(report.clients[0].mean_amplification, 6.0);
  EXPECT_EQ(report.clients[0].max_amplification, 6u);
  EXPECT_EQ(report.clients[0].max_depth, 6);
  EXPECT_EQ(report.clients[1].client, benign);
  EXPECT_DOUBLE_EQ(report.clients[1].mean_amplification, 1.0);
  EXPECT_EQ(report.clients[1].retries, 1u);

  // Channel view: every non-retry sub-query targeted the victim.
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_EQ(report.channels[0].peer, victim);
  EXPECT_EQ(report.channels[0].subqueries, 15u);  // 2*6 + 3*1, retry excluded.
  EXPECT_EQ(report.channels[0].clients, 2u);

  const std::string table = RenderTopAmplifiers(report);
  EXPECT_NE(table.find("top amplifiers"), std::string::npos);
  EXPECT_NE(table.find("10.0.0.9"), std::string::npos);
  EXPECT_NE(table.find("busiest channels"), std::string::npos);
}

// --- Chrome trace-event export ----------------------------------------------

TEST(ChromeTraceTest, ExportParsesAsJsonWithExpectedShape) {
  std::vector<SpanEvent> events = {
      Ev(kTrace, SpanKind::kStubSend, 0, kClientSpanId, 0),
      SubSend(kTrace, 10, 2, kClientSpanId, SubQueryCause::kInitial),
      SubSend(kTrace, 20, 3, 99, SubQueryCause::kNs),  // Orphan.
      Ev(kTrace, SpanKind::kClientReceive, 100, kClientSpanId, 0, 1),
  };
  const std::string out = ExportChromeTrace(BuildSpanTrees(events));

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.String("displayTimeUnit"), "ms");
  const json::Value* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  size_t slices = 0;
  size_t instants = 0;
  for (const json::Value& event : trace_events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    const std::string ph = event.String("ph");
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i") << ph;
    EXPECT_GE(event.Number("pid", -1), 1.0);
    if (ph == "X") {
      ++slices;
      EXPECT_GE(event.Number("dur"), 1.0);
      ASSERT_NE(event.Find("args"), nullptr);
      EXPECT_GE(event.Find("args")->Number("span_id"), 1.0);
    } else if (ph == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(slices, 3u);   // One complete slice per span.
  EXPECT_EQ(instants, 4u); // One instant per recorded event.
}

TEST(ChromeTraceTest, TracerOverloadExportsRetainedWindow) {
  QueryTracer tracer(64);
  tracer.Record(kTrace, SpanKind::kStubSend, 0);
  tracer.Record(kTrace, SpanKind::kClientReceive, 50, 0, 1);
  const std::string out = ExportChromeTrace(tracer);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  ASSERT_NE(doc.Find("traceEvents"), nullptr);
  EXPECT_FALSE(doc.Find("traceEvents")->AsArray().empty());
}

// --- end-to-end FF forensics -------------------------------------------------

// The acceptance check on the paper's Fig. 8 FF configuration (the Table 2
// client mix, fanout_a = fanout_t = 7): on an uncongested vanilla run the
// attribution engine must measure the attacker within 20% of fan-out^2 = 49
// upstream queries per request and rank it above every benign client. The
// same run is documented as the dcc_trace walkthrough in EXPERIMENTS.md.
TEST(SpanTreeForensicsTest, FfAttackerAmplificationNearFanoutSquared) {
  TelemetrySink sink;
  scenario::ScenarioSpec spec = testing_specs::LoadExampleSpec("fig8_ff.json");
  testing_specs::TrimToHorizon(&spec, Seconds(25));
  spec.clients[3].qps = 2;  // The attacker.
  for (scenario::NodeSpec& node : spec.nodes) {
    node.dcc_enabled = false;      // Vanilla resolver: nothing policed away.
    node.auth.rrl.enabled = false;  // Uncongested: the full fan-out completes.
  }
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  testing_specs::RunSpec(spec, hooks);

  // Address layout (SpecNodeAddress): target ANS, attacker ANS, resolver,
  // then one address per client in spec order (Heavy, Medium, Light,
  // Attacker).
  const uint32_t target_ans = 0x0a000001;
  const uint32_t attacker_addr = 0x0a000007;

  const std::vector<SpanTree> trees = BuildSpanTrees(sink.trace);
  ASSERT_FALSE(trees.empty());
  const AmplificationReport report = Attribute(trees);
  ASSERT_GE(report.clients.size(), 2u);

  // The attacker must rank first, within the paper's fan-out^2 envelope;
  // benign WC clients cost ~1 upstream query per request.
  EXPECT_EQ(report.clients[0].client, attacker_addr);
  EXPECT_GE(report.clients[0].mean_amplification, 49.0 * 0.8);
  EXPECT_LE(report.clients[0].mean_amplification, 49.0 * 1.2);
  EXPECT_GE(report.clients[0].max_depth, 3);
  size_t benign_complete = 0;
  for (size_t i = 1; i < report.clients.size(); ++i) {
    EXPECT_LT(report.clients[i].mean_amplification, 2.0);
    benign_complete += report.clients[i].complete_requests;
  }
  EXPECT_GT(benign_complete, 0u);

  // The NS fan-out lands on the victim channel: busiest channel is the
  // target's authoritative server.
  ASSERT_FALSE(report.channels.empty());
  EXPECT_EQ(report.channels[0].peer, target_ans);

  // The forensics table fingers the attacker on its first data row.
  const std::string table = RenderTopAmplifiers(report, 3);
  const size_t rank1 = table.find("   1 ");
  ASSERT_NE(rank1, std::string::npos);
  EXPECT_NE(table.find("10.0.0.7", rank1), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace dcc
