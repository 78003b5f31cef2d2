// Fig. 8 / Table 2 — DCC attack resilience.
//
// Reproduces the three §5.1 scenarios with the Table 2 client mix against a
// 1000-QPS resolver→nameserver channel, printing per-second effective QPS
// for each client, vanilla resolver vs DCC-enabled resolver:
//   (a) attacker exploiting the WC pattern at 1100 QPS,
//   (b) attacker (and initially the heavy client) using NX at 1100 QPS,
//   (c) attacker exploiting FF amplification at 50 QPS.
// Each scenario is examples/scenarios/fig8_{wc,nx,ff}.json.

#include <cstdio>
#include <string>

#include "bench/benches.h"
#include "src/common/ids.h"
#include "src/measure/fairness.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/telemetry.h"

namespace dcc {
namespace {

// The Fig. 8 comparison axis: the same spec with its DCC shims on or off.
scenario::ScenarioSpec WithDcc(scenario::ScenarioSpec spec, bool enabled) {
  for (scenario::NodeSpec& node : spec.nodes) {
    node.dcc_enabled = node.dcc_enabled && enabled;
  }
  return spec;
}

void RunScenario(const char* title, const char* file) {
  const scenario::ScenarioSpec spec = bench::LoadExampleSpec(file);
  const scenario::ClientSpec& attacker = spec.clients.back();
  std::printf("\n=== Scenario: %s (attacker %.0f QPS) ===\n", title, attacker.qps);
  const bool ff = attacker.pattern == scenario::QueryPattern::kFf;
  for (bool dcc_enabled : {false, true}) {
    // Accounting flows through the telemetry registry (one vocabulary with
    // the dcc_sim --metrics-out dump) rather than ad-hoc member counters.
    telemetry::TelemetrySink sink;
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    const scenario::ScenarioOutcome result =
        bench::MustRunSpec(WithDcc(spec, dcc_enabled), hooks);
    std::printf("\n--- %s ---\n", dcc_enabled ? "DCC-enabled resolver" : "vanilla resolver");
    bench::PrintClientSeries(result, ff);
    const telemetry::MetricsSnapshot snap = sink.metrics.Snapshot();
    std::printf("summary:");
    for (const auto& client : result.clients) {
      std::printf("  %s=%.2f", client.label.c_str(), client.success_ratio);
    }
    if (dcc_enabled) {
      std::printf(
          "  [convictions=%.0f policer_rejects=%.0f servfails=%.0f "
          "enqueue_congested=%.0f dcc_mem=%.0fB]",
          snap.Sum("dcc_convictions_total"), snap.Sum("dcc_policer_rejects_total"),
          snap.Sum("dcc_servfails_synthesized_total"),
          snap.Value("dcc_scheduler_enqueue_total",
                     {{"outcome", "FAIL_CHANNEL_CONGESTED"}}),
          snap.Sum("dcc_memory_bytes"));
    }
    std::printf("\n");
    const measure::BenignCollateral collateral =
        measure::SummarizeBenignCollateral(measure::FairnessSamples(result.clients));
    std::printf(
        "collateral: worst benign %s=%.2f mean=%.2f jain=%.3f starved=%zus\n",
        collateral.worst_label.c_str(), collateral.worst_ratio,
        collateral.mean_ratio, collateral.jain_index,
        collateral.max_starved_seconds);
    if (ff) {
      // Causal-tree view of the same run: who amplified, and by how much.
      // With DCC on, policing should push the attacker's realized fan-out
      // well below the vanilla number.
      const telemetry::AmplificationReport report =
          telemetry::Attribute(telemetry::BuildSpanTrees(sink.trace));
      if (!report.clients.empty()) {
        const telemetry::ClientAmplification& worst = report.clients.front();
        std::printf(
            "amplification: worst client %s at %.1f subqueries/request "
            "(max %zu, depth %d, %zu retries over %zu traced requests)\n",
            FormatAddress(worst.client).c_str(), worst.mean_amplification,
            worst.max_amplification, worst.max_depth, worst.retries,
            worst.requests);
      }
    }
  }
}

}  // namespace

namespace bench {

void PrintClientSeries(const scenario::ScenarioOutcome& result, bool ff_attacker) {
  std::printf("%-10s", "t(s)");
  for (const auto& client : result.clients) {
    std::printf("%10s", client.label.c_str());
  }
  std::printf("\n");
  // Fig. 8 caption: with the FF pattern the attacker's effective QPS is the
  // load it actually lands on the nameserver (shared landed-series math in
  // measure/fairness).
  const std::vector<measure::ClientFairnessSample> samples =
      measure::FairnessSamples(result.clients);
  const std::vector<double> landed =
      measure::AttackerLandedSeries(samples, result.ans[0].qps);
  const size_t seconds = result.clients.front().effective_qps.size();
  for (size_t t = 0; t < seconds; t += 2) {
    std::printf("%-10zu", t);
    for (const auto& client : result.clients) {
      double value = client.effective_qps[t];
      if (ff_attacker && client.is_attacker && t < landed.size()) {
        value = landed[t];
      }
      std::printf("%10.0f", value);
    }
    std::printf("\n");
  }
}

int RunFig8Resilience(const BenchOptions& options) {
  std::printf("Fig. 8 — client dynamics under adversarial congestion\n");
  std::printf("(channel capacity 1000 QPS; Table 2 client mix; effective QPS\n");
  std::printf(" = successful responses per second)\n");
  RunScenario("(a) WC wildcard pattern", "fig8_wc.json");
  if (!options.quick) {
    RunScenario("(b) NX pseudo-random subdomain pattern", "fig8_nx.json");
    RunScenario("(c) FF amplification pattern", "fig8_ff.json");
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
