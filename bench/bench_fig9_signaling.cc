// Fig. 9 — efficacy of DCC's in-band signaling on a resolution path.
//
// Forwarder and recursive resolver are both DCC-enabled; the attacker, heavy
// and light clients sit behind the forwarder while the medium client queries
// the resolver directly (§5.1). Two attacker patterns (NX at 200 QPS, FF at
// 20 QPS; examples/scenarios/fig9_{nx,ff}.json), each run with the
// signaling mechanism off and on. Without signals, the resolver polices the
// whole forwarder and its benign clients share the attacker's fate; with
// signals, the forwarder convicts the real culprit before that happens.

#include <cstdio>

#include "bench/benches.h"
#include "src/measure/fairness.h"
#include "src/telemetry/telemetry.h"

namespace dcc {
namespace {

// The Fig. 9 comparison axis: the same spec with signaling on or off at
// every DCC shim.
scenario::ScenarioSpec WithSignaling(scenario::ScenarioSpec spec, bool enabled) {
  for (scenario::NodeSpec& node : spec.nodes) {
    node.dcc.signaling_enabled = enabled;
  }
  return spec;
}

void RunPattern(const char* title, const char* file) {
  const scenario::ScenarioSpec spec = bench::LoadExampleSpec(file);
  const scenario::ClientSpec& attacker = spec.clients.back();
  std::printf("\n=== Scenario: %s (attacker %.0f QPS) ===\n", title, attacker.qps);
  for (bool signaling : {false, true}) {
    // Accounting flows through the telemetry registry, aggregating both DCC
    // instances (forwarder + resolver) under the shared metric families.
    telemetry::TelemetrySink sink;
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    const scenario::ScenarioOutcome result =
        bench::MustRunSpec(WithSignaling(spec, signaling), hooks);
    std::printf("\n--- signaling %s ---\n", signaling ? "ON" : "OFF");
    bench::PrintClientSeries(result, attacker.pattern == scenario::QueryPattern::kFf);
    const telemetry::MetricsSnapshot snap = sink.metrics.Snapshot();
    std::printf("summary:");
    for (const auto& client : result.clients) {
      std::printf("  %s=%.2f", client.label.c_str(), client.success_ratio);
    }
    const measure::BenignCollateral collateral =
        measure::SummarizeBenignCollateral(measure::FairnessSamples(result.clients));
    std::printf("  worst-benign=%.2f(%s)", collateral.worst_ratio,
                collateral.worst_label.c_str());
    std::printf(
        "  [convictions=%.0f policer_rejects=%.0f attached=%.0f "
        "processed(pol/anom/cong)=%.0f/%.0f/%.0f]\n",
        snap.Sum("dcc_convictions_total"), snap.Sum("dcc_policer_rejects_total"),
        snap.Sum("dcc_signals_attached_total"),
        snap.Value("dcc_signals_processed_total", {{"type", "policing"}}),
        snap.Value("dcc_signals_processed_total", {{"type", "anomaly"}}),
        snap.Value("dcc_signals_processed_total", {{"type", "congestion"}}));
  }
}

}  // namespace

namespace bench {

int RunFig9Signaling(const BenchOptions& options) {
  std::printf("Fig. 9 — anomaly monitoring, policing and signaling on a\n");
  std::printf("forwarder -> resolver path (channel 1000 QPS; heavy/light behind\n");
  std::printf("the forwarder, medium direct at the resolver)\n");
  RunPattern("(a) NX pattern", "fig9_nx.json");
  if (!options.quick) {
    RunPattern("(b) FF amplification pattern", "fig9_ff.json");
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
