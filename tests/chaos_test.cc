// End-to-end chaos acceptance test over examples/scenarios/chaos.json:
// blackout of every authoritative server against a serve-stale resolver.
// Verifies graceful degradation (stale answers confined to the outage,
// bounded staleness), hold-down cutting the upstream send rate,
// bounded-time recovery, and deterministic replay.

#include <gtest/gtest.h>

#include "tests/example_specs.h"

namespace dcc {
namespace {

using scenario::ScenarioOutcome;
using scenario::ScenarioSpec;
using testing_specs::LoadExampleSpec;
using testing_specs::RunSpec;

int SecondOf(Time t) { return static_cast<int>(t / kSecond); }

double MeanOver(const std::vector<double>& series, int begin, int end) {
  double sum = 0;
  int n = 0;
  for (int s = begin; s < end && s < static_cast<int>(series.size()); ++s) {
    sum += series[s];
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

// Moves the spec's all-authoritative blackout to [start, end).
void SetBlackout(ScenarioSpec* spec, Time start, Time end) {
  for (fault::FaultEvent& event : spec->faults.plan.events) {
    event.start = start;
    event.end = end;
  }
}

TEST(ChaosScenarioTest, GracefulDegradationAndRecovery) {
  const ScenarioSpec spec = LoadExampleSpec("chaos.json");
  ASSERT_FALSE(spec.faults.plan.events.empty());
  const ScenarioOutcome result = RunSpec(spec);
  ASSERT_EQ(result.resolver_series.size(), 1u);
  const scenario::ClientOutcome& client = result.clients[0];
  const scenario::ResolverSeriesOutcome& series = result.resolver_series[0];
  const int blackout_start = SecondOf(spec.faults.plan.events[0].start);
  const int blackout_end = SecondOf(spec.faults.plan.events[0].end);
  const int horizon = SecondOf(spec.horizon);
  const double client_qps = spec.clients[0].qps;

  // The client barely notices the outage: stale answers keep it whole.
  EXPECT_GT(client.success_ratio, 0.98);
  EXPECT_GT(client.sent, 1000u);

  // Degradation: stale answers appear only while the authoritatives are
  // dark (after the short zone TTL runs out) and stop once they return.
  EXPECT_GT(series.stale_responses, 100u);
  EXPECT_NEAR(MeanOver(series.stale_qps, 0, blackout_start), 0.0, 0.01);
  EXPECT_GT(MeanOver(series.stale_qps, blackout_start + 2, blackout_end),
            client_qps * 0.5);
  // Recovery: fresh answers within a couple of seconds of the blackout
  // lifting.
  EXPECT_NEAR(MeanOver(series.stale_qps, blackout_end + 2, horizon), 0.0, 0.01);

  // Hold-down collapses the upstream send rate instead of retry-storming.
  // As the geometric windows grow, most late-blackout seconds see zero
  // upstream transmissions (only brief re-probe bursts at window expiry),
  // and the blackout total stays far below a retry storm's.
  EXPECT_GT(MeanOver(series.upstream_send_qps, 2, blackout_start), 1.0);
  int suppressed_seconds = 0;
  double dark_total = 0;
  for (int s = blackout_start + 2; s < blackout_end; ++s) {
    if (series.upstream_send_qps[s] == 0) {
      ++suppressed_seconds;
    }
    dark_total += series.upstream_send_qps[s];
  }
  EXPECT_GE(suppressed_seconds, (blackout_end - blackout_start) / 2);
  EXPECT_LT(dark_total, client_qps * (blackout_end - blackout_start) * 0.5);
  EXPECT_GE(series.holddowns, 2u);
  EXPECT_GT(series.upstream_timeouts, 0u);
  // One blackout event per authoritative, each activating once.
  EXPECT_EQ(result.fault_activations, spec.faults.plan.events.size());

  // After recovery the resolver talks upstream again.
  EXPECT_GT(MeanOver(series.upstream_send_qps, blackout_end + 1, horizon), 0.5);
}

TEST(ChaosScenarioTest, ReplayIsDeterministic) {
  ScenarioSpec spec = LoadExampleSpec("chaos.json");
  spec.horizon = Seconds(30);
  SetBlackout(&spec, Seconds(8), Seconds(18));
  const ScenarioOutcome a = RunSpec(spec);
  const ScenarioOutcome b = RunSpec(spec);
  EXPECT_EQ(a.clients[0].sent, b.clients[0].sent);
  EXPECT_EQ(a.clients[0].succeeded, b.clients[0].succeeded);
  const auto& sa = a.resolver_series[0];
  const auto& sb = b.resolver_series[0];
  EXPECT_EQ(sa.stale_responses, sb.stale_responses);
  EXPECT_EQ(sa.upstream_timeouts, sb.upstream_timeouts);
  EXPECT_EQ(sa.holddowns, sb.holddowns);
  EXPECT_EQ(sa.upstream_send_qps, sb.upstream_send_qps);
  EXPECT_EQ(sa.stale_qps, sb.stale_qps);

  // A different fault timeline actually changes the run (guards against the
  // comparison above passing vacuously on constant series).
  ScenarioSpec other = spec;
  SetBlackout(&other, Seconds(8), Seconds(24));
  const ScenarioOutcome c = RunSpec(other);
  EXPECT_NE(sa.stale_qps, c.resolver_series[0].stale_qps);
}

TEST(ChaosScenarioTest, DccResolverSurvivesChaosToo) {
  ScenarioSpec spec = LoadExampleSpec("chaos_dcc.json");
  spec.horizon = Seconds(30);
  SetBlackout(&spec, Seconds(8), Seconds(18));
  const ScenarioOutcome result = RunSpec(spec);
  EXPECT_GT(result.clients[0].success_ratio, 0.95);
  EXPECT_GT(result.resolver_series[0].stale_responses, 0u);
  EXPECT_GE(result.resolver_series[0].holddowns, 1u);
}

TEST(ChaosScenarioTest, CustomFaultPlanOverridesDefaultBlackout) {
  ScenarioSpec spec = LoadExampleSpec("chaos.json");
  spec.horizon = Seconds(20);
  // Lossy queries towards both authoritatives (SRTT steering would route
  // around a single degraded server).
  spec.faults.plan = fault::FaultPlan();
  for (HostAddress auth : {HostAddress{0x0a000001}, HostAddress{0x0a000002}}) {
    fault::FaultEvent event;
    event.type = fault::FaultType::kLinkLoss;
    event.start = Seconds(5);
    event.end = Seconds(15);
    event.a = fault::kAnyHost;
    event.b = auth;
    event.probability = 0.5;
    spec.faults.plan.events.push_back(event);
  }
  spec.faults.plan.seed = spec.seed;
  const ScenarioOutcome result = RunSpec(spec);
  // Loss instead of blackout: adaptive retry absorbs it without SERVFAILs.
  EXPECT_EQ(result.fault_activations, 2u);
  EXPECT_GT(result.clients[0].success_ratio, 0.95);
  EXPECT_GT(result.resolver_series[0].upstream_timeouts, 0u);
}

}  // namespace
}  // namespace dcc
