// Smoke tests over the committed paper-figure specs (examples/scenarios/):
// shortened versions of the Fig. 4/8/9 runs asserting the headline shapes
// (vanilla congests, DCC shares fairly, signaling protects the innocent).

#include <gtest/gtest.h>

#include "tests/example_specs.h"

namespace dcc {
namespace {

using scenario::ClientOutcome;
using scenario::QueryPattern;
using scenario::ScenarioOutcome;
using scenario::ScenarioSpec;
using testing_specs::LoadExampleSpec;
using testing_specs::RunSpec;
using testing_specs::TrimToHorizon;

void SetDcc(ScenarioSpec* spec, bool enabled) {
  for (scenario::NodeSpec& node : spec->nodes) {
    node.dcc_enabled = node.dcc_enabled && enabled;
  }
}

// Pooled success ratio of the non-attacker clients (the Fig. 4 y-axis).
double BenignSuccess(const ScenarioOutcome& outcome) {
  uint64_t ok = 0;
  uint64_t total = 0;
  for (const ClientOutcome& client : outcome.clients) {
    if (!client.is_attacker) {
      ok += client.succeeded;
      total += client.succeeded + client.failed;
    }
  }
  return total > 0 ? static_cast<double>(ok) / static_cast<double>(total) : 0;
}

TEST(Table2Test, ClientMixMatchesPaper) {
  const ScenarioSpec spec = LoadExampleSpec("fig8_nx.json");
  const auto& clients = spec.clients;
  ASSERT_EQ(clients.size(), 4u);
  EXPECT_EQ(clients[0].label, "Heavy");
  EXPECT_EQ(clients[0].qps, 600);
  EXPECT_EQ(clients[0].pattern, QueryPattern::kNxThenWc);  // NX attacker case.
  EXPECT_EQ(clients[1].qps, 350);
  EXPECT_EQ(clients[1].stop, Seconds(50));
  EXPECT_EQ(clients[2].qps, 150);
  EXPECT_EQ(clients[2].start, Seconds(20));
  EXPECT_TRUE(clients[3].is_attacker);
  EXPECT_EQ(clients[3].start, Seconds(10));
  EXPECT_EQ(clients[3].qps, 1100);
}

TEST(Table2Test, WcAttackerKeepsHeavyOnWc) {
  EXPECT_EQ(LoadExampleSpec("fig8_wc.json").clients[0].pattern, QueryPattern::kWc);
}

// One shortened WC scenario pair; asserts DCC's fairness edge over vanilla.
TEST(ResilienceScenarioTest, DccProtectsBenignClients) {
  double medium_vanilla = 0;
  double medium_dcc = 0;
  for (bool dcc_enabled : {false, true}) {
    ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
    TrimToHorizon(&spec, Seconds(25));
    SetDcc(&spec, dcc_enabled);
    const ScenarioOutcome result = RunSpec(spec);
    ASSERT_EQ(result.clients.size(), 4u);
    const double medium = result.clients[1].success_ratio;
    (dcc_enabled ? medium_dcc : medium_vanilla) = medium;
    if (dcc_enabled) {
      EXPECT_GT(result.dcc_servfails, 0u);
    }
  }
  EXPECT_GT(medium_dcc, medium_vanilla + 0.2);
}

TEST(ResilienceScenarioTest, FairShareMatchesWaterFilling) {
  ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
  TrimToHorizon(&spec, Seconds(20));
  for (auto& client : spec.clients) {
    client.stop = Seconds(20);
    client.start = std::min(client.start, Seconds(10));
  }
  const ScenarioOutcome result = RunSpec(spec);
  // During 10-20 s all four clients are active on a 1000-QPS channel:
  // light (150) is satisfied; the rest share (1000-150)/3 = 283 each.
  const auto& heavy = result.clients[0];
  double heavy_rate = 0;
  for (size_t t = 14; t < 19; ++t) {
    heavy_rate += heavy.effective_qps[t] / 5;
  }
  EXPECT_NEAR(heavy_rate, 283, 45);
}

TEST(ValidationScenarioTest, CongestionGrowsWithAttackRate) {
  ScenarioSpec weak = LoadExampleSpec("fig4_a.json");
  weak.clients[0].qps = 1;
  const double benign_weak = BenignSuccess(RunSpec(weak));

  ScenarioSpec strong = weak;
  strong.clients[0].qps = 8;
  const double benign_strong = BenignSuccess(RunSpec(strong));

  EXPECT_GT(benign_weak, 0.8);
  EXPECT_LT(benign_strong, benign_weak - 0.3);
}

TEST(ValidationScenarioTest, ForwarderSetupTracksChannelCapacity) {
  ScenarioSpec below = LoadExampleSpec("fig4_c.json");
  below.clients[0].qps = 60;  // Below the 100-QPS RR channel.
  EXPECT_GT(BenignSuccess(RunSpec(below)), 0.9);

  ScenarioSpec above = below;
  above.clients[0].qps = 130;
  EXPECT_LT(BenignSuccess(RunSpec(above)), 0.6);
}

TEST(SignalingScenarioTest, SignalsReduceCollateralDamage) {
  double light_off = 0;
  double light_on = 0;
  for (bool signaling : {false, true}) {
    ScenarioSpec spec = LoadExampleSpec("fig9_ff.json");
    spec.horizon = Seconds(45);
    for (scenario::NodeSpec& node : spec.nodes) {
      node.dcc.signaling_enabled = signaling;
    }
    const ScenarioOutcome result = RunSpec(spec);
    // clients: Heavy, Medium, Light, Attacker.
    const double light = result.clients[2].success_ratio;
    (signaling ? light_on : light_off) = light;
    if (!signaling) {
      EXPECT_EQ(result.dcc_signals_attached, 0u);
    }
  }
  EXPECT_GT(light_on, light_off + 0.25);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  // The README promises bit-reproducible experiments: two runs of the same
  // scenario with the same seed must match event-for-event.
  ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
  TrimToHorizon(&spec, Seconds(15));
  const ScenarioOutcome a = RunSpec(spec);
  const ScenarioOutcome b = RunSpec(spec);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (size_t c = 0; c < a.clients.size(); ++c) {
    EXPECT_EQ(a.clients[c].sent, b.clients[c].sent);
    EXPECT_EQ(a.clients[c].succeeded, b.clients[c].succeeded);
    EXPECT_EQ(a.clients[c].effective_qps, b.clients[c].effective_qps);
  }
  EXPECT_EQ(a.ans[0].qps, b.ans[0].qps);
  EXPECT_EQ(a.dcc_servfails, b.dcc_servfails);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DeterminismTest, SeedChangesResults) {
  auto run = [](uint64_t seed) {
    ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
    TrimToHorizon(&spec, Seconds(10));
    SetDcc(&spec, false);
    spec.seed = seed;
    return RunSpec(spec);
  };
  const ScenarioOutcome a = run(1);
  const ScenarioOutcome b = run(2);
  // Different jitter seeds shift per-second outcomes.
  EXPECT_NE(a.clients[0].effective_qps, b.clients[0].effective_qps);
}

}  // namespace
}  // namespace dcc
