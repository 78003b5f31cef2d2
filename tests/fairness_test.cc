// Tests for the shared benign-collateral summaries (src/measure/fairness):
// victim selection, starvation streaks, Jain aggregation, the Fig. 8 landed-
// load series, and the engine-outcome converter's attacker flag.

#include <gtest/gtest.h>

#include <vector>

#include "src/measure/fairness.h"

namespace dcc {
namespace measure {
namespace {

ClientFairnessSample Sample(const char* label, bool attacker, double ratio,
                            std::vector<double> series = {}) {
  ClientFairnessSample sample;
  sample.label = label;
  sample.is_attacker = attacker;
  sample.sent = 100;
  sample.success_ratio = ratio;
  sample.effective_qps = std::move(series);
  return sample;
}

TEST(FairnessTest, WorstAndMeanOverBenignClientsOnly) {
  const std::vector<ClientFairnessSample> samples = {
      Sample("Heavy", false, 0.2),
      Sample("Light", false, 0.8),
      Sample("Attacker", true, 0.01),  // Must not become the victim.
  };
  const BenignCollateral out = SummarizeBenignCollateral(samples);
  EXPECT_EQ(out.benign_clients, 2u);
  EXPECT_DOUBLE_EQ(out.worst_ratio, 0.2);
  EXPECT_EQ(out.worst_label, "Heavy");
  EXPECT_DOUBLE_EQ(out.mean_ratio, 0.5);
  // Jain over {0.2, 0.8}: (1.0)^2 / (2 * 0.68).
  EXPECT_NEAR(out.jain_index, 1.0 / 1.36, 1e-12);
}

TEST(FairnessTest, NeverActiveClientsAreNotVictims) {
  std::vector<ClientFairnessSample> samples = {
      Sample("Active", false, 0.9),
      Sample("Late", false, 0.0),  // Scheduled after the horizon; sent = 0.
  };
  samples[1].sent = 0;
  const BenignCollateral out = SummarizeBenignCollateral(samples);
  EXPECT_EQ(out.benign_clients, 1u);
  EXPECT_EQ(out.worst_label, "Active");
  EXPECT_DOUBLE_EQ(out.worst_ratio, 0.9);
}

TEST(FairnessTest, EmptyPopulationKeepsVacuousDefaults) {
  const BenignCollateral out =
      SummarizeBenignCollateral({Sample("Attacker", true, 0.0)});
  EXPECT_EQ(out.benign_clients, 0u);
  EXPECT_DOUBLE_EQ(out.worst_ratio, 1.0);
  EXPECT_DOUBLE_EQ(out.mean_ratio, 1.0);
  EXPECT_DOUBLE_EQ(out.jain_index, 1.0);
}

TEST(FairnessTest, StarvationStreakMeasuredInsideActiveWindow) {
  // Zeros before the first and after the last success are schedule, not
  // starvation; the three zeros in the middle are.
  const std::vector<ClientFairnessSample> samples = {
      Sample("Victim", false, 0.5, {0, 0, 3, 0, 0, 0, 2, 0}),
  };
  const BenignCollateral out = SummarizeBenignCollateral(samples);
  EXPECT_EQ(out.max_starved_seconds, 3u);
}

TEST(FairnessTest, AllZeroSeriesHasNoObservableWindow) {
  const std::vector<ClientFairnessSample> samples = {
      Sample("Silent", false, 0.0, {0, 0, 0, 0}),
  };
  EXPECT_EQ(SummarizeBenignCollateral(samples).max_starved_seconds, 0u);
}

TEST(FairnessTest, AttackerLandedSeriesSubtractsBenignShare) {
  const std::vector<ClientFairnessSample> samples = {
      Sample("Benign1", false, 1.0, {10, 20, 5}),
      Sample("Benign2", false, 1.0, {5, 5}),  // Shorter series: padded by 0.
      Sample("Attacker", true, 1.0, {100, 100, 100}),
  };
  const std::vector<double> landed =
      AttackerLandedSeries(samples, {50, 20, 30});
  ASSERT_EQ(landed.size(), 3u);
  EXPECT_DOUBLE_EQ(landed[0], 35);  // 50 - 15.
  EXPECT_DOUBLE_EQ(landed[1], 0);   // 20 - 25, floored at zero.
  EXPECT_DOUBLE_EQ(landed[2], 25);  // 30 - 5.
}

TEST(FairnessTest, OutcomeConverterCarriesAttackerFlag) {
  scenario::ClientOutcome benign;
  benign.label = "Heavy";
  benign.sent = 10;
  benign.success_ratio = 0.4;
  scenario::ClientOutcome attacker;
  attacker.label = "Attacker";
  attacker.is_attacker = true;
  attacker.sent = 10;
  attacker.success_ratio = 0.1;
  const std::vector<ClientFairnessSample> samples =
      FairnessSamples(std::vector<scenario::ClientOutcome>{benign, attacker});
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_FALSE(samples[0].is_attacker);
  EXPECT_TRUE(samples[1].is_attacker);
  EXPECT_EQ(SummarizeBenignCollateral(samples).worst_label, "Heavy");
}

}  // namespace
}  // namespace measure
}  // namespace dcc
