// Tests for the rate-limit probing methodology (src/measure): the binary
// search must recover configured ground-truth limits within its tolerance,
// flag unlimited resolvers as uncertain, and classify into Fig. 2's buckets.

#include <gtest/gtest.h>

#include "src/measure/rate_limit_probe.h"

namespace dcc {
namespace {

ProbeConfig FastProbe() {
  ProbeConfig config;
  config.step_duration = Seconds(2);
  return config;
}

TEST(ClassifyTest, Buckets) {
  EXPECT_EQ(ClassifyQps(50, false), QpsBucket::k1To100);
  EXPECT_EQ(ClassifyQps(100, false), QpsBucket::k1To100);
  EXPECT_EQ(ClassifyQps(101, false), QpsBucket::k101To500);
  EXPECT_EQ(ClassifyQps(1500, false), QpsBucket::k501To1500);
  EXPECT_EQ(ClassifyQps(4000, false), QpsBucket::k1501To5000);
  EXPECT_EQ(ClassifyQps(4000, true), QpsBucket::kUncertain);
  EXPECT_STREQ(QpsBucketName(QpsBucket::kUncertain), "Uncertain");
}

TEST(PopulationTest, MatchesPaperShape) {
  const auto population = MakeFig2Population(7);
  ASSERT_EQ(population.size(), 45u);
  int below_100 = 0;
  int below_1500 = 0;
  int unlimited = 0;
  for (const auto& profile : population) {
    if (profile.irl_noerror_qps == 0) {
      ++unlimited;
    } else {
      below_100 += profile.irl_noerror_qps <= 100 ? 1 : 0;
      below_1500 += profile.irl_noerror_qps <= 1500 ? 1 : 0;
    }
    // NXDOMAIN limits never exceed the NOERROR limit.
    EXPECT_LE(profile.irl_nxdomain_qps, profile.irl_noerror_qps);
  }
  EXPECT_GE(below_100, 45 / 3);  // "Over one third below 100 QPS".
  EXPECT_GE(below_1500, 38);     // "Around 40 below 1500 QPS".
  EXPECT_GE(unlimited, 2);
}

TEST(ProbeTest, RecoversIngressLimit) {
  ResolverProfile profile;
  profile.name = "T1";
  profile.irl_noerror_qps = 80;
  profile.irl_nxdomain_qps = 40;
  const MeasuredLimits limits = ProbeResolver(profile, FastProbe(), 1);
  EXPECT_FALSE(limits.irl_wc_uncertain);
  EXPECT_NEAR(limits.irl_wc, 80, 20);
  EXPECT_FALSE(limits.irl_nx_uncertain);
  EXPECT_NEAR(limits.irl_nx, 40, 15);
}

TEST(ProbeTest, RecoversEgressLimitThroughAmplification) {
  ResolverProfile profile;
  profile.name = "T2";
  profile.irl_noerror_qps = 500;
  profile.irl_nxdomain_qps = 500;
  profile.egress_qps = 200;
  const MeasuredLimits limits = ProbeResolver(profile, FastProbe(), 2);
  EXPECT_FALSE(limits.erl_ff_uncertain);
  EXPECT_NEAR(limits.erl_ff, 200, 50);
  EXPECT_FALSE(limits.erl_cq_uncertain);
  EXPECT_NEAR(limits.erl_cq, 200, 60);
}

TEST(ProbeTest, UnlimitedResolverIsUncertain) {
  ResolverProfile profile;
  profile.name = "T3";  // No limits at all.
  const MeasuredLimits limits = ProbeResolver(profile, FastProbe(), 3);
  EXPECT_TRUE(limits.irl_wc_uncertain);
  EXPECT_TRUE(limits.irl_nx_uncertain);
  EXPECT_TRUE(limits.erl_cq_uncertain);
  EXPECT_TRUE(limits.erl_ff_uncertain);
}

TEST(ProbeTest, SharedZonesGiveIdenticalLimits) {
  // Probing several resolvers against one set of zones (as the Fig. 2 bench
  // does) measures exactly what zones built for each resolver measure.
  ResolverProfile limited;
  limited.name = "T4";
  limited.irl_noerror_qps = 300;
  limited.irl_nxdomain_qps = 150;
  limited.egress_qps = 250;
  ResolverProfile unlimited;
  unlimited.name = "T5";
  unlimited.irl_noerror_qps = 60;
  ProbeZones shared;
  for (const ResolverProfile& profile : {limited, unlimited}) {
    const MeasuredLimits fresh = ProbeResolver(profile, FastProbe(), 4);
    EXPECT_EQ(ProbeResolver(profile, FastProbe(), 4, &shared), fresh) << profile.name;
  }
  // Each zone was built once and handed out again since.
  EXPECT_EQ(shared.Attacker(), shared.Attacker());
  EXPECT_EQ(shared.Target(/*cq_chains=*/true, 0x0a000001),
            shared.Target(/*cq_chains=*/true, 0x0a000001));
}

TEST(HistogramTest, CountsPerSeries) {
  std::vector<MeasuredLimits> measurements(3);
  measurements[0].irl_wc = 50;
  measurements[1].irl_wc = 400;
  measurements[2].irl_wc_uncertain = true;
  for (auto& m : measurements) {
    m.irl_nx = m.irl_wc;
    m.irl_nx_uncertain = m.irl_wc_uncertain;
    m.erl_cq_uncertain = true;
    m.erl_ff_uncertain = true;
  }
  const Fig2Histogram histogram = BuildFig2Histogram(measurements);
  EXPECT_EQ(histogram.counts[0][0], 1);  // IRL WC in 1-100.
  EXPECT_EQ(histogram.counts[0][1], 1);  // IRL WC in 101-500.
  EXPECT_EQ(histogram.counts[0][4], 1);  // Uncertain.
  EXPECT_EQ(histogram.counts[2][4], 3);  // All ERL CQ uncertain.
}

}  // namespace
}  // namespace dcc
