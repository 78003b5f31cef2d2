// Unit tests for src/server/upstream_tracker: RFC 6298 RTT smoothing,
// adaptive RTO, loss tracking, dead-server hold-down with geometric growth,
// and server ranking with exploration re-probes.

#include <gtest/gtest.h>

#include <vector>

#include "src/server/upstream_tracker.h"

namespace dcc {
namespace {

constexpr HostAddress kA = 1;
constexpr HostAddress kB = 2;
constexpr HostAddress kC = 3;

UpstreamTrackerConfig TestConfig() {
  UpstreamTrackerConfig config;
  config.min_rto = Milliseconds(10);  // Out of the way for RTO math tests.
  config.explore_probability = 0.0;   // Deterministic ranking by default.
  return config;
}

TEST(UpstreamTrackerTest, FirstSampleInitializesSrttPerRfc6298) {
  UpstreamTracker tracker(TestConfig(), 1);
  tracker.OnResponse(kA, Milliseconds(100), Seconds(1));
  EXPECT_EQ(tracker.Srtt(kA, 0), Milliseconds(100));
  // RTO = SRTT + 4 * RTTVAR, RTTVAR = R/2 on the first sample.
  EXPECT_EQ(tracker.RetransmitTimeout(kA, Seconds(1)), Milliseconds(300));
}

TEST(UpstreamTrackerTest, SrttConvergesTowardsStableRtt) {
  UpstreamTracker tracker(TestConfig(), 1);
  for (int i = 0; i < 50; ++i) {
    tracker.OnResponse(kA, Milliseconds(40), Seconds(i));
  }
  EXPECT_NEAR(static_cast<double>(tracker.Srtt(kA, 0)),
              static_cast<double>(Milliseconds(40)),
              static_cast<double>(Milliseconds(1)));
  // Variance decays; RTO approaches SRTT from above, clamped to min_rto.
  EXPECT_LT(tracker.RetransmitTimeout(kA, Seconds(1)), Milliseconds(60));
}

TEST(UpstreamTrackerTest, UnknownServerUsesFallbackTimeout) {
  UpstreamTracker tracker(TestConfig(), 1);
  EXPECT_EQ(tracker.Srtt(kA, Milliseconds(77)), Milliseconds(77));
  EXPECT_EQ(tracker.RetransmitTimeout(kA, Milliseconds(800)), Milliseconds(800));
  // Fallback is still clamped to max_rto.
  EXPECT_EQ(tracker.RetransmitTimeout(kA, Seconds(100)), TestConfig().max_rto);
}

TEST(UpstreamTrackerTest, HoldDownAfterConsecutiveTimeouts) {
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 3;
  config.holddown_initial = Seconds(2);
  UpstreamTracker tracker(config, 1);
  Time now = Seconds(10);
  tracker.OnTimeout(kA, now);
  tracker.OnTimeout(kA, now);
  EXPECT_FALSE(tracker.IsHeldDown(kA, now));
  tracker.OnTimeout(kA, now);
  EXPECT_TRUE(tracker.IsHeldDown(kA, now));
  EXPECT_EQ(tracker.holddowns_entered(), 1u);
  EXPECT_EQ(tracker.timeouts_observed(), 3u);
  // Expires after the initial window (the expiry is the re-probe moment).
  EXPECT_TRUE(tracker.IsHeldDown(kA, now + Seconds(2) - 1));
  EXPECT_FALSE(tracker.IsHeldDown(kA, now + Seconds(2)));
}

TEST(UpstreamTrackerTest, HoldDownWindowGrowsGeometrically) {
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 1;
  config.holddown_initial = Seconds(2);
  config.holddown_growth = 2.0;
  config.holddown_max = Seconds(5);
  UpstreamTracker tracker(config, 1);
  tracker.OnTimeout(kA, Seconds(0));  // 2 s window.
  EXPECT_FALSE(tracker.IsHeldDown(kA, Seconds(2)));
  tracker.OnTimeout(kA, Seconds(2));  // Re-probe failed: 4 s window.
  EXPECT_TRUE(tracker.IsHeldDown(kA, Seconds(2) + Seconds(4) - 1));
  EXPECT_FALSE(tracker.IsHeldDown(kA, Seconds(6)));
  tracker.OnTimeout(kA, Seconds(6));  // Capped at 5 s, not 8.
  EXPECT_FALSE(tracker.IsHeldDown(kA, Seconds(11)));
  EXPECT_EQ(tracker.holddowns_entered(), 3u);
}

TEST(UpstreamTrackerTest, ResponseClearsHoldDownAndLossDecays) {
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 1;
  UpstreamTracker tracker(config, 1);
  tracker.OnTimeout(kA, Seconds(1));
  EXPECT_TRUE(tracker.IsHeldDown(kA, Seconds(1)));
  EXPECT_GT(tracker.LossRate(kA), 0.0);
  tracker.OnResponse(kA, Milliseconds(50), Seconds(1) + Milliseconds(100));
  EXPECT_FALSE(tracker.IsHeldDown(kA, Seconds(1) + Milliseconds(100)));
  const double loss_after_one = tracker.LossRate(kA);
  for (int i = 0; i < 20; ++i) {
    tracker.OnResponse(kA, Milliseconds(50), Seconds(2) + Seconds(i));
  }
  EXPECT_LT(tracker.LossRate(kA), loss_after_one);
  // A recovered server starts a fresh hold-down ladder at the initial window.
  tracker.OnTimeout(kA, Seconds(30));
  EXPECT_TRUE(tracker.IsHeldDown(kA, Seconds(30)));
  EXPECT_FALSE(tracker.IsHeldDown(kA, Seconds(30) + config.holddown_initial));
}

TEST(UpstreamTrackerTest, HoldDownListenerSeesTransitions) {
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 1;
  UpstreamTracker tracker(config, 1);
  std::vector<std::pair<HostAddress, bool>> transitions;
  tracker.SetHoldDownListener([&](HostAddress server, bool down, Time) {
    transitions.emplace_back(server, down);
  });
  tracker.OnTimeout(kA, Seconds(1));
  tracker.OnTimeout(kA, Seconds(1) + Milliseconds(1));  // Already down: no event.
  tracker.OnResponse(kA, Milliseconds(10), Seconds(2));
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<HostAddress, bool>{kA, true}));
  EXPECT_EQ(transitions[1], (std::pair<HostAddress, bool>{kA, false}));
}

TEST(UpstreamTrackerTest, RankPrefersLiveAndFastServers) {
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 1;
  UpstreamTracker tracker(config, 1);
  const Time now = Seconds(10);
  tracker.OnResponse(kA, Milliseconds(100), now);
  tracker.OnResponse(kB, Milliseconds(20), now);
  tracker.OnTimeout(kC, now);  // Held down.
  std::vector<HostAddress> servers = {kC, kA, kB};
  tracker.Rank(servers, now);
  EXPECT_EQ(servers, (std::vector<HostAddress>{kB, kA, kC}));
  // Unsampled servers are probed before slower sampled ones.
  std::vector<HostAddress> with_new = {kA, kB, 9};
  tracker.Rank(with_new, now);
  EXPECT_EQ(with_new[0], 9u);
}

TEST(UpstreamTrackerTest, ExplorationOccasionallyPromotesNonBest) {
  UpstreamTrackerConfig config = TestConfig();
  config.explore_probability = 0.5;
  UpstreamTracker tracker(config, 7);
  const Time now = Seconds(1);
  tracker.OnResponse(kA, Milliseconds(10), now);
  tracker.OnResponse(kB, Milliseconds(200), now);
  int promoted = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<HostAddress> servers = {kA, kB};
    tracker.Rank(servers, now);
    if (servers[0] == kB) {
      ++promoted;
    }
  }
  EXPECT_GT(promoted, 50);
  EXPECT_LT(promoted, 150);
}

TEST(UpstreamTrackerTest, PurgeDropsIdleServers) {
  UpstreamTracker tracker(TestConfig(), 1);
  tracker.OnResponse(kA, Milliseconds(10), Seconds(1));
  tracker.OnResponse(kB, Milliseconds(10), Seconds(50));
  EXPECT_EQ(tracker.TrackedCount(), 2u);
  tracker.Purge(Seconds(60), Seconds(30));
  EXPECT_EQ(tracker.TrackedCount(), 1u);
  EXPECT_GT(tracker.MemoryFootprint(), 0u);
}

TEST(UpstreamTrackerTest, TelemetryExportsSrttGaugeAndCounters) {
  telemetry::MetricsRegistry registry;
  UpstreamTrackerConfig config = TestConfig();
  config.holddown_after = 1;
  telemetry::Observer obs(&registry, nullptr, nullptr);
  UpstreamTracker tracker(config, 1, &obs, /*actor=*/0x0a000009);
  tracker.OnResponse(0x0a000001, Milliseconds(40), Seconds(1));
  tracker.OnTimeout(0x0a000002, Seconds(1));
  const auto snapshot = registry.Snapshot();
  const telemetry::Labels host{{"host", "10.0.0.9"}};
  EXPECT_EQ(snapshot.Value("srtt_ms", {{"host", "10.0.0.9"}, {"upstream", "10.0.0.1"}}),
            40.0);
  EXPECT_EQ(snapshot.Value("upstream_timeouts_total", host), 1.0);
  EXPECT_EQ(snapshot.Value("upstream_holddowns_total", host), 1.0);
}

}  // namespace
}  // namespace dcc
