// Tests for the MOPI-FQ scheduler (paper §4.2, Appendix B): functional
// behavior, the Fig. 13 failure modes, cross-queue arrival ordering,
// latest-round eviction, weighted shares, and the Theorem B.1 max-min
// fairness property checked against the analytic water-filling allocation.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/dcc/mopi_fq.h"

namespace dcc {
namespace {

MopiFqConfig SmallConfig() {
  MopiFqConfig config;
  config.pool_capacity = 1000;
  config.max_poq_depth = 10;
  config.max_rounds = 8;
  config.default_channel_qps = 100.0;
  config.channel_burst = 50.0;
  return config;
}

SchedMessage Msg(SourceId src, OutputId out, Time arrival, uint64_t cookie = 0) {
  return SchedMessage{src, out, arrival, cookie};
}

TEST(MopiFqTest, EnqueueDequeueSingleMessage) {
  MopiFq fq(SmallConfig());
  EXPECT_EQ(fq.Enqueue(Msg(1, 100, 0, 42), 0).result, EnqueueResult::kSuccess);
  EXPECT_EQ(fq.QueuedCount(), 1u);
  auto msg = fq.Dequeue(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->cookie, 42u);
  EXPECT_EQ(fq.QueuedCount(), 0u);
  EXPECT_FALSE(fq.Dequeue(0).has_value());
  fq.CheckInvariants();
}

TEST(MopiFqTest, DequeueEmptyReturnsNothing) {
  MopiFq fq(SmallConfig());
  EXPECT_FALSE(fq.Dequeue(0).has_value());
  EXPECT_EQ(fq.NextReadyTime(0), kTimeInfinity);
}

TEST(MopiFqTest, RoundRobinInterleavesSources) {
  MopiFq fq(SmallConfig());
  // Source 1 enqueues 3 messages, then source 2 enqueues 3; fair scheduling
  // must interleave them by round: 1,2 | 1,2 | 1,2.
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(1, 100, static_cast<Time>(i), 10 + i), 0).result,
              EnqueueResult::kSuccess);
  }
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(2, 100, static_cast<Time>(10 + i), 20 + i), 0).result,
              EnqueueResult::kSuccess);
  }
  std::vector<SourceId> order;
  while (auto msg = fq.Dequeue(Seconds(10))) {
    order.push_back(msg->source);
  }
  EXPECT_EQ(order, (std::vector<SourceId>{1, 2, 1, 2, 1, 2}));
  fq.CheckInvariants();
}

TEST(MopiFqTest, ClientOverspeedRejected) {
  MopiFqConfig config = SmallConfig();
  config.max_poq_depth = 100;  // Queue depth not the limiting factor.
  MopiFq fq(config);
  // A single source may occupy at most max_rounds rounds.
  for (int i = 0; i < config.max_rounds; ++i) {
    EXPECT_EQ(fq.Enqueue(Msg(1, 100, i, static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
  }
  EXPECT_EQ(fq.Enqueue(Msg(1, 100, 99, 99), 0).result,
            EnqueueResult::kClientOverspeed);
  // Other sources are unaffected.
  EXPECT_EQ(fq.Enqueue(Msg(2, 100, 100, 100), 0).result, EnqueueResult::kSuccess);
  fq.CheckInvariants();
}

TEST(MopiFqTest, ChannelCongestedWhenQueueFullAtLatestRound) {
  MopiFq fq(SmallConfig());  // depth 10
  // Ten distinct sources fill round 0.
  for (SourceId s = 1; s <= 10; ++s) {
    ASSERT_EQ(fq.Enqueue(Msg(s, 100, 0, s), 0).result, EnqueueResult::kSuccess);
  }
  // An 11th source's message would join the latest round of a full queue.
  EXPECT_EQ(fq.Enqueue(Msg(11, 100, 0, 11), 0).result,
            EnqueueResult::kChannelCongested);
  EXPECT_EQ(fq.QueuedCount(), 10u);
  fq.CheckInvariants();
}

TEST(MopiFqTest, LowerRoundMessageEvictsLatestRound) {
  MopiFq fq(SmallConfig());  // depth 10
  // Source 1 is fast: fills 9 slots across rounds 0..8? max_rounds=8 caps
  // it; use two sources. Source 1 takes rounds 0..7 (8 msgs), source 2 takes
  // 2 slots in rounds 0,1 -> queue full at 10.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(1, 100, i, 100 + static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
  }
  ASSERT_EQ(fq.Enqueue(Msg(2, 100, 20, 200), 0).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(2, 100, 21, 201), 0).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.QueuedCount(), 10u);
  // Source 3 arrives fresh -> joins round 0, which precedes the latest
  // round; it must be admitted and evict source 1's latest-round message.
  const EnqueueOutcome outcome = fq.Enqueue(Msg(3, 100, 30, 300), 0);
  EXPECT_EQ(outcome.result, EnqueueResult::kSuccess);
  ASSERT_TRUE(outcome.evicted.has_value());
  EXPECT_EQ(outcome.evicted->source, 1u);
  EXPECT_EQ(outcome.evicted->cookie, 107u);  // Source 1's round-7 message.
  EXPECT_EQ(fq.QueuedCount(), 10u);
  fq.CheckInvariants();
}

TEST(MopiFqTest, PoolOverflowAcrossQueues) {
  MopiFqConfig config = SmallConfig();
  config.pool_capacity = 10;
  config.max_poq_depth = 10;
  MopiFq fq(config);
  // Fill the pool via output 100 with distinct sources (all in round 0).
  for (SourceId s = 1; s <= 10; ++s) {
    ASSERT_EQ(fq.Enqueue(Msg(s, 100, 0, s), 0).result, EnqueueResult::kSuccess);
  }
  // A brand-new output cannot allocate an entry.
  EXPECT_EQ(fq.Enqueue(Msg(1, 200, 1, 99), 0).result, EnqueueResult::kQueueOverflow);
  fq.CheckInvariants();
}

TEST(MopiFqTest, DequeueHonorsChannelCapacity) {
  MopiFqConfig config = SmallConfig();
  config.default_channel_qps = 10.0;  // One token per 100 ms.
  config.channel_burst = 1.0;
  MopiFq fq(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(static_cast<SourceId>(i + 1), 100, 0, 0), 0).result,
              EnqueueResult::kSuccess);
  }
  EXPECT_TRUE(fq.Dequeue(0).has_value());
  EXPECT_FALSE(fq.Dequeue(0).has_value());  // Token exhausted.
  const Time next = fq.NextReadyTime(0);
  EXPECT_GT(next, 0);
  EXPECT_LE(next, Milliseconds(101));
  EXPECT_TRUE(fq.Dequeue(next).has_value());
  fq.CheckInvariants();
}

TEST(MopiFqTest, CrossQueueArrivalOrderPreserved) {
  MopiFq fq(SmallConfig());
  // Messages to three different outputs arriving in time order must leave
  // in the same order (pseudo-isolation preserves global arrival order).
  ASSERT_EQ(fq.Enqueue(Msg(1, 300, 30, 3), 30).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(1, 100, 10, 1), 31).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(1, 200, 20, 2), 32).result, EnqueueResult::kSuccess);
  std::vector<uint64_t> cookies;
  while (auto msg = fq.Dequeue(Seconds(1))) {
    cookies.push_back(msg->cookie);
  }
  EXPECT_EQ(cookies, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(MopiFqTest, CongestedChannelSkippedForAvailableOne) {
  MopiFqConfig config = SmallConfig();
  config.channel_burst = 1.0;
  MopiFq fq(config);
  fq.SetChannelCapacity(100, 1.0);    // Very slow channel.
  fq.SetChannelCapacity(200, 1000.0);  // Fast channel.
  // Output 100's message arrives first but its channel congests after one
  // dequeue; output 200's messages must not be blocked behind it.
  ASSERT_EQ(fq.Enqueue(Msg(1, 100, 0, 10), 0).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(1, 100, 1, 11), 1).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(2, 200, 2, 20), 2).result, EnqueueResult::kSuccess);
  ASSERT_EQ(fq.Enqueue(Msg(2, 200, 3, 21), 3).result, EnqueueResult::kSuccess);
  std::vector<uint64_t> cookies;
  for (int i = 0; i < 3; ++i) {
    auto msg = fq.Dequeue(Milliseconds(5 + i));
    if (msg.has_value()) {
      cookies.push_back(msg->cookie);
    }
  }
  // First the channel-100 head (arrived first), then channel 200's two
  // messages while 100 recovers.
  EXPECT_EQ(cookies, (std::vector<uint64_t>{10, 20, 21}));
  fq.CheckInvariants();
}

TEST(MopiFqTest, NewSourceJoinsCurrentRoundNotLatest) {
  MopiFq fq(SmallConfig());
  // Source 1 builds up rounds 0..3.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(1, 100, i, 100 + static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
  }
  // Source 2 arrives later but joins round 0 -> dequeued 2nd, not 5th.
  ASSERT_EQ(fq.Enqueue(Msg(2, 100, 50, 200), 0).result, EnqueueResult::kSuccess);
  std::vector<uint64_t> cookies;
  while (auto msg = fq.Dequeue(Seconds(10))) {
    cookies.push_back(msg->cookie);
  }
  ASSERT_EQ(cookies.size(), 5u);
  EXPECT_EQ(cookies[0], 100u);
  EXPECT_EQ(cookies[1], 200u);  // Source 2's message in round 0.
}

TEST(MopiFqTest, QueueStateReleasedWhenDrained) {
  MopiFq fq(SmallConfig());
  ASSERT_EQ(fq.Enqueue(Msg(1, 100, 0, 1), 0).result, EnqueueResult::kSuccess);
  EXPECT_EQ(fq.ActiveOutputCount(), 1u);
  EXPECT_EQ(fq.QueueDepth(100), 1);
  ASSERT_TRUE(fq.Dequeue(1).has_value());
  EXPECT_EQ(fq.ActiveOutputCount(), 0u);
  EXPECT_EQ(fq.QueueDepth(100), 0);
  // Rate-limiter state persists until purged.
  fq.PurgeIdle(Seconds(20), Seconds(10));
  fq.CheckInvariants();
}

TEST(MopiFqTest, MemoryFootprintGrowsWithServersNotMessages) {
  MopiFqConfig config = SmallConfig();
  config.pool_capacity = 10000;
  MopiFq fq(config);
  const size_t base = fq.MemoryFootprint();
  for (OutputId out = 1; out <= 100; ++out) {
    ASSERT_EQ(fq.Enqueue(Msg(1, out, 0, out), 0).result, EnqueueResult::kSuccess);
  }
  const size_t with_servers = fq.MemoryFootprint();
  EXPECT_GT(with_servers, base);
  // The pre-allocated pool dominates; per-server overhead is bounded.
  EXPECT_LT(with_servers - base, 100 * 2048);
}

TEST(MopiFqTest, WeightedShareGetsProportionalSlots) {
  MopiFqConfig config = SmallConfig();
  config.max_poq_depth = 100;
  MopiFq fq(config);
  fq.SetSourceShare(1, 2.0);  // Source 1 gets 2 slots per round.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(1, 100, i, 100 + static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
    ASSERT_EQ(fq.Enqueue(Msg(2, 100, 10 + i, 200 + static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
  }
  std::vector<SourceId> order;
  while (auto msg = fq.Dequeue(Seconds(10))) {
    order.push_back(msg->source);
  }
  // Per round: two messages from source 1, one from source 2.
  ASSERT_GE(order.size(), 6u);
  int s1_first_six = 0;
  for (size_t i = 0; i < 6; ++i) {
    s1_first_six += order[i] == 1 ? 1 : 0;
  }
  EXPECT_EQ(s1_first_six, 4);  // Rounds 0 and 1: 2x source1 + 1x source2 each.
  fq.CheckInvariants();
}

TEST(MopiFqTest, PurgeIdleDropsOnlyInactiveChannels) {
  MopiFq fq(SmallConfig());
  ASSERT_EQ(fq.Enqueue(Msg(1, 100, 0, 1), 0).result, EnqueueResult::kSuccess);
  // Active channel survives purge even when old.
  fq.PurgeIdle(Seconds(100), Seconds(10));
  EXPECT_EQ(fq.QueuedCount(), 1u);
  EXPECT_TRUE(fq.Dequeue(Seconds(100)).has_value());
  fq.CheckInvariants();
}

// ---------------------------------------------------------------------------
// Fairness property: MOPI-FQ throughput matches water filling (Theorem B.1).
// ---------------------------------------------------------------------------

struct FairnessCase {
  double capacity_qps;
  std::vector<double> demands_qps;
  std::string label;
};

class MopiFairnessTest : public ::testing::TestWithParam<FairnessCase> {};

// Drives constant-rate sources through one channel for `horizon` and
// compares per-source goodput with the analytic MMF allocation.
TEST_P(MopiFairnessTest, MatchesWaterFilling) {
  const FairnessCase& test_case = GetParam();
  MopiFqConfig config;
  config.pool_capacity = 100000;
  config.max_poq_depth = 100;
  config.max_rounds = 75;
  config.default_channel_qps = test_case.capacity_qps;
  config.channel_burst = 4.0;
  MopiFq fq(config);

  const Duration horizon = Seconds(20);
  const OutputId out = 7;
  std::map<Time, std::vector<SourceId>> arrivals;
  for (size_t s = 0; s < test_case.demands_qps.size(); ++s) {
    const double rate = test_case.demands_qps[s];
    const auto interval = static_cast<Duration>(static_cast<double>(kSecond) / rate);
    for (Time t = static_cast<Time>(s); t < horizon; t += interval) {
      arrivals[t].push_back(static_cast<SourceId>(s + 1));
    }
  }

  std::vector<int64_t> delivered(test_case.demands_qps.size(), 0);
  Time now = 0;
  for (const auto& [t, sources] : arrivals) {
    // Drain everything schedulable before this arrival burst.
    while (true) {
      const Time ready = fq.NextReadyTime(now);
      if (ready > t) {
        break;
      }
      now = std::max(now, ready);
      auto msg = fq.Dequeue(now);
      if (!msg.has_value()) {
        break;
      }
      delivered[msg->source - 1]++;
    }
    now = t;
    for (SourceId s : sources) {
      fq.Enqueue(Msg(s, out, now, 0), now);
    }
  }
  // Final drain.
  while (true) {
    const Time ready = fq.NextReadyTime(now);
    if (ready > horizon) {
      break;
    }
    now = std::max(now, ready);
    auto msg = fq.Dequeue(now);
    if (!msg.has_value()) {
      break;
    }
    delivered[msg->source - 1]++;
  }

  const std::vector<double> expected =
      WaterFilling(test_case.capacity_qps, test_case.demands_qps);
  for (size_t s = 0; s < expected.size(); ++s) {
    const double achieved = static_cast<double>(delivered[s]) / ToSeconds(horizon);
    EXPECT_NEAR(achieved, expected[s], std::max(1.5, expected[s] * 0.12))
        << test_case.label << " source " << s << " demand "
        << test_case.demands_qps[s];
  }
  fq.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    WaterFilling, MopiFairnessTest,
    ::testing::Values(
        FairnessCase{100, {200, 200}, "two_equal_overload"},
        FairnessCase{100, {10, 200}, "light_heavy"},
        FairnessCase{100, {10, 20, 500}, "mixed_three"},
        FairnessCase{100, {30, 30, 30}, "underload"},
        FairnessCase{100, {5, 45, 80, 300}, "staircase"},
        FairnessCase{50, {100, 100, 100, 100, 100}, "five_heavy"},
        FairnessCase{200, {20, 40, 60, 80, 100}, "ramp"}),
    [](const ::testing::TestParamInfo<FairnessCase>& param_info) {
      return param_info.param.label;
    });

// Randomized fairness sweep: Jain index of heavy sources must be ~1.
TEST(MopiFairnessRandomTest, HeavySourcesShareEqually) {
  Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    MopiFqConfig config;
    config.default_channel_qps = 100;
    MopiFq fq(config);
    const int sources = 2 + static_cast<int>(rng.NextBelow(6));
    const Duration horizon = Seconds(10);
    std::map<Time, std::vector<SourceId>> arrivals;
    for (int s = 0; s < sources; ++s) {
      const double rate = 100.0 + static_cast<double>(rng.NextBelow(400));
      const auto interval = static_cast<Duration>(static_cast<double>(kSecond) / rate);
      for (Time t = s * 17; t < horizon; t += interval) {
        arrivals[t].push_back(static_cast<SourceId>(s + 1));
      }
    }
    std::vector<double> delivered(static_cast<size_t>(sources), 0);
    Time now = 0;
    for (const auto& [t, srcs] : arrivals) {
      while (true) {
        const Time ready = fq.NextReadyTime(now);
        if (ready > t) {
          break;
        }
        now = std::max(now, ready);
        auto msg = fq.Dequeue(now);
        if (!msg.has_value()) {
          break;
        }
        delivered[msg->source - 1] += 1;
      }
      now = t;
      for (SourceId s : srcs) {
        fq.Enqueue(Msg(s, 1, now, 0), now);
      }
    }
    const double jain = JainFairnessIndex(delivered);
    EXPECT_GT(jain, 0.97) << "trial " << trial << " sources " << sources;
    fq.CheckInvariants();
  }
}

TEST(MopiFqTest, PoolFullEvictionAcrossQueues) {
  // Pool exhausted by queue B's backlog; a lower-round insert on queue A
  // (which is NOT at its own depth limit) must still be admitted by
  // evicting from A's latest round (freeing a pool slot).
  MopiFqConfig config = SmallConfig();
  config.pool_capacity = 12;
  config.max_poq_depth = 10;
  MopiFq fq(config);
  // Queue A: source 1 occupies rounds 0..3.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(fq.Enqueue(Msg(1, 100, i, 100 + static_cast<uint64_t>(i)), 0).result,
              EnqueueResult::kSuccess);
  }
  // Queue B: 8 distinct sources fill the pool to 12.
  for (SourceId s = 1; s <= 8; ++s) {
    ASSERT_EQ(fq.Enqueue(Msg(s, 200, 10 + s, 200 + s), 0).result,
              EnqueueResult::kSuccess);
  }
  ASSERT_EQ(fq.QueuedCount(), 12u);
  // New source on queue A joins round 0 < A's latest round 3: admitted by
  // evicting A's round-3 tail despite the pool being full.
  const EnqueueOutcome outcome = fq.Enqueue(Msg(9, 100, 50, 900), 0);
  EXPECT_EQ(outcome.result, EnqueueResult::kSuccess);
  ASSERT_TRUE(outcome.evicted.has_value());
  EXPECT_EQ(outcome.evicted->cookie, 103u);  // Source 1's round-3 message.
  EXPECT_EQ(fq.QueuedCount(), 12u);
  // A same-or-later-round insert on queue B is still refused.
  EXPECT_EQ(fq.Enqueue(Msg(10, 300, 60, 0), 0).result,
            EnqueueResult::kQueueOverflow);
  fq.CheckInvariants();
}

TEST(MopiFqTest, DrainedSchedulerIsReusable) {
  MopiFq fq(SmallConfig());
  for (int round = 0; round < 3; ++round) {
    const Time base = round * Seconds(10);
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_EQ(fq.Enqueue(Msg(static_cast<SourceId>(1 + i % 2), 100,
                               base + static_cast<Time>(i), i),
                           base)
                    .result,
                EnqueueResult::kSuccess);
    }
    int drained = 0;
    while (fq.Dequeue(base + Seconds(9)).has_value()) {
      ++drained;
    }
    EXPECT_EQ(drained, 5);
    fq.PurgeIdle(base + Seconds(9), Seconds(1));
    fq.CheckInvariants();
  }
}

TEST(MopiFqStressTest, WeightedSharesKeepInvariants) {
  MopiFqConfig config;
  config.pool_capacity = 400;
  config.max_poq_depth = 25;
  config.max_rounds = 12;
  config.default_channel_qps = 500;
  MopiFq fq(config);
  fq.SetSourceShare(1, 3.0);
  fq.SetSourceShare(2, 0.5);
  Rng rng(7);
  Time now = 0;
  for (int i = 0; i < 15000; ++i) {
    now += static_cast<Time>(rng.NextBelow(300));
    if (rng.NextBool(0.65)) {
      fq.Enqueue(Msg(static_cast<SourceId>(1 + rng.NextBelow(5)),
                     static_cast<OutputId>(100 + rng.NextBelow(4)), now,
                     static_cast<uint64_t>(i)),
                 now);
    } else {
      fq.Dequeue(now);
    }
    if (i % 1000 == 0) {
      fq.CheckInvariants();
    }
  }
  fq.CheckInvariants();
}

TEST(MopiFqStressTest, RandomOperationsKeepInvariants) {
  MopiFqConfig config;
  config.pool_capacity = 500;
  config.max_poq_depth = 20;
  config.max_rounds = 10;
  config.default_channel_qps = 1000;
  MopiFq fq(config);
  Rng rng(99);
  Time now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<Time>(rng.NextBelow(200));
    if (rng.NextBool(0.6)) {
      const auto src = static_cast<SourceId>(1 + rng.NextBelow(12));
      const auto out = static_cast<OutputId>(100 + rng.NextBelow(8));
      fq.Enqueue(Msg(src, out, now, static_cast<uint64_t>(i)), now);
    } else {
      fq.Dequeue(now);
    }
    if (i % 500 == 0) {
      fq.CheckInvariants();
    }
  }
  fq.CheckInvariants();
}

// ---------------------------------------------------------------------------
// WaterFilling reference itself.
// ---------------------------------------------------------------------------

TEST(WaterFillingTest, UnderloadSatisfiesAll) {
  const auto alloc = WaterFilling(100, {10, 20, 30});
  EXPECT_DOUBLE_EQ(alloc[0], 10);
  EXPECT_DOUBLE_EQ(alloc[1], 20);
  EXPECT_DOUBLE_EQ(alloc[2], 30);
}

TEST(WaterFillingTest, OverloadSplitsEqually) {
  const auto alloc = WaterFilling(90, {100, 100, 100});
  EXPECT_DOUBLE_EQ(alloc[0], 30);
  EXPECT_DOUBLE_EQ(alloc[1], 30);
  EXPECT_DOUBLE_EQ(alloc[2], 30);
}

TEST(WaterFillingTest, MixedDemands) {
  // C=100, demands {10, 200, 200}: 10 + 45 + 45.
  const auto alloc = WaterFilling(100, {10, 200, 200});
  EXPECT_DOUBLE_EQ(alloc[0], 10);
  EXPECT_DOUBLE_EQ(alloc[1], 45);
  EXPECT_DOUBLE_EQ(alloc[2], 45);
}

TEST(WaterFillingTest, WeightedShares) {
  // C=90, equal demands, shares 2:1 -> 60/30.
  const auto alloc = WeightedWaterFilling(90, {100, 100}, {2, 1});
  EXPECT_DOUBLE_EQ(alloc[0], 60);
  EXPECT_DOUBLE_EQ(alloc[1], 30);
}

TEST(WaterFillingTest, AllocationsSumToCapacityUnderOverload) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const double capacity = 50 + static_cast<double>(rng.NextBelow(500));
    std::vector<double> demands;
    double total = 0;
    for (int s = 0; s < 6; ++s) {
      demands.push_back(1 + static_cast<double>(rng.NextBelow(300)));
      total += demands.back();
    }
    const auto alloc = WaterFilling(capacity, demands);
    double sum = 0;
    for (size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      sum += alloc[i];
    }
    EXPECT_NEAR(sum, std::min(capacity, total), 1e-6);
  }
}

TEST(WaterFillingTest, MaxMinProperty) {
  // No allocation element can be raised without lowering a smaller one:
  // all unsatisfied sources receive the same (maximal) level.
  const auto alloc = WaterFilling(100, {5, 60, 70, 80});
  EXPECT_DOUBLE_EQ(alloc[0], 5);
  const double level = alloc[1];
  EXPECT_DOUBLE_EQ(alloc[2], level);
  EXPECT_DOUBLE_EQ(alloc[3], level);
  EXPECT_NEAR(5 + 3 * level, 100, 1e-9);
}

}  // namespace
}  // namespace dcc
