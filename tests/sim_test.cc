// Unit tests for src/sim: event loop and simulated network.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace dcc {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Seconds(3), [&] { order.push_back(3); });
  loop.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  loop.ScheduleAt(Seconds(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Seconds(3));
}

TEST(EventLoopTest, EqualTimesRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Seconds(1), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired = -1;
  loop.ScheduleAt(Seconds(5), [&] {
    loop.ScheduleAfter(Seconds(2), [&] { fired = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired, Seconds(7));
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(Seconds(1), [&] { ++fired; });
  loop.ScheduleAt(Seconds(10), [&] { ++fired; });
  loop.Run(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), Seconds(5));
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run(Seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, NestedSchedulingWorks) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) {
      loop.ScheduleAfter(Seconds(1), chain);
    }
  };
  loop.ScheduleAfter(Seconds(1), chain);
  loop.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), Seconds(5));
}

TEST(EventLoopTest, PeriodicFiresUntilHorizon) {
  EventLoop loop;
  int count = 0;
  loop.SchedulePeriodic(Seconds(1), [&] { ++count; }, Seconds(5));
  loop.Run();
  EXPECT_EQ(count, 5);
}

TEST(EventLoopTest, StopHaltsExecution) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(Seconds(1), [&] {
    ++count;
    loop.Stop();
  });
  loop.ScheduleAt(Seconds(2), [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoopTest, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(Seconds(5), [&] {
    loop.ScheduleAt(Seconds(1), [&] { EXPECT_EQ(loop.now(), Seconds(5)); });
  });
  loop.Run();
}

class RecordingNode : public Node {
 public:
  void OnDatagram(Datagram dgram) override {
    received.push_back(dgram);
    receive_times.push_back(now());
  }
  std::vector<Datagram> received;
  std::vector<Time> receive_times;
};

TEST(NetworkTest, DeliversWithDefaultDelay) {
  EventLoop loop;
  Network net(loop, Milliseconds(2));
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {0xab});
  loop.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src.addr, 1u);
  EXPECT_EQ(b.received[0].payload, (std::vector<uint8_t>{0xab}));
  EXPECT_EQ(b.receive_times[0], Milliseconds(2));
}

TEST(NetworkTest, PairDelayOverride) {
  EventLoop loop;
  Network net(loop, Milliseconds(2));
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.SetPairDelay(1, 2, Milliseconds(10));
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  loop.Run();
  ASSERT_EQ(b.receive_times.size(), 1u);
  EXPECT_EQ(b.receive_times[0], Milliseconds(10));
}

TEST(NetworkTest, UnknownDestinationDropped) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  net.RegisterNode(&a, 1);
  net.Send(Endpoint{1, 1000}, Endpoint{99, 53}, {1});
  loop.Run();
  EXPECT_EQ(net.datagrams_dropped(), 1u);
}

TEST(NetworkTest, LossDropsApproximateFraction) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.SetLossProbability(0.5, /*seed=*/7);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  }
  loop.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()) / n, 0.5, 0.05);
}

TEST(NetworkTest, HostDownBlocksTraffic) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.SetHostDown(2, true);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  loop.Run();
  EXPECT_TRUE(b.received.empty());
  net.SetHostDown(2, false);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  loop.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, LinkDownBlocksBothDirectionsAndLifts) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  RecordingNode b;
  RecordingNode c;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.RegisterNode(&c, 3);
  net.SetLinkDown(1, 2, true);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  net.Send(Endpoint{2, 1000}, Endpoint{1, 53}, {2});
  net.Send(Endpoint{1, 1000}, Endpoint{3, 53}, {3});  // Unaffected link.
  loop.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());
  ASSERT_EQ(c.received.size(), 1u);
  net.SetLinkDown(1, 2, false);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {4});
  loop.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, (std::vector<uint8_t>{4}));
}

// Which sequence numbers survive a lossy link: sends `n` sequenced datagrams
// 1->2, optionally re-applying the loss config after the first half.
std::vector<uint8_t> LossySurvivors(double p, uint64_t seed, int n,
                                    bool reapply_midway,
                                    uint64_t midway_seed = 0) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.SetLossProbability(p, seed);
  for (int i = 0; i < n; ++i) {
    if (reapply_midway && i == n / 2) {
      net.SetLossProbability(p, midway_seed);
    }
    net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {static_cast<uint8_t>(i)});
  }
  loop.Run();
  std::vector<uint8_t> survivors;
  for (const Datagram& dgram : b.received) {
    survivors.push_back(dgram.payload[0]);
  }
  return survivors;
}

TEST(NetworkTest, LossReapplySameSeedContinuesDecisionStream) {
  // Reconfiguring loss mid-run with the same (p, seed) must not rewind the
  // RNG: the delivery pattern matches an uninterrupted run exactly.
  const auto uninterrupted = LossySurvivors(0.3, 9, 200, false);
  const auto reapplied = LossySurvivors(0.3, 9, 200, true, /*midway_seed=*/9);
  EXPECT_EQ(reapplied, uninterrupted);
}

TEST(NetworkTest, LossReseedRestartsDecisionStream) {
  // A genuinely new seed restarts the stream: the second half of the run
  // matches the first half of a fresh network seeded the same way.
  const auto reseeded = LossySurvivors(0.3, 9, 200, true, /*midway_seed=*/11);
  const auto fresh = LossySurvivors(0.3, 11, 200, false);
  std::vector<uint8_t> reseeded_tail;
  for (uint8_t seq : reseeded) {
    if (seq >= 100) {
      reseeded_tail.push_back(static_cast<uint8_t>(seq - 100));
    }
  }
  std::vector<uint8_t> fresh_head;
  for (uint8_t seq : fresh) {
    if (seq < 100) {
      fresh_head.push_back(seq);
    }
  }
  EXPECT_EQ(reseeded_tail, fresh_head);
}

TEST(NetworkTest, UnregisterStopsDelivery) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  RecordingNode b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  net.UnregisterNode(2);
  loop.Run();
  EXPECT_TRUE(b.received.empty());
}

}  // namespace
}  // namespace dcc
