// Event-loop scheduler suite: FIFO stability within a tick, far-future
// events, cancellation tombstones, Stop() and Run(until) boundaries,
// zero-delay self-reschedule, and a seeded randomized differential test
// against an independent reference (when, seq) priority queue.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/event_loop.h"

namespace dcc {
namespace {

TEST(EventLoopTest, SameTickFifoStability) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    loop.ScheduleAt(Microseconds(50), "el.same", [&order, i]() {
      order.push_back(i);
    });
  }
  const size_t executed = loop.Run();
  EXPECT_EQ(executed, 100u);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i) << "same-tick events must run in schedule order";
  }
  EXPECT_EQ(loop.now(), Microseconds(50));
}

TEST(EventLoopTest, InterleavedTimesRunInTimeThenScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Microseconds(30), "el", [&]() { order.push_back(3); });
  loop.ScheduleAt(Microseconds(10), "el", [&]() { order.push_back(1); });
  loop.ScheduleAt(Microseconds(30), "el", [&]() { order.push_back(4); });
  loop.ScheduleAt(Microseconds(20), "el", [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoopTest, FarFutureEventsKeepOrderAndTime) {
  // Events minutes ahead must still fire at the exact requested time,
  // ordered against nearer events scheduled later.
  EventLoop loop;
  std::vector<int> order;
  std::vector<Time> at;
  loop.ScheduleAt(Seconds(100), "el.far", [&]() {
    order.push_back(2);
    at.push_back(loop.now());
  });
  loop.ScheduleAt(Seconds(200), "el.farther", [&]() {
    order.push_back(3);
    at.push_back(loop.now());
  });
  loop.ScheduleAt(Seconds(1), "el.near", [&]() {
    order.push_back(1);
    at.push_back(loop.now());
    // Scheduled once the clock has advanced: still lands before the
    // far events.
    loop.ScheduleAt(Seconds(99), "el.mid", [&]() {
      order.push_back(10);
      at.push_back(loop.now());
    });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3}));
  EXPECT_EQ(at, (std::vector<Time>{Seconds(1), Seconds(99), Seconds(100),
                                   Seconds(200)}));
}

TEST(EventLoopTest, CancelBeforeFireSkipsWithoutExecuting) {
  EventLoop loop;
  int fired = 0;
  CancelToken token = loop.ScheduleCancelableAfter(
      Microseconds(10), "el.cancel", [&]() { ++fired; });
  loop.ScheduleAfter(Microseconds(20), "el.after", [&]() { ++fired; });
  EXPECT_TRUE(token.active());
  token.Cancel();
  EXPECT_FALSE(token.active());
  const size_t executed = loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(executed, 1u) << "cancelled events must not count as executed";
  EXPECT_EQ(loop.cancelled_skipped(), 1u);
  token.Cancel();  // Idempotent.
}

TEST(EventLoopTest, StopMidTickKeepsSameTimeSiblings) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Microseconds(40), "el.same", [&]() {
    order.push_back(0);
    loop.Stop();
  });
  for (int i = 1; i <= 3; ++i) {
    loop.ScheduleAt(Microseconds(40), "el.same",
                    [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(loop.Run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(loop.now(), Microseconds(40));
  EXPECT_EQ(loop.pending(), 3u) << "same-time siblings wait for the next Run";

  std::vector<Time> at;
  loop.ScheduleAt(Microseconds(40), "el.same", [&]() {
    order.push_back(4);
    at.push_back(loop.now());
  });
  EXPECT_EQ(loop.Run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(at, (std::vector<Time>{Microseconds(40)}));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, CancelledHeadDoesNotAdvancePastUntil) {
  EventLoop loop;
  int fired = 0;
  CancelToken head = loop.ScheduleCancelableAt(Microseconds(10), "el.cancel",
                                               [&]() { ++fired; });
  loop.ScheduleAt(Microseconds(500), "el.late", [&]() { ++fired; });
  head.Cancel();
  EXPECT_EQ(loop.pending(), 2u) << "a cancelled event stays until it drains";
  EXPECT_EQ(loop.Run(Microseconds(100)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.now(), Microseconds(100));
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.cancelled_skipped(), 1u);
}

TEST(EventLoopTest, PeriodicCancelStopsRearming) {
  EventLoop loop;
  int ticks = 0;
  CancelToken token;
  token = loop.SchedulePeriodic(Microseconds(10), "el.periodic",
                                [&]() { ++ticks; });
  loop.ScheduleAt(Microseconds(35), "el.stopper", [&]() { token.Cancel(); });
  loop.Run(Seconds(1));
  // Ticks at 10, 20, 30; the cancel at 35 stops the 40 us tick and all
  // later ones, so the loop drains instead of running to the horizon.
  EXPECT_EQ(ticks, 3);
}

TEST(EventLoopTest, ZeroDelaySelfReschedule) {
  EventLoop loop;
  int runs = 0;
  std::function<void()> step = [&]() {
    ++runs;
    if (runs < 1000) {
      loop.ScheduleAfter(0, "el.zero", step);
    }
  };
  loop.ScheduleAfter(0, "el.zero", step);
  const size_t executed = loop.Run();
  EXPECT_EQ(runs, 1000);
  EXPECT_EQ(executed, 1000u);
  // A zero-delay event runs at the current virtual time, so the chain
  // never advances the clock.
  EXPECT_EQ(loop.now(), 0u);
}

// Reference model: a std::priority_queue ordered by (when, seq) with seq
// assigned in schedule order. The differential test drives
// the real loop and this model through an identical seeded workload
// (including reschedules from inside handlers) and requires the same
// execution sequence.
struct RefEvent {
  Time when = 0;
  uint64_t seq = 0;
  uint64_t id = 0;
  bool operator>(const RefEvent& other) const {
    return when != other.when ? when > other.when : seq > other.seq;
  }
};

// Deterministic per-event workload: how many children an event spawns and
// at which delays, derived from its id alone so the real and reference
// runs agree without sharing state.
std::vector<Duration> ChildDelays(uint64_t id, Rng& rng) {
  std::vector<Duration> delays;
  const int children = static_cast<int>(rng.NextBelow(3));  // 0..2
  for (int i = 0; i < children; ++i) {
    // Mix of same-tick (0), near, sub-second, seconds and minutes ahead.
    switch (rng.NextBelow(5)) {
      case 0: delays.push_back(0); break;
      case 1: delays.push_back(Microseconds(1 + rng.NextBelow(200))); break;
      case 2: delays.push_back(Microseconds(1 + rng.NextBelow(300000))); break;
      case 3: delays.push_back(Seconds(1 + rng.NextBelow(60))); break;
      default: delays.push_back(Seconds(70 + rng.NextBelow(100))); break;
    }
  }
  (void)id;
  return delays;
}

TEST(EventLoopTest, SeededDifferentialAgainstReferenceHeap) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // --- real run ---------------------------------------------------------
    std::vector<uint64_t> real_order;
    {
      EventLoop loop;
      Rng rng(seed);
      uint64_t next_id = 0;
      std::function<void(uint64_t)> body = [&](uint64_t id) {
        real_order.push_back(id);
        if (real_order.size() >= 5000) {
          return;  // Bound the run; the reference applies the same cap.
        }
        for (Duration d : ChildDelays(id, rng)) {
          const uint64_t child = ++next_id;
          loop.ScheduleAfter(d, "el.diff", [&, child]() { body(child); });
        }
      };
      for (int i = 0; i < 64; ++i) {
        const uint64_t id = ++next_id;
        loop.ScheduleAfter(Microseconds(i * 37 % 500), "el.diff",
                           [&, id]() { body(id); });
      }
      loop.Run();
    }

    // --- reference run ----------------------------------------------------
    std::vector<uint64_t> ref_order;
    {
      std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> heap;
      Rng rng(seed);
      uint64_t next_id = 0;
      uint64_t next_seq = 0;
      Time now = 0;
      for (int i = 0; i < 64; ++i) {
        heap.push(RefEvent{Microseconds(i * 37 % 500), next_seq++, ++next_id});
      }
      while (!heap.empty()) {
        const RefEvent event = heap.top();
        heap.pop();
        now = event.when;
        ref_order.push_back(event.id);
        if (ref_order.size() >= 5000) {
          continue;  // Keep draining, stop spawning — mirrors the real run.
        }
        for (Duration d : ChildDelays(event.id, rng)) {
          heap.push(RefEvent{now + d, next_seq++, ++next_id});
        }
      }
    }

    ASSERT_EQ(real_order.size(), ref_order.size()) << "seed " << seed;
    for (size_t i = 0; i < real_order.size(); ++i) {
      ASSERT_EQ(real_order[i], ref_order[i])
          << "execution order diverged at event " << i << " (seed " << seed
          << ")";
    }
  }
}

TEST(EventLoopTest, PendingAndWatermarkTracking) {
  EventLoop loop;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAfter(Microseconds(i), "el.depth", []() {});
  }
  EXPECT_EQ(loop.pending(), 10u);
  EXPECT_GE(loop.max_pending(), 10u);
  loop.Run();
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace dcc
