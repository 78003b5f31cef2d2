// Event-loop scheduler suite: FIFO stability within a tick, far-future
// events, cancellation by id, Stop() and Run(until) boundaries, zero-delay
// self-reschedule, seeded randomized differential tests against an
// independent reference (when, seq) model (with and without cancels),
// series against pre-scheduled members, and the inline handler's storage
// and ownership.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/wire_bytes.h"
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
  const EventId id =
      loop.ScheduleAfter(Microseconds(10), "el.cancel", [&]() { ++fired; });
  loop.ScheduleAfter(Microseconds(20), "el.after", [&]() { ++fired; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(id);
  EXPECT_EQ(loop.pending(), 1u) << "a cancelled event leaves the heap at once";
  loop.Cancel(id);  // Idempotent.
  loop.Cancel(EventId{});  // An unset id names nothing.
  EXPECT_EQ(loop.pending(), 1u);
  const size_t executed = loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(executed, 1u) << "cancelled events must not count as executed";
  EXPECT_EQ(loop.now(), Microseconds(20));
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
  const EventId head =
      loop.ScheduleAt(Microseconds(10), "el.cancel", [&]() { ++fired; });
  loop.ScheduleAt(Microseconds(500), "el.late", [&]() { ++fired; });
  loop.Cancel(head);
  EXPECT_EQ(loop.pending(), 1u) << "a cancelled head leaves the heap at once";
  EXPECT_EQ(loop.Run(Microseconds(100)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.now(), Microseconds(100));
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, StaleIdsCancelNothing) {
  EventLoop loop;
  std::vector<int> order;
  const EventId ran =
      loop.ScheduleAt(Microseconds(10), "el", [&]() { order.push_back(1); });
  EXPECT_EQ(loop.Run(Microseconds(10)), 1u);
  // The freed slot is reused by the next schedule; the old id still names
  // the event that ran, so it must not cancel the new one.
  const EventId reused =
      loop.ScheduleAt(Microseconds(20), "el", [&]() { order.push_back(2); });
  EXPECT_EQ(reused.slot, ran.slot);
  loop.Cancel(ran);
  EXPECT_EQ(loop.pending(), 1u);
  // An event cancelling itself while it runs is a no-op too.
  EventId self;
  self = loop.ScheduleAt(Microseconds(30), "el", [&]() {
    loop.Cancel(self);
    order.push_back(3);
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
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
  bool operator<(const RefEvent& other) const { return other > *this; }
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

// Cancel against a reference model: a sorted set of the live
// (when, seq, id) events, with seq drawn in schedule order as the loop
// draws it. A seeded driver schedules on a coarse time grid (so many
// events tie), cancels ids drawn from every id ever issued (live ones,
// ones that already ran or were cancelled, ones whose slot a later event
// has reused) from inside handlers and between Run(until) segments, and
// requires every event to run in the model's order at the model's time.
TEST(EventLoopTest, CancelMatchesSortedReferenceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    std::set<RefEvent, std::less<>> model;
    std::vector<EventId> ids;   // By event id: every id ever issued.
    std::vector<RefEvent> keys;  // By event id.
    uint64_t next_seq = 0;
    size_t ran = 0;
    size_t live_cancels = 0;
    size_t reused_slot_cancels = 0;
    std::function<void(uint64_t)> body;

    auto schedule = [&]() {
      const Duration delay = Microseconds(10 * rng.NextBelow(5));
      const uint64_t id = ids.size();
      keys.push_back(RefEvent{loop.now() + delay, next_seq++, id});
      model.insert(keys.back());
      ids.push_back(loop.ScheduleAfter(delay, "el.model",
                                       [&body, id]() { body(id); }));
    };
    auto cancel = [&]() {
      const uint64_t victim = rng.NextBelow(ids.size());
      if (model.erase(keys[victim]) == 1) {
        ++live_cancels;
      } else {
        for (const RefEvent& live : model) {
          if (ids[live.id].slot == ids[victim].slot) {
            ++reused_slot_cancels;
          }
        }
      }
      loop.Cancel(ids[victim]);
    };
    auto churn = [&]() {
      for (uint64_t n = rng.NextBelow(3); n > 0; --n) {
        schedule();
      }
      for (uint64_t n = rng.NextBelow(3); n > 0; --n) {
        cancel();
      }
    };
    body = [&](uint64_t id) {
      ASSERT_FALSE(model.empty()) << "seed " << seed;
      const RefEvent expected = *model.begin();
      model.erase(model.begin());
      ASSERT_EQ(id, expected.id) << "seed " << seed << ", event " << ran;
      ASSERT_EQ(loop.now(), expected.when) << "seed " << seed;
      ++ran;
      if (ran < 4000) {
        churn();
      }
      ASSERT_EQ(loop.pending(), model.size()) << "seed " << seed;
    };

    for (int i = 0; i < 64; ++i) {
      schedule();
    }
    Time until = 0;
    while (loop.pending() > 0) {
      if (ran < 4000) {
        churn();
      }
      until += Microseconds(10 * rng.NextBelow(4));
      loop.Run(until);
      ASSERT_EQ(loop.now(), until) << "seed " << seed;
      ASSERT_EQ(loop.pending(), model.size()) << "seed " << seed;
      if (!model.empty()) {
        ASSERT_GT(model.begin()->when, until) << "seed " << seed;
      }
    }
    EXPECT_TRUE(model.empty());
    EXPECT_GE(ran, 4000u);
    EXPECT_GT(live_cancels, 100u);
    EXPECT_GT(reused_slot_cancels, 10u)
        << "the stale-id-on-a-reused-slot case must be exercised";
  }
}

TEST(EventLoopTest, PendingAndWatermarkTracking) {
  EventLoop::ResetThreadMaxPending();
  EventLoop loop;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAfter(Microseconds(i), "el.depth", []() {});
  }
  EXPECT_EQ(loop.pending(), 10u);
  EXPECT_GE(loop.max_pending(), 10u);
  loop.Run();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(EventLoop::ThreadMaxPending(), 10u);
  {
    // The thread-wide mark covers every loop until it is reset.
    EventLoop other;
    other.ScheduleAfter(0, "el.depth", []() {});
    EXPECT_EQ(EventLoop::ThreadMaxPending(), 10u);
  }
  EventLoop::ResetThreadMaxPending();
  EXPECT_EQ(EventLoop::ThreadMaxPending(), 0u);
}

// --- series ---------------------------------------------------------------

// One scripted, seeded run mixing two series with events from other
// sources. The other events sit on a coarse 10 us grid, so many share a
// timestamp with series members (and series members share timestamps with
// each other); some are scheduled before a series and some after, and every
// handler may spawn same-tick and grid-aligned children. The 300th handler
// calls Stop(), the script runs the loop in Run(until) segments, and the
// second series starts mid-run with its first members in the past, so they
// clamp to now. With `pre_schedule`, each series member is scheduled on its
// own up front: the loop's behaviour before series existed, and the
// reference the series must match event for event.
struct ScriptLog {
  std::vector<std::pair<uint64_t, Time>> ran;  // (event id, run time)
  size_t pending_at_start = 0;  // pending() once series A is scheduled.
};

constexpr uint64_t kSeriesA = 1000000;
constexpr uint64_t kSeriesB = 2000000;

ScriptLog RunSeriesScript(uint64_t seed, bool pre_schedule) {
  EventLoop loop;
  Rng rng(seed);
  ScriptLog log;
  uint64_t next_id = 0;
  std::function<void(uint64_t)> body = [&](uint64_t id) {
    log.ran.emplace_back(id, loop.now());
    if (log.ran.size() == 300) {
      loop.Stop();
    }
    if (log.ran.size() >= 2000) {
      return;
    }
    const uint64_t children = rng.NextBelow(3);
    for (uint64_t c = 0; c < children; ++c) {
      const uint64_t child = ++next_id;
      const Duration delay =
          rng.NextBelow(2) == 0 ? 0 : Microseconds(10 * (1 + rng.NextBelow(8)));
      loop.ScheduleAfter(delay, "el.other", [&body, child]() { body(child); });
    }
  };
  auto others = [&](int n, Time from) {
    for (int i = 0; i < n; ++i) {
      const uint64_t id = ++next_id;
      loop.ScheduleAt(from + Microseconds(10 * rng.NextBelow(20)), "el.other",
                      [&body, id]() { body(id); });
    }
  };
  auto series = [&](uint64_t tag, uint64_t count,
                    std::function<Time(uint64_t)> when) {
    std::function<void(uint64_t)> member = [&body, tag](uint64_t i) {
      body(tag + i);
    };
    if (pre_schedule) {
      for (uint64_t i = 0; i < count; ++i) {
        loop.ScheduleAt(when(i), "el.series", [member, i]() { member(i); });
      }
    } else {
      loop.ScheduleSeries(count, std::move(when), "el.series",
                          std::move(member));
    }
  };

  others(20, 0);
  // Three members per 10 us tick, on the other events' grid.
  series(kSeriesA, 40, [](uint64_t i) { return Microseconds(10 * (i / 3)); });
  others(20, 0);
  log.pending_at_start = loop.pending();
  // Ends between two of series A's ticks (again if Stop() came first).
  do {
    loop.Run(Microseconds(55));
  } while (loop.now() < Microseconds(55));
  // Members 0..6 of series B lie before now (55 us) and clamp to it.
  series(kSeriesB, 30, [](uint64_t i) { return Microseconds(20 + 5 * i); });
  others(20, loop.now());
  while (loop.pending() > 0) {
    loop.Run(loop.now() + Microseconds(37));
  }
  return log;
}

TEST(EventLoopTest, SeriesRunsInPreScheduledOrder) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const ScriptLog reference = RunSeriesScript(seed, /*pre_schedule=*/true);
    const ScriptLog series = RunSeriesScript(seed, /*pre_schedule=*/false);
    ASSERT_GT(reference.ran.size(), 300u) << "the script must reach Stop()";
    ASSERT_EQ(series.ran.size(), reference.ran.size()) << "seed " << seed;
    for (size_t i = 0; i < reference.ran.size(); ++i) {
      ASSERT_EQ(series.ran[i], reference.ran[i])
          << "execution diverged at event " << i << " (seed " << seed << ")";
    }
    // Every member ran once, at its time clamped to the start of its series.
    size_t members = 0;
    for (const auto& [id, at] : series.ran) {
      if (id >= kSeriesB) {
        ++members;
        EXPECT_EQ(at, std::max(Microseconds(20 + 5 * (id - kSeriesB)),
                               Microseconds(55)));
      } else if (id >= kSeriesA) {
        ++members;
        EXPECT_EQ(at, Microseconds(10 * ((id - kSeriesA) / 3)));
      }
    }
    EXPECT_EQ(members, 70u);
    EXPECT_EQ(series.pending_at_start + 39, reference.pending_at_start)
        << "a series keeps one member pending, not all 40";
  }
}

TEST(EventLoopTest, SeriesKeepsOneMemberPending) {
  EventLoop loop;
  std::vector<uint64_t> ran;
  loop.ScheduleSeries(
      1000, [](uint64_t i) { return Milliseconds(static_cast<Duration>(i)); },
      "el.series", [&](uint64_t i) {
        ran.push_back(i);
        EXPECT_EQ(loop.pending(), i + 1 < 1000 ? 1u : 0u)
            << "the next member is armed before this one runs";
      });
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.Run(), 1000u);
  EXPECT_EQ(loop.max_pending(), 1u);
  ASSERT_EQ(ran.size(), 1000u);
  for (uint64_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], i);
  }
  EXPECT_EQ(loop.now(), Milliseconds(999));

  loop.ScheduleSeries(0, [](uint64_t) { return Time{0}; }, "el.series",
                      [](uint64_t) { FAIL() << "an empty series runs nothing"; });
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, SeriesTakesItsSequenceNumbersWhenScheduled) {
  // An event scheduled after the series for the same timestamp as a later
  // member still runs after that member, as it would had every member been
  // scheduled up front.
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleSeries(
      3, [](uint64_t i) { return Microseconds(10 * static_cast<Duration>(i)); },
      "el.series", [&](uint64_t i) { order.push_back(static_cast<int>(i)); });
  loop.ScheduleAt(Microseconds(20), "el.after", [&]() { order.push_back(99); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
}

// --- handler --------------------------------------------------------------

TEST(EventLoopHandlerTest, HotCapturesAreStoredInline) {
  // The network delivery closure's layout and the timeout closure's.
  struct Owner {};
  Owner* self = nullptr;
  const Endpoint src{1, 2};
  const Endpoint dst{3, 4};
  WireBytes payload;
  auto deliver = [self, src, dst, payload = std::move(payload)]() mutable {
    (void)self;
    (void)src;
    (void)dst;
    (void)payload;
  };
  const uint16_t port = 5;
  auto timeout = [self, port]() {
    (void)self;
    (void)port;
  };
  static_assert(EventLoop::Handler::kStoredInline<decltype(deliver)>);
  static_assert(EventLoop::Handler::kStoredInline<decltype(timeout)>);
  std::array<uint64_t, 7> big{};
  auto spill = [big]() { (void)big; };
  static_assert(!EventLoop::Handler::kStoredInline<decltype(spill)>,
                "captures over 48 bytes go to the heap");
}

TEST(EventLoopHandlerTest, InlineAndHeapHandlersRunWithTheirCaptures) {
  EventLoop loop;
  std::vector<uint64_t> seen;
  std::array<uint64_t, 4> small{1, 2, 3, 4};
  std::array<uint64_t, 12> big{};
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = 100 + i;
  }
  auto inline_fn = [&seen, small]() {
    seen.insert(seen.end(), small.begin(), small.end());
  };
  auto heap_fn = [&seen, big]() {
    seen.insert(seen.end(), big.begin(), big.end());
  };
  static_assert(EventLoop::Handler::kStoredInline<decltype(inline_fn)>);
  static_assert(!EventLoop::Handler::kStoredInline<decltype(heap_fn)>);
  loop.ScheduleAt(Microseconds(2), "el.heap", heap_fn);
  loop.ScheduleAt(Microseconds(1), "el.inline", inline_fn);
  EXPECT_EQ(loop.Run(), 2u);
  ASSERT_EQ(seen.size(), 16u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[3], 4u);
  EXPECT_EQ(seen[4], 100u);
  EXPECT_EQ(seen[15], 111u);
}

TEST(EventLoopHandlerTest, MoveOnlyCapturesRun) {
  EventLoop loop;
  int small_value = 0;
  int big_value = 0;
  auto small = std::make_unique<int>(7);
  loop.ScheduleAfter(Microseconds(1), "el.move",
                     [p = std::move(small), &small_value]() {
                       small_value = *p;
                     });
  auto big = std::make_unique<int>(9);
  std::array<uint64_t, 8> padding{};
  auto heap_fn = [p = std::move(big), padding, &big_value]() {
    big_value = *p + static_cast<int>(padding[0]);
  };
  static_assert(!EventLoop::Handler::kStoredInline<decltype(heap_fn)>);
  loop.ScheduleAfter(Microseconds(2), "el.move", std::move(heap_fn));
  loop.Run();
  EXPECT_EQ(small_value, 7);
  EXPECT_EQ(big_value, 9);
}

TEST(EventLoopHandlerTest, MovesTransferAndReleaseTheCallable) {
  auto token = std::make_shared<int>(0);
  int runs = 0;
  EventLoop::Handler a = [token, &runs]() { ++runs; };
  EXPECT_EQ(token.use_count(), 2);
  EventLoop::Handler b = std::move(a);
  EXPECT_EQ(token.use_count(), 2) << "a move relocates, never copies";
  b();
  EXPECT_EQ(runs, 1);
  std::array<uint64_t, 8> padding{};
  EventLoop::Handler c = [token, padding]() { (void)padding; };
  EXPECT_EQ(token.use_count(), 3);
  b = std::move(c);  // Destroys b's callable, takes c's heap one.
  EXPECT_EQ(token.use_count(), 2);
  b = EventLoop::Handler();
  EXPECT_EQ(token.use_count(), 1);
  a = EventLoop::Handler();  // Assigning over a moved-from handler is fine.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventLoopHandlerTest, UnrunHandlersAreDestroyedWithTheLoop) {
  auto token = std::make_shared<int>(0);
  {
    EventLoop loop;
    std::array<uint64_t, 8> padding{};
    loop.ScheduleAt(Seconds(1), "el.inline", [token]() {});
    loop.ScheduleAt(Seconds(2), "el.heap", [token, padding]() { (void)padding; });
    // Cancelled handlers, inline and heap-stored, release their captures at
    // Cancel, not when the loop drains or dies.
    const EventId small = loop.ScheduleAt(Seconds(3), "el.cancel", [token]() {});
    const EventId big = loop.ScheduleAt(Seconds(4), "el.cancel",
                                        [token, padding]() { (void)padding; });
    EXPECT_EQ(token.use_count(), 5);
    loop.Cancel(small);
    EXPECT_EQ(token.use_count(), 4) << "an inline handler's captures outlived Cancel";
    loop.Cancel(big);
    EXPECT_EQ(token.use_count(), 3) << "a heap handler's captures outlived Cancel";
    loop.SchedulePeriodic(Seconds(1), "el.periodic", [token]() {});
    loop.ScheduleSeries(
        5, [](uint64_t i) { return Seconds(static_cast<Duration>(i + 1)); },
        "el.series", [token](uint64_t) {});
    EXPECT_EQ(loop.Run(Milliseconds(1500)), 3u);  // Inline, periodic, member 0.
    EXPECT_GT(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1) << "pending handlers leaked their captures";
}

}  // namespace
}  // namespace dcc
