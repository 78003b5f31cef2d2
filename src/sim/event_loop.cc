#include "src/sim/event_loop.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/observer.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Events scheduled through the category-less overloads. A real category at
// the call site is always better; this keeps unlabeled callers visible in
// the profile instead of silently unattributed.
constexpr char kUncategorized[] = "event.uncategorized";

// The loop currently registered as the thread's log clock (last one wins);
// tracked so destruction clears only its own registration. thread_local so
// independent simulations (dcc_search candidate evaluation) can run on
// worker threads without sharing clock or counter state.
thread_local const EventLoop* g_log_clock_owner = nullptr;

// Per-thread executed-event total and pending high-water mark (each
// simulation runs on one thread).
thread_local uint64_t g_total_events_executed = 0;
thread_local size_t g_max_pending = 0;

// Children per heap node. A 4-ary heap is half as deep as a binary one.
constexpr size_t kArity = 4;

}  // namespace

uint64_t EventLoop::TotalEventsExecuted() { return g_total_events_executed; }

size_t EventLoop::ThreadMaxPending() { return g_max_pending; }

void EventLoop::ResetThreadMaxPending() { g_max_pending = 0; }

// One series' shared state, owned by whichever of its members is pending.
struct EventLoop::Series {
  uint64_t count;
  uint64_t base_seq;
  std::function<Time(uint64_t)> when;
  const char* category;
  std::function<void(uint64_t)> fn;
};

EventLoop::EventLoop(telemetry::Observer* obs) {
  if (obs == nullptr) {
    return;
  }
  obs->Count("sim_events_executed_total", {}, "Event-loop handlers executed",
             &executed_);
  obs->Gauge("sim_pending_events", {}, "Events currently scheduled in the loop",
             [this]() { return static_cast<double>(pending()); });
  obs->Gauge("sim_virtual_time_us", {}, "Current virtual clock in microseconds",
             [this]() { return static_cast<double>(now_); });
}

EventLoop::~EventLoop() {
  if (g_log_clock_owner == this) {
    SetLogClock(nullptr);
    g_log_clock_owner = nullptr;
  }
}

void EventLoop::InstallLogClock() {
  g_log_clock_owner = this;
  SetLogClock([this]() { return static_cast<uint64_t>(now_); });
}

void EventLoop::ScheduleAt(Time t, Handler fn) {
  Schedule(t, kUncategorized, std::move(fn), nullptr);
}

void EventLoop::ScheduleAt(Time t, const char* category, Handler fn) {
  Schedule(t, category, std::move(fn), nullptr);
}

void EventLoop::ScheduleAfter(Duration delay, Handler fn) {
  Schedule(now_ + std::max<Duration>(0, delay), kUncategorized, std::move(fn),
           nullptr);
}

void EventLoop::ScheduleAfter(Duration delay, const char* category, Handler fn) {
  Schedule(now_ + std::max<Duration>(0, delay), category, std::move(fn),
           nullptr);
}

CancelToken EventLoop::ScheduleCancelableAt(Time t, const char* category,
                                            Handler fn) {
  auto flag = std::make_shared<bool>(false);
  Schedule(t, category, std::move(fn), flag);
  return CancelToken(std::move(flag));
}

CancelToken EventLoop::ScheduleCancelableAfter(Duration delay,
                                               const char* category,
                                               Handler fn) {
  return ScheduleCancelableAt(now_ + std::max<Duration>(0, delay), category,
                              std::move(fn));
}

CancelToken EventLoop::SchedulePeriodic(Duration period, Handler fn,
                                        Time until) {
  return SchedulePeriodic(period, "event.periodic", std::move(fn), until);
}

CancelToken EventLoop::SchedulePeriodic(Duration period, const char* category,
                                        Handler fn, Time until) {
  if (period <= 0 || now_ + period > until) {
    return CancelToken();
  }
  auto flag = std::make_shared<bool>(false);
  // The handler lives in shared state: each tick re-arms by copying a
  // shared_ptr (one refcount bump) instead of copying the std::function —
  // periodic samplers capture probe tables that used to be cloned per tick.
  struct Tick {
    EventLoop* loop;
    Duration period;
    const char* category;
    Handler fn;
    Time until;
    std::shared_ptr<bool> cancelled;

    void Arm(std::shared_ptr<Tick> self) {
      EventLoop* target = loop;
      const Time at = target->now_ + period;
      const char* label = category;
      std::shared_ptr<bool> flag_copy = cancelled;
      target->Schedule(at, label,
                       [self = std::move(self)]() {
                         self->fn();
                         if (!*self->cancelled &&
                             self->loop->now_ + self->period <= self->until) {
                           self->Arm(self);
                         }
                       },
                       std::move(flag_copy));
    }
  };
  auto tick = std::make_shared<Tick>(
      Tick{this, period, category, std::move(fn), until, flag});
  tick->Arm(tick);
  return CancelToken(std::move(flag));
}

void EventLoop::ScheduleSeries(uint64_t count,
                               std::function<Time(uint64_t)> when,
                               const char* category,
                               std::function<void(uint64_t)> fn) {
  if (count == 0) {
    return;
  }
  auto series = std::make_unique<Series>(
      Series{count, next_seq_, std::move(when), category, std::move(fn)});
  next_seq_ += count;
  ArmSeries(std::move(series), 0);
}

void EventLoop::ArmSeries(std::unique_ptr<Series> series, uint64_t index) {
  Series& s = *series;
  // Member 0 is armed when the series is scheduled, and member i when
  // member i-1 runs, so now is the series' start or member i-1's clamped
  // time. `when` is non-decreasing, so clamping to now here gives each
  // member the time it would have got if scheduled with the series.
  Push(std::max(s.when(index), now_), s.base_seq + index, s.category,
       [this, series = std::move(series), index]() mutable {
         Series& self = *series;
         if (index + 1 < self.count) {
           ArmSeries(std::move(series), index + 1);
         }
         self.fn(index);
       },
       nullptr);
}

void EventLoop::Schedule(Time t, const char* category, Handler&& fn,
                         std::shared_ptr<bool> cancel) {
  Push(std::max(t, now_), next_seq_++, category, std::move(fn),
       std::move(cancel));
}

void EventLoop::Push(Time when, uint64_t seq, const char* category,
                     Handler&& fn, std::shared_ptr<bool> cancel) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& entry = slots_[slot];
  entry.fn = std::move(fn);
  entry.category = category;
  entry.enqueued_at = now_;
  entry.cancelled = std::move(cancel);
  // Sift the new key up from the end, moving parents down into the hole.
  const Key key{when, seq, slot};
  size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(key < heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  max_pending_ = std::max(max_pending_, heap_.size());
  g_max_pending = std::max(g_max_pending, heap_.size());
  prof::RecordQueueDepth(heap_.size());
}

void EventLoop::PopTop() {
  // Sift the last key down from the root, moving the least child up.
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + kArity, n);
    size_t least = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[least]) {
        least = c;
      }
    }
    if (!(heap_[least] < last)) {
      break;
    }
    heap_[i] = heap_[least];
    i = least;
  }
  heap_[i] = last;
}

size_t EventLoop::Run(Time until) {
  stopped_ = false;
  size_t executed = 0;
  DCC_PROF_SCOPE("sim.run");
  while (!stopped_ && !heap_.empty()) {
    const Key top = heap_.front();
    if (top.when > until) {
      now_ = until;
      return executed;
    }
    PopTop();
    // Take everything out of the slot and recycle it before the handler
    // runs: the handler may schedule, which can reuse or reallocate slots_.
    Slot& slot = slots_[top.slot];
    Handler fn = std::move(slot.fn);
    const char* category = slot.category;
    const Time enqueued_at = slot.enqueued_at;
    const bool cancelled = slot.cancelled != nullptr && *slot.cancelled;
    slot.cancelled.reset();
    free_slots_.push_back(top.slot);
    if (cancelled) {
      ++cancelled_skipped_;
      continue;
    }
    now_ = top.when;
    {
      // Profiling only reads the host clock and thread-local counters, so
      // the executed schedule is identical with it on or off.
      prof::EventScope scope(category,
                             static_cast<uint64_t>(top.when - enqueued_at));
      fn();
    }
    ++executed;
    ++g_total_events_executed;
    ++executed_;
  }
  if (heap_.empty() && until != kTimeInfinity) {
    now_ = std::max(now_, until);
  }
  return executed;
}

}  // namespace dcc
