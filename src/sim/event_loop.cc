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

EventId EventLoop::ScheduleAt(Time t, Handler fn) {
  return Schedule(t, kUncategorized, std::move(fn));
}

EventId EventLoop::ScheduleAt(Time t, const char* category, Handler fn) {
  return Schedule(t, category, std::move(fn));
}

EventId EventLoop::ScheduleAfter(Duration delay, Handler fn) {
  return Schedule(now_ + std::max<Duration>(0, delay), kUncategorized,
                  std::move(fn));
}

EventId EventLoop::ScheduleAfter(Duration delay, const char* category,
                                 Handler fn) {
  return Schedule(now_ + std::max<Duration>(0, delay), category,
                  std::move(fn));
}

void EventLoop::Cancel(EventId id) {
  if (id.slot >= slots_.size()) {
    return;
  }
  const uint32_t pos = slots_[id.slot].heap_pos;
  // A reused slot holds a later event, whose seq differs.
  if (pos == kNotQueued || heap_[pos].seq != id.seq) {
    return;
  }
  // Destroyed on return, after the heap is whole again: a capture's
  // destructor may itself schedule or cancel.
  Handler dead = std::move(slots_[id.slot].fn);
  Remove(pos);
}

void EventLoop::SchedulePeriodic(Duration period, Handler fn, Time until) {
  SchedulePeriodic(period, "event.periodic", std::move(fn), until);
}

void EventLoop::SchedulePeriodic(Duration period, const char* category,
                                 Handler fn, Time until) {
  if (period <= 0 || now_ + period > until) {
    return;
  }
  // The handler lives in shared state: each tick re-arms by copying a
  // shared_ptr (one refcount bump) instead of copying the std::function —
  // periodic samplers capture probe tables that used to be cloned per tick.
  struct Tick {
    EventLoop* loop;
    Duration period;
    const char* category;
    Handler fn;
    Time until;

    void Arm(std::shared_ptr<Tick> self) {
      EventLoop* target = loop;
      target->Schedule(target->now_ + period, category,
                       [self = std::move(self)]() {
                         self->fn();
                         if (self->loop->now_ + self->period <= self->until) {
                           self->Arm(self);
                         }
                       });
    }
  };
  auto tick = std::make_shared<Tick>(
      Tick{this, period, category, std::move(fn), until});
  tick->Arm(tick);
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
       });
}

EventId EventLoop::Schedule(Time t, const char* category, Handler&& fn) {
  return Push(std::max(t, now_), next_seq_++, category, std::move(fn));
}

EventId EventLoop::Push(Time when, uint64_t seq, const char* category,
                        Handler&& fn) {
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
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{when, seq, slot});
  max_pending_ = std::max(max_pending_, heap_.size());
  g_max_pending = std::max(g_max_pending, heap_.size());
  prof::RecordQueueDepth(heap_.size());
  return EventId{slot, seq};
}

void EventLoop::SiftUp(size_t i, Key key) {
  // Move parents down into the hole until the key's place is found.
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(key < heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void EventLoop::SiftDown(size_t i, Key key) {
  // Move the least child up into the hole until the key's place is found.
  const size_t n = heap_.size();
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
    if (!(heap_[least] < key)) {
      break;
    }
    Place(i, heap_[least]);
    i = least;
  }
  Place(i, key);
}

void EventLoop::Remove(size_t i) {
  const uint32_t slot = heap_[i].slot;
  slots_[slot].heap_pos = kNotQueued;
  free_slots_.push_back(slot);
  // Refill the hole with the last key, which may belong above or below it.
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;
  }
  if (i > 0 && last < heap_[(i - 1) / kArity]) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
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
    // Take everything out of the slot and recycle it before the handler
    // runs: the handler may schedule, which can reuse or reallocate slots_.
    Slot& slot = slots_[top.slot];
    Handler fn = std::move(slot.fn);
    const char* category = slot.category;
    const Time enqueued_at = slot.enqueued_at;
    Remove(0);
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
