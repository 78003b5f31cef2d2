// Discrete-event loop with a virtual microsecond clock.
//
// All experiments run on virtual time: scheduling an event is O(log n) and
// running 60 simulated seconds takes only as long as the handlers
// themselves. Events at equal timestamps run in scheduling order (FIFO),
// which keeps the simulation deterministic.
//
// The pending set is a 4-ary min-heap of small (when, seq, slot) keys over a
// vector of event slots that holds the handlers; slots are recycled through
// a free list. seq is assigned in schedule order, so (when, seq) is a total
// order: the one a plain priority queue (or htsim's ordered event list)
// gives. Only the 24-byte keys move while sifting; a handler is written
// once when scheduled and moved out once when run.
//
// The heap holds only live work. An open-loop client's launches form a
// series (ScheduleSeries): the whole series takes its sequence numbers when
// it is scheduled, but only its next member is in the heap, and each member
// arms the one after it before running. The run is event-for-event the one
// that scheduling every member up front gives (see ScheduleSeries).
//
// Every schedule call accepts an optional *category* — a string literal
// naming the kind of work ("net.deliver", "stub.launch", "resolver.timeout").
// Categories feed the hot-path profiler (src/telemetry/profiler.h): when
// profiling is enabled, Run() wraps each handler in a scoped site named
// after its category and records per-category execution counts, handler
// wall time and the virtual schedule-to-run lag. Categories are plain
// labels: they never affect ordering, so labeled and unlabeled runs are
// event-for-event identical.
//
// Cancellation: every schedule call returns an EventId, and Cancel(id)
// takes that event out of the heap at once (each slot records where its
// key sits in the heap) and destroys its handler. A cancelled event never
// runs, never counts as executed and never shows up in pending() or the
// profile. Cancel draws no sequence number, so the events left run exactly
// as before. A stale id (its event already ran or was cancelled, even if
// its slot has been reused since) cancels nothing.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace dcc {

namespace telemetry {
class Observer;
}  // namespace telemetry

class EventLoop;

// Names one scheduled event for Cancel(). A default-constructed id names
// nothing.
struct EventId {
  uint32_t slot = UINT32_MAX;
  uint64_t seq = 0;
};

class EventLoop {
 public:
  // The work an event runs: a move-only `void()` callable. Captures of up
  // to kInlineBytes live inside the handler, so scheduling the common
  // closures (a network delivery `[this, src, dst, payload]` is 32 bytes, a
  // timeout `[this, port]` 16) allocates nothing; larger or over-aligned
  // ones, and ones that may throw when moved, are moved to the heap.
  // Calling an empty (default-constructed or moved-from) handler is
  // undefined.
  class Handler {
   public:
    static constexpr size_t kInlineBytes = 48;

    // Whether a callable of type F is stored inline.
    template <typename F>
    static constexpr bool kStoredInline =
        sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
        std::is_nothrow_move_constructible_v<F>;

    Handler() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Handler> &&
                                          std::is_invocable_r_v<void, D&>>>
    Handler(F&& fn) {  // NOLINT(google-explicit-constructor)
      if constexpr (kStoredInline<D>) {
        ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
        ops_ = &kInlineOps<D>;
      } else {
        ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
        ops_ = &kHeapOps<D>;
      }
    }

    Handler(Handler&& other) noexcept : ops_(other.ops_) {
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    Handler& operator=(Handler&& other) noexcept {
      if (this != &other) {
        Reset();
        ops_ = other.ops_;
        if (ops_ != nullptr) {
          ops_->relocate(other.storage_, storage_);
          other.ops_ = nullptr;
        }
      }
      return *this;
    }
    ~Handler() { Reset(); }

    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void* storage);
      // Move-constructs the callable at `to` and destroys the one at `from`.
      void (*relocate)(void* from, void* to) noexcept;
      void (*destroy)(void* storage) noexcept;
    };

    template <typename D>
    static D& InlineAt(void* storage) {
      return *std::launder(static_cast<D*>(storage));
    }
    template <typename D>
    static D*& HeapAt(void* storage) {
      return *std::launder(static_cast<D**>(storage));
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void* storage) { InlineAt<D>(storage)(); },
        [](void* from, void* to) noexcept {
          ::new (to) D(std::move(InlineAt<D>(from)));
          InlineAt<D>(from).~D();
        },
        [](void* storage) noexcept { InlineAt<D>(storage).~D(); }};
    template <typename D>
    static constexpr Ops kHeapOps = {
        [](void* storage) { (*HeapAt<D>(storage))(); },
        [](void* from, void* to) noexcept { ::new (to) D*(HeapAt<D>(from)); },
        [](void* storage) noexcept { delete HeapAt<D>(storage); }};

    void Reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }

    alignas(void*) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  // With an observer, the loop registers its executed-event tally, its
  // pending-queue depth and its virtual clock as metrics (read at snapshot
  // time, so snapshot or freeze the registry before the loop dies).
  explicit EventLoop(telemetry::Observer* obs = nullptr);
  ~EventLoop();

  Time now() const { return now_; }

  // Registers this loop's virtual clock with the logging layer so every log
  // line is prefixed with the simulated time (see SetLogClock). The clock is
  // deregistered automatically when this loop is destroyed.
  void InstallLogClock();

  // Schedules `fn` at absolute time `t` (clamped to `now`). `category` must
  // be a string literal (or otherwise outlive the loop); it labels the event
  // for the profiler's per-category table and flamegraph output. The
  // returned id can cancel the event until it runs.
  EventId ScheduleAt(Time t, Handler fn);
  EventId ScheduleAt(Time t, const char* category, Handler fn);

  // Schedules `fn` after `delay` from now.
  EventId ScheduleAfter(Duration delay, Handler fn);
  EventId ScheduleAfter(Duration delay, const char* category, Handler fn);

  // Takes the event out of the pending set and destroys its handler. A
  // no-op for an id whose event has already run or been cancelled, and for
  // a default-constructed id.
  void Cancel(EventId id);

  // Schedules `fn` every `period`, starting at now + period, until the loop
  // stops or `until` is reached (kTimeInfinity = forever). The handler is
  // stored once in shared state: re-arming each tick copies a shared_ptr,
  // not the handler itself (periodic samplers capture non-trivial state).
  void SchedulePeriodic(Duration period, Handler fn, Time until = kTimeInfinity);
  void SchedulePeriodic(Duration period, const char* category, Handler fn,
                        Time until = kTimeInfinity);

  // Schedules `count` events: member i runs `fn(i)` at `when(i)` (clamped to
  // now). `when` must be non-decreasing in i. The series takes `count`
  // consecutive sequence numbers now, and member i keeps the i-th, but only
  // one member is pending at a time: member i+1 enters the heap when member
  // i runs, just before `fn(i)`. The heap always pops its least
  // (when, seq) key and member i+1's key exceeds member i's, so every event
  // — series members and all others, ties included — runs in exactly the
  // order that scheduling all `count` members now would give, while the
  // heap holds one entry per series instead of `count`. `fn` and `when` are
  // stored once for the whole series.
  void ScheduleSeries(uint64_t count, std::function<Time(uint64_t)> when,
                      const char* category, std::function<void(uint64_t)> fn);

  // Runs until the queue is empty, `until` is passed, or Stop() is called.
  // Returns the number of events executed.
  size_t Run(Time until = kTimeInfinity);

  // Cumulative events executed across every EventLoop in this process. The
  // simulation is deterministic, so this is a machine-independent measure of
  // work done — the bench harness uses deltas of it as its primary
  // regression signal.
  static uint64_t TotalEventsExecuted();

  // Highest pending() any EventLoop on this thread reached since the last
  // ResetThreadMaxPending() (or thread start). Like TotalEventsExecuted it
  // is deterministic, and it lets the bench harness read the heap
  // high-water mark of loops that benches build internally.
  static size_t ThreadMaxPending();
  static void ResetThreadMaxPending();

  void Stop() { stopped_ = true; }

  // Events in the heap, all live: a cancelled event leaves at once. A series
  // counts once, for its next member.
  size_t pending() const { return heap_.size(); }

  // Highest pending() observed since construction. Always tracked (two
  // instructions per schedule); the profiler report includes it.
  size_t max_pending() const { return max_pending_; }

 private:
  // Heap entry: ordering key plus the index of the event's slot.
  struct Key {
    Time when;
    uint64_t seq;
    uint32_t slot;
    // seq is unique, so no two keys tie.
    bool operator<(const Key& other) const {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };
  // Slot::heap_pos of a slot whose event is not in the heap.
  static constexpr uint32_t kNotQueued = UINT32_MAX;
  struct Slot {
    Handler fn;
    const char* category = nullptr;  // Set while in use; label only.
    Time enqueued_at = 0;  // Virtual enqueue time, for schedule-to-run lag.
    uint32_t heap_pos = kNotQueued;  // Index of the event's key in heap_.
  };

  struct Series;

  EventId Schedule(Time t, const char* category, Handler&& fn);
  // Inserts an event with an explicit key; `when` must not be before now.
  EventId Push(Time when, uint64_t seq, const char* category, Handler&& fn);
  void ArmSeries(std::unique_ptr<Series> series, uint64_t index);
  // Takes the key at heap_[i] out of the heap and frees its slot.
  void Remove(size_t i);
  // Place `key` in the hole at heap_[i], moving it up toward the root or
  // down toward the leaves, and keep heap_pos current for every key moved.
  void SiftUp(size_t i, Key key);
  void SiftDown(size_t i, Key key);
  void Place(size_t i, Key key) {
    heap_[i] = key;
    slots_[key.slot].heap_pos = static_cast<uint32_t>(i);
  }

  std::vector<Key> heap_;         // 4-ary min-heap by (when, seq).
  std::vector<Slot> slots_;       // Indexed by Key::slot.
  std::vector<uint32_t> free_slots_;

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  size_t max_pending_ = 0;
  uint64_t executed_ = 0;  // Events this loop has run.
  bool stopped_ = false;
};

}  // namespace dcc

#endif  // SRC_SIM_EVENT_LOOP_H_
