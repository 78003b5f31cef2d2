// Scoped hot-path profiler: statically registered sites, thread-local
// timing, folded-stack output for flamegraphs.
//
// The simulator's bench numbers (BENCH_dcc.json) say the big scenarios run
// at a few hundred thousand events per second, but not *where* the cycles
// go. This profiler turns "the sim is slow" into a ranked list of hot
// sites. Design constraints, in order:
//
//  1. Determinism is sacred. The profiler reads the host's monotonic clock
//     and bumps thread-local counters; it never touches virtual time, RNG
//     streams, or scheduling order, so `EventLoop::TotalEventsExecuted` and
//     seeded replays are byte-identical with profiling on or off (enforced
//     by tests/profiler_test.cc).
//  2. Zero cost when off. Sites use the same cached-pointer pattern as the
//     metrics registry: a site is registered once (function-local static),
//     and a disabled scope is a thread-local load plus one predictable
//     branch. Defining DCC_PROFILER_DISABLED at compile time removes even
//     that and compiles every macro to nothing.
//  3. Single-writer state. All mutable profile state is thread_local, so
//     parallel scenario evaluation (dcc_search workers) profiles each
//     thread independently without locks on the hot path. Snapshot() reads
//     the calling thread's state.
//
// Usage:
//
//   void RecursiveResolver::HandleDatagram(...) {
//     DCC_PROF_SCOPE("resolver.handle");   // static site, scoped timing
//     ...
//   }
//
//   prof::Enable();
//   ... run simulation ...
//   prof::Disable();
//   prof::ProfileReport report = prof::Snapshot();
//
// Each site accumulates call count, total wall time (outermost entries
// only, so recursion does not double-count) and self wall time (excluding
// children). In addition the current site stack is interned into a path
// tree, yielding exact (not sampled) folded stacks — `dcc_why folded`
// prints them in the `a;b;c <weight>` format every flamegraph tool eats.
//
// The event loop reports per-category execution stats (count, handler wall
// time, virtual schedule-to-run lag, queue-depth high-watermark) through
// RecordEvent/RecordQueueDepth, and the DNS message/codec/network layers
// report copy churn through the CopyCounters hooks. All of it lands in the
// same ProfileReport.

#ifndef SRC_TELEMETRY_PROFILER_H_
#define SRC_TELEMETRY_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace dcc {
namespace prof {

// ---------------------------------------------------------------------------
// Site registry (process-global, append-only)
// ---------------------------------------------------------------------------

// A named profiling site. Register statically via DCC_PROF_SCOPE (one
// function-local static per call site) or dynamically via InternSite (event
// categories, bench roots). Sites are never freed; ids are dense indices.
class Site {
 public:
  explicit Site(const char* name);

  uint32_t id() const { return id_; }
  const char* name() const { return name_; }

 private:
  const char* name_;
  uint32_t id_;
};

// Find-or-create a site by name (string contents, not pointer). Stable for
// the process lifetime. Used for names only known at runtime.
Site* InternSite(const char* name);

// ---------------------------------------------------------------------------
// Enable / snapshot (thread-local state)
// ---------------------------------------------------------------------------

// Per-site aggregate, one row per registered site that was entered.
struct SiteReport {
  std::string name;
  uint64_t calls = 0;
  uint64_t total_ns = 0;  // Wall time incl. children; outermost entries only.
  uint64_t self_ns = 0;   // Wall time excl. children.
};

// One folded stack: the exact path of nested sites, with the time spent in
// the leaf while this precise path was active.
struct PathReport {
  std::vector<std::string> stack;  // Outermost first.
  uint64_t calls = 0;
  uint64_t self_ns = 0;
};

// Per-event-loop-category execution stats (see EventLoop labeled
// scheduling). Lag is virtual time (microseconds) between the moment an
// event was enqueued and the moment it ran — deterministic, and a direct
// read on scheduler queueing behavior.
struct EventCategoryReport {
  std::string category;
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t lag_us_sum = 0;
  uint64_t lag_us_max = 0;
};

// Message / buffer churn counters fed by src/dns and src/sim/network, plus
// cached-encoding reuse.
struct CopyCounters {
  uint64_t msg_copies = 0;        // dcc::Message copy ctor/assign
  uint64_t msg_moves = 0;         // dcc::Message move ctor/assign
  uint64_t encode_calls = 0;      // EncodeMessage invocations
  uint64_t encode_bytes = 0;      // wire bytes produced
  uint64_t decode_calls = 0;      // DecodeMessage invocations
  uint64_t decode_bytes = 0;      // wire bytes parsed
  uint64_t payload_hops = 0;      // Network::Send datagrams accepted
  uint64_t payload_hop_bytes = 0; // payload bytes pushed through Send
  uint64_t encode_cache_hits = 0; // sends reusing a cached wire encoding
  // Always 0: the buffer pool and the timing wheel that fed these are gone.
  // They stay only until benchmark/dcc_benchmark.cc stops reading them.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t wheel_cascades = 0;
};

struct ProfileReport {
  uint64_t enabled_wall_ns = 0;   // Wall time spent with profiling enabled.
  uint64_t attributed_ns = 0;     // Sum of self_ns across all sites: wall
                                  // time covered by at least one scope.
  std::vector<SiteReport> sites;          // Sorted by self_ns descending.
  std::vector<PathReport> folded;         // Stable (first-seen) order.
  std::vector<EventCategoryReport> event_categories;  // By wall_ns desc.
  uint64_t queue_depth_max = 0;
  CopyCounters copies;
};

// Turns profiling on/off for the calling thread. Enable() while already
// enabled is a no-op; Disable() folds the elapsed enabled time into the
// report. Reset() clears all accumulated state (and leaves profiling off).
void Enable();
void Disable();
void Reset();

// Snapshot of the calling thread's accumulated profile. Callable while
// enabled (the open enabled-interval is included).
ProfileReport Snapshot();

// Builds the profile JSON object for a report, tagged "tool": "dcc_prof" (the
// schema's name; tools/dcc_why reads it).
// Exposed as a json::Value so callers (dcc_bench) can embed per-bench
// profiles inside a larger document.
json::Value ProfileJsonValue(const ProfileReport& report);

// Serializes a report into the dcc_prof JSON schema (see tools/dcc_why).
std::string WriteProfileJson(const ProfileReport& report);

// ---------------------------------------------------------------------------
// Hot-path hooks (inline fast path: one thread-local load + branch)
// ---------------------------------------------------------------------------

// True while the calling thread is profiling. Function-local and
// constant-initialized: unlike an `extern thread_local`, access needs no
// init-wrapper call, so the inline guards below still compile to one TLS
// load + branch — and it sidesteps a GCC/binutils interaction where the
// linker's TLS relaxation rewrites the wrapper's address computation from
// `add` to `lea`, leaving UBSan's null check reading stale flags (a
// spurious "load of null pointer of type 'bool'" abort under
// -fsanitize=undefined).
inline bool& TlsEnabled() {
  thread_local bool enabled = false;
  return enabled;
}

inline bool IsEnabled() { return TlsEnabled(); }

// Out-of-line slow paths, called only when enabled.
void PushScope(const Site& site);
void PopScope();
void RecordEventSlow(const char* category, uint64_t wall_ns, uint64_t lag_us);
void RecordQueueDepthSlow(uint64_t depth);
CopyCounters& MutableCopyCounters();

// RAII scope. Prefer the DCC_PROF_SCOPE macro, which pairs this with a
// function-local static Site.
class ScopedSite {
 public:
  explicit ScopedSite(const Site& site) : active_(TlsEnabled()) {
    if (active_) {
      PushScope(site);
    }
  }
  ~ScopedSite() {
    if (active_) {
      PopScope();
    }
  }
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  const bool active_;
};

// Scope used by EventLoop::Run around each handler: behaves like ScopedSite
// on the category's interned site, and additionally folds the handler's wall
// time and virtual schedule-to-run lag into the per-category table.
class EventScope {
 public:
  EventScope(const char* category, uint64_t lag_us);
  ~EventScope();
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

 private:
  const bool active_;
  const char* category_;
  uint64_t lag_us_ = 0;
  uint64_t start_ns_ = 0;
};

inline void RecordQueueDepth(uint64_t depth) {
  if (TlsEnabled()) {
    RecordQueueDepthSlow(depth);
  }
}

inline void CountMessageCopy() {
  if (TlsEnabled()) {
    ++MutableCopyCounters().msg_copies;
  }
}
inline void CountMessageMove() {
  if (TlsEnabled()) {
    ++MutableCopyCounters().msg_moves;
  }
}
inline void CountEncode(uint64_t bytes) {
  if (TlsEnabled()) {
    CopyCounters& c = MutableCopyCounters();
    ++c.encode_calls;
    c.encode_bytes += bytes;
  }
}
inline void CountDecode(uint64_t bytes) {
  if (TlsEnabled()) {
    CopyCounters& c = MutableCopyCounters();
    ++c.decode_calls;
    c.decode_bytes += bytes;
  }
}
inline void CountPayloadHop(uint64_t bytes) {
  if (TlsEnabled()) {
    CopyCounters& c = MutableCopyCounters();
    ++c.payload_hops;
    c.payload_hop_bytes += bytes;
  }
}
inline void CountEncodeCacheHit() {
  if (TlsEnabled()) {
    ++MutableCopyCounters().encode_cache_hits;
  }
}

}  // namespace prof
}  // namespace dcc

// ---------------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------------

#if defined(DCC_PROFILER_DISABLED)

#define DCC_PROF_SCOPE(name) \
  do {                       \
  } while (false)

#else

#define DCC_PROF_CONCAT_INNER(a, b) a##b
#define DCC_PROF_CONCAT(a, b) DCC_PROF_CONCAT_INNER(a, b)

// Scoped timing for the enclosing block. `name` must be a string literal;
// the site is registered once (thread-safe function-local static) and the
// per-call cost when profiling is off is a TLS load plus one branch.
#define DCC_PROF_SCOPE(name)                                             \
  static ::dcc::prof::Site DCC_PROF_CONCAT(dcc_prof_site_, __LINE__){name}; \
  ::dcc::prof::ScopedSite DCC_PROF_CONCAT(dcc_prof_scope_, __LINE__)(    \
      DCC_PROF_CONCAT(dcc_prof_site_, __LINE__))

#endif  // DCC_PROFILER_DISABLED

#endif  // SRC_TELEMETRY_PROFILER_H_
