// Shared infrastructure for the unified bench runner (tools/dcc_bench.cc).
//
// Every scenario bench exposes an `int Run*(const BenchOptions&)` entry
// point (declared in bench/benches.h, listed in bench/bench_registry.cc).
// The runner executes them in-process, measures wall-clock time, simulated
// events (a deterministic, machine-independent work count from
// EventLoop::TotalEventsExecuted), the event heap's high-water mark, heap
// allocations and peak RSS, renders BENCH_dcc.json, and in --check mode
// compares the numbers against a committed baseline with per-metric
// tolerances.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcc {
namespace bench {

struct BenchOptions {
  // Trimmed workloads (fewer seeds / sweep points / operations) for smoke
  // runs; results are still deterministic, just a different baseline row.
  bool quick = false;
};

using BenchFn = int (*)(const BenchOptions&);

struct BenchInfo {
  const char* name;  // Matches the historical binary name minus "bench_".
  const char* description;
  BenchFn fn;
};

// All in-process runnable scenario benches, in suite order. The
// google-benchmark microbench (bench_mopi_microbench) stays a standalone
// binary: it owns its own timing methodology.
const std::vector<BenchInfo>& AllBenches();

// nullptr when no bench matches `name` exactly.
const BenchInfo* FindBench(std::string_view name);

// --- measurements -----------------------------------------------------------

struct BenchMetrics {
  double wall_ms = 0;        // Host wall-clock; machine-dependent.
  uint64_t sim_events = 0;   // Event-loop handlers executed; deterministic.
  double events_per_sec = 0; // sim_events / wall seconds; meaningless (and
                             // rendered as JSON null) when sim_events is 0.
  int64_t peak_rss_delta_kb = 0;  // Peak RSS growth of the process the
                                  // bench ran in, over its RSS at bench
                                  // start; dcc_bench gives every bench of a
                                  // multi-bench run its own process.
  // Highest EventLoop::pending() of any loop the bench ran
  // (EventLoop::ThreadMaxPending); deterministic, 0 = not measured.
  uint64_t event_heap_max = 0;
  // Client queries the bench's stubs launched (deltas of
  // StubClient::TotalQueriesLaunched); deterministic.
  uint64_t client_queries = 0;
  // Global operator new calls and bytes while the bench ran. Deterministic
  // for one toolchain (SuiteReport::toolchain); 0 = not measured.
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  // Hand-maintained events/sec floor carried in the baseline (0 = none).
  // Unlike the measured metrics this is a policy knob: --check fails when
  // the current run's events_per_sec drops below it, making throughput wins
  // regression-guarded instead of just claimed. --write-baseline preserves
  // the floors from the previous baseline.
  double min_events_per_sec = 0;
  int exit_code = 0;
};

struct BenchReport {
  std::string name;
  BenchMetrics metrics;
};

struct SuiteReport {
  bool quick = false;
  // Compiler that built the reporting binary, e.g. "gcc 12.2.0". Allocation
  // counts depend on the standard library, so they are only compared
  // between reports with the same toolchain.
  std::string toolchain;
  std::vector<BenchReport> benches;
};

// The toolchain string of this build, as SuiteReport::toolchain records it.
std::string BuildToolchain();

// Current peak RSS of this process in KiB. Prefers /proc/self/status VmHWM
// (resettable via ResetPeakRss) and falls back to getrusage ru_maxrss
// (process-cumulative, never resets).
int64_t PeakRssKb();

// Current (not peak) RSS in KiB from /proc/self/status VmRSS; 0 when
// unavailable.
int64_t CurrentRssKb();

// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS by
// writing "5" to /proc/self/clear_refs. Returns false when the kernel does
// not support it; PeakRssKb() then reports the process-cumulative peak and
// per-bench deltas degrade to max(0, peak - rss_at_bench_start).
bool ResetPeakRss();

// BENCH_dcc.json rendering and parsing.
std::string RenderJson(const SuiteReport& report);
bool ParseReportJson(const std::string& text, SuiteReport* out);

// --- regression check -------------------------------------------------------

struct Tolerances {
  // Wall-clock slack as a fraction of the baseline (0.15 = fail when >15%
  // slower). Only slowdowns fail; being faster never does.
  double wall_slack = 0.15;
  // A slowdown must also exceed this many absolute milliseconds: on
  // millisecond-scale benches scheduler noise easily exceeds any relative
  // slack, and sim_events still gates their behavior.
  double wall_floor_ms = 250;
  // Peak-RSS growth allowed as a fraction of the baseline.
  double rss_slack = 0.50;
  // An RSS regression must also exceed this many absolute KiB: per-bench
  // deltas on small benches are a few MiB, where allocator and page-cache
  // noise swamps any relative slack.
  double rss_floor_kb = 4096;
  // Scale applied to each baseline row's min_events_per_sec floor before
  // the throughput check (CI can relax floors on slow runners with
  // --min-eps 0.5; 0 disables the check entirely).
  double min_eps_scale = 1.0;
  // Compare allocation counts. event_heap_max and allocs/alloc_bytes fail
  // on any rise over the baseline; allocations are skipped (with a note)
  // when this is off, as for a profiled run whose profiler allocates, or
  // when the two reports' toolchains differ.
  bool allocations = true;
};

// Returns one human-readable line per violation (empty = pass). sim_events
// must equal the baseline's exactly: the simulator is deterministic, so any
// difference means behavior changed, not the machine. Benches
// present in only one of the two reports are reported as violations, as is a
// quick/full mode mismatch. When `notes` is non-null it receives one line
// per comparison that was skipped rather than judged (e.g. a bench whose
// baseline ran zero simulated events), so "passed" is distinguishable from
// "had nothing to compare".
std::vector<std::string> CompareReports(const SuiteReport& current,
                                        const SuiteReport& baseline,
                                        const Tolerances& tolerances,
                                        std::vector<std::string>* notes = nullptr);

}  // namespace bench
}  // namespace dcc

#endif  // BENCH_HARNESS_H_
