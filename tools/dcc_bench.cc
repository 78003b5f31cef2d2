// Unified bench runner and regression gate.
//
// Runs every scenario bench (bench/bench_*.cc), measuring wall-clock time,
// executed simulation events (deterministic — any drift is a behavior
// change), the event heap's high-water mark, heap allocations (this binary
// replaces the global operator new to count them) and peak RSS, and writes
// a BENCH_dcc.json report. A run that selects one bench runs it
// in-process; a run of several re-executes `dcc_bench --filter <bench>`
// once per bench, so each peak RSS comes from a fresh process instead of
// the heap the earlier benches left behind. With --check, the report is
// compared against a committed baseline (bench/baseline.json by default)
// with per-metric tolerances; any regression exits non-zero, which is what
// CI gates on.
//
//   dcc_bench                         run the full suite, write BENCH_dcc.json
//   dcc_bench --quick --check         CI smoke: trimmed suite vs baseline
//   dcc_bench --filter fig8 --verbose one bench, with its tables on stdout
//   dcc_bench --quick --write-baseline  refresh bench/baseline.json

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench/benches.h"
#include "bench/harness.h"
#include "src/common/json.h"
#include "src/server/stub.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/profiler.h"
#include "tools/cli.h"

// --- allocation counter -----------------------------------------------------
//
// The global operator new is replaced in this binary only, so every C++ heap
// allocation of every bench is counted: calls and requested bytes. The
// simulation is deterministic, so for one toolchain the counts repeat
// exactly and --check gates them like sim_events. The array, nothrow and
// sized forms the library provides all forward to these two (aligned new,
// which no bench uses, is not counted).

namespace {

std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

// Out of line, so callers never see new's malloc paired with free (GCC's
// -Wmismatched-new-delete would flag it).
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { ::operator delete(block); }

namespace {

using dcc::cli::ReadFile;
using dcc::cli::WriteFile;

struct RunnerOptions {
  bool quick = false;
  bool check = false;
  bool list = false;
  bool verbose = false;
  bool write_baseline = false;
  double wall_slack = 0.15;
  double min_eps_scale = 1.0;
  std::string out = "BENCH_dcc.json";
  std::string baseline = "bench/baseline.json";
  std::string filter;
  std::string profile_out;  // Empty = profiling off; "-" = stdout.
};

void PrintUsage(FILE* stream) {
  std::fprintf(stream,
               "usage: dcc_bench [options]\n"
               "\n"
               "  --quick             trimmed workloads (CI smoke); baseline rows\n"
               "                      for quick and full runs are not comparable\n"
               "  --filter SUBSTR     only benches whose name contains SUBSTR\n"
               "  --list              list bench names and exit\n"
               "  --verbose           keep bench stdout (silenced by default)\n"
               "  --out PATH          report path (default BENCH_dcc.json)\n"
               "  --check             compare against the baseline; exit 1 on any\n"
               "                      regression, exit 2 if the baseline is missing;\n"
               "                      sim_events may not drift, event_heap_max and\n"
               "                      allocations (same toolchain, unprofiled runs)\n"
               "                      may not rise\n"
               "  --baseline PATH     baseline path (default bench/baseline.json)\n"
               "  --wall-slack F      allowed wall-clock slowdown fraction for\n"
               "                      --check (default 0.15; raise on noisy or\n"
               "                      differently-sized machines — sim_events\n"
               "                      stays tight either way)\n"
               "  --min-eps F         scale applied to the baseline's per-bench\n"
               "                      events/sec floors before the throughput\n"
               "                      check (default 1.0; lower on slow runners,\n"
               "                      0 disables the floor check)\n"
               "  --write-baseline    write the report to the baseline path too\n"
               "                      (per-bench min_eps floors are carried over\n"
               "                      from the previous baseline)\n"
               "  --profile-out PATH  run with the hot-path profiler enabled and\n"
               "                      write per-bench profiles (dcc_bench_profile\n"
               "                      JSON, readable by tools/dcc_why) to PATH,\n"
               "                      or to stdout with '-'\n"
               "  --help              this text\n");
}

bool ParseArgs(int argc, char** argv, RunnerOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        dcc::cli::UsageError(argv[i], "needs a value");
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      options->quick = true;
    } else if (arg == "--check") {
      options->check = true;
    } else if (arg == "--list") {
      options->list = true;
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else if (arg == "--write-baseline") {
      options->write_baseline = true;
    } else if (arg == "--filter") {
      options->filter = value();
    } else if (arg == "--out") {
      options->out = value();
    } else if (arg == "--baseline") {
      options->baseline = value();
    } else if (arg == "--profile-out") {
      options->profile_out = value();
    } else if (arg == "--wall-slack") {
      options->wall_slack = dcc::cli::ParseDouble("--wall-slack", value());
    } else if (arg == "--min-eps") {
      options->min_eps_scale = dcc::cli::ParseDouble("--min-eps", value());
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "dcc_bench: unknown flag '%s'\n", arg.data());
      PrintUsage(stderr);
      return false;
    }
  }
  return true;
}

// Redirects stdout to /dev/null while a bench runs; the runner's own
// progress lines go to stderr so they survive either way.
class StdoutSilencer {
 public:
  StdoutSilencer() {
    std::fflush(stdout);
    saved_fd_ = dup(STDOUT_FILENO);
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      dup2(null_fd, STDOUT_FILENO);
      close(null_fd);
    }
  }
  ~StdoutSilencer() {
    std::fflush(stdout);
    if (saved_fd_ >= 0) {
      dup2(saved_fd_, STDOUT_FILENO);
      close(saved_fd_);
    }
  }

 private:
  int saved_fd_ = -1;
};

// Runs `bench` in this process. With `profile_rows`, the hot-path profiler
// is on for the bench and its profile is appended there.
dcc::bench::BenchReport RunInProcess(const dcc::bench::BenchInfo& bench,
                                     const RunnerOptions& options,
                                     dcc::json::Value* profile_rows) {
  std::fprintf(stderr, "[dcc_bench] %s ...", bench.name);
  std::fflush(stderr);

  // Reset the kernel's peak-RSS watermark so the bench's own growth is
  // measurable; ru_maxrss alone is process-cumulative. When the reset is
  // unsupported the delta degrades to peak-so-far minus RSS at bench start.
  dcc::bench::ResetPeakRss();
  const int64_t rss_before = dcc::bench::CurrentRssKb();
  if (profile_rows != nullptr) {
    dcc::prof::Reset();
    dcc::prof::Enable();
  }
  const uint64_t events_before = dcc::EventLoop::TotalEventsExecuted();
  const uint64_t queries_before = dcc::StubClient::TotalQueriesLaunched();
  dcc::EventLoop::ResetThreadMaxPending();
  const auto wall_start = std::chrono::steady_clock::now();
  int exit_code = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  {
    // Scope the silencer so stdout is restored even on early return.
    std::unique_ptr<StdoutSilencer> silencer;
    if (!options.verbose) {
      silencer = std::make_unique<StdoutSilencer>();
    }
    dcc::bench::BenchOptions bench_options;
    bench_options.quick = options.quick;
    const uint64_t calls_before = g_alloc_calls.load(std::memory_order_relaxed);
    const uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
    exit_code = bench.fn(bench_options);
    allocs = g_alloc_calls.load(std::memory_order_relaxed) - calls_before;
    alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before;
  }
  const auto wall_end = std::chrono::steady_clock::now();

  dcc::bench::BenchReport entry;
  entry.name = bench.name;
  entry.metrics.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  entry.metrics.sim_events = dcc::EventLoop::TotalEventsExecuted() - events_before;
  entry.metrics.events_per_sec =
      entry.metrics.wall_ms > 0 && entry.metrics.sim_events > 0
          ? static_cast<double>(entry.metrics.sim_events) /
                (entry.metrics.wall_ms / 1000.0)
          : 0;
  entry.metrics.peak_rss_delta_kb =
      std::max<int64_t>(0, dcc::bench::PeakRssKb() - rss_before);
  entry.metrics.event_heap_max = dcc::EventLoop::ThreadMaxPending();
  entry.metrics.client_queries =
      dcc::StubClient::TotalQueriesLaunched() - queries_before;
  entry.metrics.allocs = allocs;
  entry.metrics.alloc_bytes = alloc_bytes;
  entry.metrics.exit_code = exit_code;

  if (profile_rows != nullptr) {
    dcc::prof::Disable();
    dcc::json::Value row = dcc::json::Value::MakeObject();
    row.Set("name", dcc::json::Value::OfString(bench.name));
    row.Set("wall_ms", dcc::json::Value::OfNumber(entry.metrics.wall_ms));
    row.Set("profile", dcc::prof::ProfileJsonValue(dcc::prof::Snapshot()));
    profile_rows->PushBack(std::move(row));
  }

  std::fprintf(stderr,
               " %.0f ms, %llu sim events (%.2fM events/s), rss +%lld KB, "
               "heap max %llu, %llu allocs%s\n",
               entry.metrics.wall_ms,
               static_cast<unsigned long long>(entry.metrics.sim_events),
               entry.metrics.events_per_sec / 1e6,
               static_cast<long long>(entry.metrics.peak_rss_delta_kb),
               static_cast<unsigned long long>(entry.metrics.event_heap_max),
               static_cast<unsigned long long>(entry.metrics.allocs),
               exit_code == 0 ? "" : " [FAILED]");
  return entry;
}

// Runs `bench` in a fresh `dcc_bench --filter <bench>` process and reads its
// report (and, with `profile_rows`, its profile) back from temporary files.
// The child prints the bench's progress line itself. A child that cannot
// run or report yields a failed entry.
dcc::bench::BenchReport RunInChild(const dcc::bench::BenchInfo& bench,
                                   const RunnerOptions& options,
                                   dcc::json::Value* profile_rows) {
  const std::string stem = (std::filesystem::temp_directory_path() /
                            ("dcc_bench." + std::to_string(getpid()) + "." + bench.name))
                               .string();
  const std::string report_path = stem + ".json";
  const std::string profile_path = stem + ".profile.json";
  std::vector<std::string> args = {"dcc_bench", "--filter", bench.name, "--out",
                                   report_path};
  if (options.quick) {
    args.push_back("--quick");
  }
  if (options.verbose) {
    args.push_back("--verbose");
  }
  if (profile_rows != nullptr) {
    args.push_back("--profile-out");
    args.push_back(profile_path);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = fork();
  if (child == 0) {
    execv("/proc/self/exe", argv.data());
    std::fprintf(stderr, "dcc_bench: cannot re-exec for %s: %s\n", bench.name,
                 std::strerror(errno));
    _exit(127);
  }
  if (child > 0) {
    waitpid(child, nullptr, 0);
  }

  dcc::bench::BenchReport entry;
  entry.name = bench.name;
  std::string text;
  dcc::bench::SuiteReport child_report;
  if (ReadFile(report_path, &text) && dcc::bench::ParseReportJson(text, &child_report) &&
      child_report.benches.size() == 1 && child_report.benches[0].name == bench.name) {
    entry = child_report.benches[0];
  } else {
    std::fprintf(stderr, "[dcc_bench] %s: child process produced no report\n", bench.name);
    entry.metrics.exit_code = 1;
  }
  dcc::json::Value profile;
  if (profile_rows != nullptr && ReadFile(profile_path, &text) &&
      dcc::json::Parse(text, &profile)) {
    if (const dcc::json::Value* rows = profile.Find("benches");
        rows != nullptr && rows->is_array()) {
      for (const dcc::json::Value& row : rows->AsArray()) {
        profile_rows->PushBack(row);
      }
    }
  }
  std::remove(report_path.c_str());
  std::remove(profile_path.c_str());
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  RunnerOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (options.list) {
    for (const dcc::bench::BenchInfo& bench : dcc::bench::AllBenches()) {
      std::printf("%-22s %s\n", bench.name, bench.description);
    }
    return 0;
  }

  dcc::bench::SuiteReport report;
  report.quick = options.quick;
  report.toolchain = dcc::bench::BuildToolchain();
  const bool profiling = !options.profile_out.empty();
  dcc::json::Value profile_benches = dcc::json::Value::MakeArray();
  // A filter equal to a bench's name selects that bench alone, which is how
  // a child started by RunInChild runs exactly one.
  std::vector<const dcc::bench::BenchInfo*> selected;
  for (const dcc::bench::BenchInfo& bench : dcc::bench::AllBenches()) {
    if (options.filter == bench.name) {
      selected = {&bench};
      break;
    }
    if (options.filter.empty() ||
        std::string(bench.name).find(options.filter) != std::string::npos) {
      selected.push_back(&bench);
    }
  }
  // One bench runs here; several run one per child process, so each bench's
  // peak RSS is measured in a fresh heap, not in whatever layout the
  // benches before it left behind.
  const bool in_process = selected.size() == 1;
  bool any_failed = false;
  dcc::json::Value* profile_rows = profiling ? &profile_benches : nullptr;
  for (const dcc::bench::BenchInfo* bench : selected) {
    dcc::bench::BenchReport entry = in_process
                                        ? RunInProcess(*bench, options, profile_rows)
                                        : RunInChild(*bench, options, profile_rows);
    any_failed = any_failed || entry.metrics.exit_code != 0;
    report.benches.push_back(std::move(entry));
  }

  if (report.benches.empty()) {
    std::fprintf(stderr, "dcc_bench: no bench matches filter '%s'\n",
                 options.filter.c_str());
    return 2;
  }

  if (profiling) {
    dcc::json::Value doc = dcc::json::Value::MakeObject();
    doc.Set("tool", dcc::json::Value::OfString("dcc_bench_profile"));
    doc.Set("version", dcc::json::Value::OfNumber(1));
    doc.Set("benches", std::move(profile_benches));
    const std::string profile_json = dcc::json::Write(doc, 1) + "\n";
    if (options.profile_out == "-") {
      std::fputs(profile_json.c_str(), stdout);
    } else if (!WriteFile(options.profile_out, profile_json)) {
      std::fprintf(stderr, "dcc_bench: cannot write %s\n",
                   options.profile_out.c_str());
      return 2;
    } else {
      std::fprintf(stderr, "[dcc_bench] profiles written to %s\n",
                   options.profile_out.c_str());
    }
  }

  if (options.write_baseline) {
    // Floors are policy, not measurement: a refreshed baseline keeps the
    // min_eps values hand-set in the previous one instead of dropping them.
    std::string old_text;
    dcc::bench::SuiteReport old_baseline;
    if (ReadFile(options.baseline, &old_text) &&
        dcc::bench::ParseReportJson(old_text, &old_baseline)) {
      for (dcc::bench::BenchReport& bench : report.benches) {
        for (const dcc::bench::BenchReport& old : old_baseline.benches) {
          if (old.name == bench.name) {
            bench.metrics.min_events_per_sec = old.metrics.min_events_per_sec;
            break;
          }
        }
      }
    }
  }

  const std::string json = dcc::bench::RenderJson(report);
  if (!WriteFile(options.out, json)) {
    std::fprintf(stderr, "dcc_bench: cannot write %s\n", options.out.c_str());
    return 2;
  }
  std::fprintf(stderr, "[dcc_bench] report written to %s\n", options.out.c_str());
  if (options.write_baseline) {
    if (!WriteFile(options.baseline, json)) {
      std::fprintf(stderr, "dcc_bench: cannot write %s\n", options.baseline.c_str());
      return 2;
    }
    std::fprintf(stderr, "[dcc_bench] baseline refreshed at %s\n",
                 options.baseline.c_str());
  }
  if (any_failed) {
    std::fprintf(stderr, "[dcc_bench] FAIL: a bench returned non-zero\n");
    return 1;
  }

  if (options.check) {
    std::string baseline_text;
    if (!ReadFile(options.baseline, &baseline_text)) {
      std::fprintf(stderr,
                   "dcc_bench: baseline %s missing — generate it with "
                   "dcc_bench%s --write-baseline\n",
                   options.baseline.c_str(), options.quick ? " --quick" : "");
      return 2;
    }
    dcc::bench::SuiteReport baseline;
    if (!dcc::bench::ParseReportJson(baseline_text, &baseline)) {
      std::fprintf(stderr, "dcc_bench: baseline %s is not a dcc_bench report\n",
                   options.baseline.c_str());
      return 2;
    }
    if (!options.filter.empty()) {
      // A filtered run covers a subset; drop baseline rows outside it so the
      // comparison only reports real regressions.
      std::vector<dcc::bench::BenchReport> kept;
      for (const dcc::bench::BenchReport& bench : baseline.benches) {
        if (bench.name.find(options.filter) != std::string::npos) {
          kept.push_back(bench);
        }
      }
      baseline.benches = std::move(kept);
    }
    dcc::bench::Tolerances tolerances;
    tolerances.wall_slack = options.wall_slack;
    tolerances.min_eps_scale = options.min_eps_scale;
    // The profiler allocates its own tables while a bench runs.
    tolerances.allocations = !profiling;
    std::vector<std::string> notes;
    const std::vector<std::string> violations =
        dcc::bench::CompareReports(report, baseline, tolerances, &notes);
    for (const std::string& skipped : notes) {
      std::fprintf(stderr, "[dcc_bench] note: %s\n", skipped.c_str());
    }
    if (!violations.empty()) {
      std::fprintf(stderr, "[dcc_bench] REGRESSION vs %s:\n",
                   options.baseline.c_str());
      for (const std::string& violation : violations) {
        std::fprintf(stderr, "  - %s\n", violation.c_str());
      }
      return 1;
    }
    std::fprintf(stderr, "[dcc_bench] check passed vs %s\n",
                 options.baseline.c_str());
  }
  return 0;
}
