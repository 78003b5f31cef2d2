#include "bench/harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "src/common/json.h"

namespace dcc {
namespace bench {

namespace {

// Reads a "KiB-valued" field like "VmHWM:    12345 kB" out of
// /proc/self/status. Returns -1 when the file or field is unavailable.
int64_t ProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  if (!status) {
    return -1;
  }
  const size_t field_len = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field_len, field) == 0 && line[field_len] == ':') {
      return std::atoll(line.c_str() + field_len + 1);
    }
  }
  return -1;
}

}  // namespace

int64_t PeakRssKb() {
  const int64_t hwm = ProcStatusKb("VmHWM");
  if (hwm >= 0) {
    return hwm;
  }
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  // Linux reports ru_maxrss in KiB.
  return static_cast<int64_t>(usage.ru_maxrss);
}

int64_t CurrentRssKb() {
  const int64_t rss = ProcStatusKb("VmRSS");
  return rss >= 0 ? rss : 0;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) {
    return false;
  }
  clear_refs << "5";  // 5 = reset the peak-RSS watermark (VmHWM) only.
  clear_refs.flush();
  return static_cast<bool>(clear_refs) && ProcStatusKb("VmHWM") >= 0;
}

std::string BuildToolchain() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string RenderJson(const SuiteReport& report) {
  std::string out = "{\n  \"suite\": \"dcc_bench\",\n  \"quick\": ";
  out += report.quick ? "true" : "false";
  out += ",\n  \"toolchain\": \"" + report.toolchain + "\"";
  out += ",\n  \"benches\": [\n";
  for (size_t i = 0; i < report.benches.size(); ++i) {
    const BenchReport& bench = report.benches[i];
    const BenchMetrics& m = bench.metrics;
    // A bench that ran zero simulated events has no meaningful event rate;
    // emit null rather than a misleading 0.0 so consumers can tell "no sim
    // ran" apart from "infinitely slow".
    char rate[64];
    if (m.sim_events > 0) {
      std::snprintf(rate, sizeof(rate), "%.1f", m.events_per_sec);
    } else {
      std::snprintf(rate, sizeof(rate), "null");
    }
    // The floor is policy, not measurement; only rows that carry one emit
    // it, so reports from builds without floors are byte-identical to old
    // ones.
    char floor[64];
    if (m.min_events_per_sec > 0) {
      std::snprintf(floor, sizeof(floor), "\"min_eps\": %.1f, ",
                    m.min_events_per_sec);
    } else {
      floor[0] = '\0';
    }
    // Per-query allocation costs are derived (the parser ignores them), and
    // null for benches that launch no client query.
    char per_query[128];
    if (m.client_queries > 0) {
      const auto queries = static_cast<double>(m.client_queries);
      std::snprintf(per_query, sizeof(per_query),
                    "\"allocs_per_query\": %.2f, \"alloc_bytes_per_query\": %.1f",
                    static_cast<double>(m.allocs) / queries,
                    static_cast<double>(m.alloc_bytes) / queries);
    } else {
      std::snprintf(per_query, sizeof(per_query),
                    "\"allocs_per_query\": null, \"alloc_bytes_per_query\": null");
    }
    char buffer[1024];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"sim_events\": "
                  "%llu, \"events_per_sec\": %s, %s\"peak_rss_delta_kb\": %lld, "
                  "\"event_heap_max\": %llu, \"client_queries\": %llu, "
                  "\"allocs\": %llu, \"alloc_bytes\": %llu, %s, "
                  "\"exit_code\": %d}%s\n",
                  bench.name.c_str(), m.wall_ms,
                  static_cast<unsigned long long>(m.sim_events), rate, floor,
                  static_cast<long long>(m.peak_rss_delta_kb),
                  static_cast<unsigned long long>(m.event_heap_max),
                  static_cast<unsigned long long>(m.client_queries),
                  static_cast<unsigned long long>(m.allocs),
                  static_cast<unsigned long long>(m.alloc_bytes), per_query,
                  m.exit_code, i + 1 < report.benches.size() ? "," : "");
    out += buffer;
  }
  out += "  ]\n}\n";
  return out;
}

namespace {

// An integer field of a bench row; 0 when absent or outside T.
template <class T>
T IntegerField(const json::Value& bench, const char* key) {
  const double n = bench.Number(key);
  return n >= static_cast<double>(std::numeric_limits<T>::min()) &&
                 n < std::ldexp(1.0, std::numeric_limits<T>::digits)
             ? static_cast<T>(n)
             : T{};
}

}  // namespace

bool ParseReportJson(const std::string& text, SuiteReport* out) {
  json::Value root;
  if (!json::Parse(text, &root) || root.String("suite") != "dcc_bench") {
    return false;
  }
  const json::Value* quick = root.Find("quick");
  out->quick = quick != nullptr && quick->AsBool();
  out->toolchain = root.String("toolchain");
  out->benches.clear();
  const json::Value* benches = root.Find("benches");
  if (benches == nullptr) {
    return true;
  }
  if (!benches->is_array()) {
    return false;
  }
  for (const json::Value& row : benches->AsArray()) {
    BenchReport bench;
    bench.name = row.String("name");
    BenchMetrics& m = bench.metrics;
    m.wall_ms = row.Number("wall_ms");
    m.sim_events = IntegerField<uint64_t>(row, "sim_events");
    // null (no simulated events) reads as 0, the sentinel CompareReports
    // expects.
    m.events_per_sec = row.Number("events_per_sec");
    m.min_events_per_sec = row.Number("min_eps");
    m.peak_rss_delta_kb = IntegerField<int64_t>(row, "peak_rss_delta_kb");
    m.event_heap_max = IntegerField<uint64_t>(row, "event_heap_max");
    m.client_queries = IntegerField<uint64_t>(row, "client_queries");
    m.allocs = IntegerField<uint64_t>(row, "allocs");
    m.alloc_bytes = IntegerField<uint64_t>(row, "alloc_bytes");
    m.exit_code = IntegerField<int>(row, "exit_code");
    out->benches.push_back(std::move(bench));
  }
  return true;
}

std::vector<std::string> CompareReports(const SuiteReport& current,
                                        const SuiteReport& baseline,
                                        const Tolerances& tolerances,
                                        std::vector<std::string>* notes) {
  std::vector<std::string> violations;
  char buffer[256];
  auto note = [notes](const std::string& line) {
    if (notes != nullptr) {
      notes->push_back(line);
    }
  };
  if (current.quick != baseline.quick) {
    std::snprintf(buffer, sizeof(buffer),
                  "mode mismatch: current is %s, baseline is %s",
                  current.quick ? "quick" : "full",
                  baseline.quick ? "quick" : "full");
    violations.emplace_back(buffer);
    return violations;
  }
  // Allocation counts depend on the standard library, so only reports from
  // one toolchain compare.
  bool allocations_comparable = tolerances.allocations;
  if (!tolerances.allocations) {
    note("allocation check skipped: turned off for this run");
  } else if (current.toolchain != baseline.toolchain) {
    allocations_comparable = false;
    note("allocation check skipped: baseline toolchain '" + baseline.toolchain +
         "' differs from this build's '" + current.toolchain + "'");
  }
  auto find = [](const SuiteReport& report, const std::string& name) -> const BenchReport* {
    for (const BenchReport& bench : report.benches) {
      if (bench.name == name) {
        return &bench;
      }
    }
    return nullptr;
  };
  for (const BenchReport& base : baseline.benches) {
    const BenchReport* cur = find(current, base.name);
    if (cur == nullptr) {
      violations.push_back(base.name + ": missing from current run");
      continue;
    }
    const BenchMetrics& b = base.metrics;
    const BenchMetrics& c = cur->metrics;
    if (c.exit_code != 0) {
      std::snprintf(buffer, sizeof(buffer), "%s: exit code %d",
                    base.name.c_str(), c.exit_code);
      violations.emplace_back(buffer);
      continue;
    }
    if (b.wall_ms > 0 && c.wall_ms > b.wall_ms * (1.0 + tolerances.wall_slack) &&
        c.wall_ms - b.wall_ms > tolerances.wall_floor_ms) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s: wall_ms %.1f exceeds baseline %.1f by more than %.0f%%",
                    base.name.c_str(), c.wall_ms, b.wall_ms,
                    tolerances.wall_slack * 100);
      violations.emplace_back(buffer);
    }
    if (b.sim_events == 0) {
      note(base.name + ": sim_events is 0 in the baseline (no event-loop "
                       "work); drift check skipped");
    } else if (c.sim_events != b.sim_events) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s: sim_events %llu differs from baseline %llu by %+lld "
                    "(behavior change, not machine noise)",
                    base.name.c_str(),
                    static_cast<unsigned long long>(c.sim_events),
                    static_cast<unsigned long long>(b.sim_events),
                    static_cast<long long>(c.sim_events - b.sim_events));
      violations.emplace_back(buffer);
    }
    if (b.min_events_per_sec > 0 && tolerances.min_eps_scale > 0) {
      const double floor = b.min_events_per_sec * tolerances.min_eps_scale;
      if (c.sim_events == 0 || c.events_per_sec <= 0) {
        note(base.name + ": baseline has an events/sec floor but the current "
                         "run has no event rate; throughput check skipped");
      } else if (c.events_per_sec < floor) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s: events_per_sec %.0f below floor %.0f "
                      "(min_eps %.0f x scale %.2f)",
                      base.name.c_str(), c.events_per_sec, floor,
                      b.min_events_per_sec, tolerances.min_eps_scale);
        violations.emplace_back(buffer);
      }
    }
    // The pending set's high-water mark is as deterministic as sim_events:
    // any rise means the scheduler holds more work, not machine noise.
    if (b.event_heap_max == 0) {
      note(base.name + ": no event_heap_max in the baseline; heap check "
                       "skipped");
    } else if (c.event_heap_max > b.event_heap_max) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s: event_heap_max %llu exceeds baseline %llu",
                    base.name.c_str(),
                    static_cast<unsigned long long>(c.event_heap_max),
                    static_cast<unsigned long long>(b.event_heap_max));
      violations.emplace_back(buffer);
    }
    if (allocations_comparable) {
      if (b.allocs == 0) {
        note(base.name + ": no allocation count in the baseline; allocation "
                         "check skipped");
      } else if (c.allocs > b.allocs || c.alloc_bytes > b.alloc_bytes) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s: %llu allocations / %llu bytes exceed baseline "
                      "%llu / %llu",
                      base.name.c_str(),
                      static_cast<unsigned long long>(c.allocs),
                      static_cast<unsigned long long>(c.alloc_bytes),
                      static_cast<unsigned long long>(b.allocs),
                      static_cast<unsigned long long>(b.alloc_bytes));
        violations.emplace_back(buffer);
      }
    }
    if (b.peak_rss_delta_kb <= 0) {
      note(base.name + ": no peak RSS delta in the baseline; RSS check "
                       "skipped");
    } else if (static_cast<double>(c.peak_rss_delta_kb) >
                   static_cast<double>(b.peak_rss_delta_kb) *
                       (1.0 + tolerances.rss_slack) &&
               static_cast<double>(c.peak_rss_delta_kb - b.peak_rss_delta_kb) >
                   tolerances.rss_floor_kb) {
      std::snprintf(
          buffer, sizeof(buffer),
          "%s: peak_rss_delta_kb %lld exceeds baseline %lld by more than %.0f%%",
          base.name.c_str(), static_cast<long long>(c.peak_rss_delta_kb),
          static_cast<long long>(b.peak_rss_delta_kb),
          tolerances.rss_slack * 100);
      violations.emplace_back(buffer);
    }
  }
  for (const BenchReport& cur : current.benches) {
    if (find(baseline, cur.name) == nullptr) {
      violations.push_back(cur.name +
                           ": not in baseline (refresh with --write-baseline)");
    }
  }
  return violations;
}

}  // namespace bench
}  // namespace dcc
