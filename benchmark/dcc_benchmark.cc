// dcc_benchmark: the repository benchmark (see benchmark/README.md).
//
// Runs the frozen scenario workloads in benchmark/workloads/ through the
// public scenario API and reports what a user of the simulator sees: host
// speed, set-up time, memory and the simulated outcome. A separate profiled
// run of the same spec and seed breaks the host time down per layer.
//
// Every repetition ("rep") is a fresh single-threaded process, so peak RSS
// is per process (SlabPool free lists never shrink) and every rep pays the
// cold start a `dcc_sim run` user pays. The other subcommands spawn reps and
// aggregate them:
//
//   dcc_benchmark run --workload W --seed N --seconds S --trace 0|1
//       Untraced reps of one workload for about S seconds, then one traced
//       rep. Prints one JSON line: the end-to-end metrics (--trace 0) or
//       the per-layer metrics (--trace 1) named in BENCHMARK.json.
//   dcc_benchmark set --out FILE [--reps N] [--seed N] [--smoke]
//                     [--commit SHA] [--dirty 0|1]
//       N untraced reps of every workload, interleaved rep-major, then one
//       traced rep each. Writes results.json and prints the tables.
//   dcc_benchmark compare A.json B.json
//       Verdict per workload and end-to-end metric, by BENCHMARK.json's
//       bounds; flags any change of simulated behaviour.
//   dcc_benchmark list | check-specs
//
// Paths are relative to the repository root, the working directory.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"
#include "src/common/stats.h"
#include "src/scenario/engine.h"
#include "src/scenario/outcome_json.h"
#include "src/scenario/spec.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"
#include "src/zone/experiment_zones.h"

extern char** environ;

namespace {

using dcc::json::Value;
namespace scenario = dcc::scenario;
namespace telemetry = dcc::telemetry;
namespace prof = dcc::prof;

constexpr char kWorkloadDir[] = "benchmark/workloads/";
constexpr char kBenchmarkJson[] = "BENCHMARK.json";

// setup_s is the median of this many warm probes per rep, taken after one
// discarded probe.
constexpr int kSetupProbes = 5;
// A `run` takes at least this many untraced reps, whatever --seconds says,
// so its median has a middle.
constexpr int kMinReps = 3;
// `set --smoke` cuts every horizon (and the schedules inside it) to this
// share of the frozen one.
constexpr double kSmokeHorizonScale = 0.1;
// Bucket growth of the registry's default histogram, which stub_latency_us
// uses (MetricsRegistry::GetHistogram).
constexpr double kLatencyBucketGrowth = 1.05;
// Every untraced rep ends with this many rounds of CalibrationWork. The
// fastest round of a run measures how fast the host is during that run.
constexpr int kCalibrationRounds = 3;
// About the fastest CalibrationWork round seen on the reference host, the
// 4-vCPU Intel Xeon VM of README.md's results. Host times are scaled to it.
constexpr double kReferenceCalibrationS = 0.032;

struct Workload {
  const char* name;
  const char* spec;  // File under kWorkloadDir.
  // Metrics registry, span tracer, audit log and sampler attached, and their
  // Prometheus / trace-JSONL / audit-JSONL exports rendered in the timed
  // region: the cost of observing a run.
  bool observed;
};

constexpr Workload kWorkloads[] = {
    {"wc_flood_dcc", "wc_flood_dcc.json", false},
    {"ff_amp_vanilla", "ff_amp_vanilla.json", false},
    {"wc_flood_dcc_observed", "wc_flood_dcc.json", true},
    {"fleet_failover_hits", "fleet_failover_hits.json", false},
};

// Profiler site prefix -> layer. Event-loop categories are sites named
// after the category ("resolver.timeout"), so the module prefix decides.
// No workload runs a forwarder; anything unlisted counts as "other".
constexpr std::pair<std::string_view, const char*> kSiteLayers[] = {
    {"sim", "sim.loop"},
    {"net", "sim.net"},
    {"dns", "dns"},
    {"resolver", "server.resolver"},
    {"auth", "server.auth"},
    {"stub", "server.stub"},
    {"frontend", "server.frontend"},
    {"dcc", "dcc"},
    {"mopi", "dcc"},
    {"policer", "dcc"},
    {"fault", "fault"},
    {"scenario", "scenario"},
    {"telemetry", "telemetry"},
};
constexpr char kOtherLayer[] = "other";

// Rows of the per-layer table, in print order.
constexpr const char* kTableLayers[] = {
    "sim.loop",        "sim.net", "dns",       "server.resolver", "server.auth", "server.stub",
    "server.frontend", "dcc",     "telemetry", "fault",           "scenario",    kOtherLayer,
};

// --- small utilities ---------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

bool LoadJson(const std::string& path, Value* out, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  if (!dcc::json::Parse(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

// A field of /proc/self/status, in kB (0 when absent).
double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::atof(line.c_str() + key_len + 1);
    }
  }
  return 0;
}

std::string Fnv1aHex(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Python's statistics.quantiles(values, n=4) (exclusive method); a single
// sample is its own quartiles.
std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t count = values.size();
  if (count < 2) {
    const double v = count == 1 ? values[0] : 0;
    return {v, v, v};
  }
  std::array<double, 3> out{};
  const long n = static_cast<long>(count);
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * (n + 1) - j * 4);
    out[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return out;
}

// Value of the last `--name` in `args` (so a caller's flag overrides one
// run.sh put first), or nullopt.
std::optional<std::string> Flag(const std::vector<std::string>& args,
                                const std::string& name) {
  for (size_t i = args.size(); i >= 2; --i) {
    if (args[i - 2] == name) {
      return args[i - 1];
    }
  }
  return std::nullopt;
}

bool HasFlag(const std::vector<std::string>& args, const std::string& name) {
  return std::find(args.begin(), args.end(), name) != args.end();
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

Value Num(double v) { return Value::OfNumber(v); }

// Fixed work, none of it the program's, that stresses the host the way the
// simulator does: dependent loads through a working set larger than L2,
// hash-table inserts and erases on small heap nodes, and a sort. Returns a
// checksum, so the work cannot be optimized away and every round can be
// checked to have done the same work.
uint64_t CalibrationWork() {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // One cycle through 2 MB (Sattolo's shuffle).
  std::vector<uint32_t> ring(1 << 19);
  std::iota(ring.begin(), ring.end(), 0);
  for (size_t i = ring.size() - 1; i > 0; --i) {
    std::swap(ring[i], ring[next() % i]);
  }
  uint64_t sum = 0;
  uint32_t at = 0;
  for (int i = 0; i < 700000; ++i) {
    at = ring[at];
    sum += at;
  }
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint64_t i = 0; i < 130000; ++i) {
    table[next() & 0x3FFFF] += i;
    if (i % 4 == 0) {
      table.erase(next() & 0x3FFFF);
    }
  }
  sum += table.size();
  std::vector<uint64_t> keys(1 << 17);
  for (uint64_t& key : keys) {
    key = next();
  }
  std::sort(keys.begin(), keys.end());
  return sum + keys[keys.size() / 2];
}

// Wall seconds of the fastest of kCalibrationRounds rounds, or nullopt when
// two rounds disagree on the checksum.
std::optional<double> FastestCalibration() {
  double fastest = 0;
  uint64_t first = 0;
  for (int i = 0; i < kCalibrationRounds; ++i) {
    const double start = NowSeconds();
    const uint64_t sum = CalibrationWork();
    const double took = NowSeconds() - start;
    if (i == 0) {
      first = sum;
      fastest = took;
    } else if (sum != first) {
      return std::nullopt;
    }
    fastest = std::min(fastest, took);
  }
  return fastest;
}

// --- one rep (runs in its own process) --------------------------------------

// Loads the frozen spec with the run seed applied. `scale` < 1 shortens the
// horizon and clips schedules to it (smoke runs): every client still stops
// at or before the horizon, so every query still ends before the run does.
bool LoadWorkloadSpec(const Workload& workload, uint64_t seed, double scale,
                      scenario::ScenarioSpec* spec, std::string* error) {
  if (!scenario::LoadScenarioSpecFile(std::string(kWorkloadDir) + workload.spec,
                                      spec, error)) {
    return false;
  }
  spec->seed = seed;
  if (scale < 1) {
    spec->horizon = static_cast<dcc::Duration>(
        static_cast<double>(spec->horizon) * scale);
    for (scenario::ClientSpec& client : spec->clients) {
      client.start = std::min(client.start, spec->horizon);
      client.stop = client.stop < 0 ? spec->horizon
                                    : std::min(client.stop, spec->horizon);
    }
  }
  return true;
}

// Wall time of building every zone the spec declares, once each. The address
// only names the zone's own server, so any node's will do.
double ZoneBuildMs(const scenario::ScenarioSpec& spec) {
  std::map<std::string, dcc::Name> apexes;
  for (const scenario::ZoneSpec& zone : spec.zones) {
    apexes.emplace(zone.id, *dcc::Name::Parse(zone.apex));
  }
  const double start = NowSeconds();
  for (const scenario::ZoneSpec& zone : spec.zones) {
    const dcc::Name& apex = apexes.at(zone.id);
    if (zone.kind == scenario::ZoneKind::kTarget) {
      dcc::Zone built = dcc::MakeTargetZone(apex, scenario::SpecNodeAddress(spec, 0),
                                            zone.target);
    } else {
      dcc::Zone built =
          dcc::MakeAttackerZone(apex, apexes.at(zone.target_zone), zone.attacker);
    }
  }
  return (NowSeconds() - start) * 1e3;
}

// Histogram::Quantile returns the upper bound of the bucket, which moves in
// 5% steps and reads the same on most seeds; interpolate inside the bucket.
double InterpolatedQuantile(const dcc::Histogram& histogram, double q) {
  double below = 0;
  for (const auto& [upper, cumulative] : histogram.Cdf()) {
    if (cumulative >= q) {
      const double lower = upper / kLatencyBucketGrowth;
      const double value =
          lower + (upper - lower) * (q - below) / (cumulative - below);
      return std::clamp(value, histogram.min(), histogram.max());
    }
    below = cumulative;
  }
  return histogram.max();
}

// Merged stub_latency_us of the benign clients (answered queries only).
dcc::Histogram BenignLatency(const scenario::ScenarioSpec& validated,
                             const telemetry::MetricsSnapshot& metrics) {
  std::vector<std::string> benign;
  for (size_t i = 0; i < validated.clients.size(); ++i) {
    if (!validated.clients[i].is_attacker) {
      benign.push_back(dcc::FormatAddress(scenario::SpecClientAddress(validated, i)));
    }
  }
  dcc::Histogram merged(1.0, kLatencyBucketGrowth);
  for (const telemetry::MetricSample& sample : metrics.samples) {
    if (sample.name != "stub_latency_us") {
      continue;
    }
    for (const auto& [key, value] : sample.labels) {
      if (key == "client" &&
          std::find(benign.begin(), benign.end(), value) != benign.end()) {
        merged.Merge(sample.histogram);
      }
    }
  }
  return merged;
}

double SumLabeled(const telemetry::MetricsSnapshot& metrics,
                  std::string_view name, std::string_view key,
                  std::string_view value) {
  double sum = 0;
  for (const telemetry::MetricSample& sample : metrics.samples) {
    if (sample.name != name) {
      continue;
    }
    for (const auto& [k, v] : sample.labels) {
      if (k == key && v == value) {
        sum += sample.value;
      }
    }
  }
  return sum;
}

const char* LayerOf(std::string_view site) {
  const std::string_view prefix = site.substr(0, site.find('.'));
  for (const auto& [module, layer] : kSiteLayers) {
    if (prefix == module) {
      return layer;
    }
  }
  return kOtherLayer;
}

struct TracedInputs {
  const prof::ProfileReport& report;
  const telemetry::MetricsSnapshot& metrics;
  const scenario::ScenarioOutcome& outcome;
  double sent = 0;  // Client queries issued.
  double validate_ms = 0;
  double zone_build_ms = 0;
  double export_ms = 0;
  uint64_t trace_spans = 0;
};

// Per-layer metrics of a traced rep. Times are profiler self time; counts
// come from the outcome where it has them, else from the metrics registry.
Value LayerMetrics(const TracedInputs& in) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto per_query = [&](double v) { return ratio(v, in.sent); };

  std::map<std::string, double> layer_ns;
  for (const char* layer : kTableLayers) {
    layer_ns[layer] = 0;
  }
  std::map<std::string, const prof::SiteReport*> sites;
  for (const prof::SiteReport& site : in.report.sites) {
    layer_ns[LayerOf(site.name)] += site.self_ns;
    sites[site.name] = &site;
  }
  auto site = [&](const char* name) {
    static const prof::SiteReport kNone;
    auto it = sites.find(name);
    return it != sites.end() ? *it->second : kNone;
  };
  auto event_count = [&](std::string_view category) {
    for (const prof::EventCategoryReport& row : in.report.event_categories) {
      if (row.category == category) {
        return static_cast<double>(row.count);
      }
    }
    return 0.0;
  };

  Value out = Value::MakeObject();
  auto set = [&out](const std::string& name, double v) { out.Set(name, Num(v)); };
  for (const auto& [layer, ns] : layer_ns) {
    set(layer + ".self_ns_per_query", per_query(ns));
  }

  const prof::CopyCounters& c = in.report.copies;
  const double events = in.outcome.events_executed;
  const double hops = c.payload_hops;
  set("sim.events", events);
  set("sim.hops_per_query", per_query(hops));
  set("sim.wheel_cascades_per_event", ratio(c.wheel_cascades, events));
  set("sim.queue_depth_max", in.report.queue_depth_max);

  const prof::SiteReport encode = site("dns.encode");
  const prof::SiteReport decode = site("dns.decode");
  set("dns.encode_ns", ratio(encode.self_ns, encode.calls));
  set("dns.decode_ns", ratio(decode.self_ns, decode.calls));
  set("dns.encodes_per_hop", ratio(c.encode_calls, hops));
  set("dns.decodes_per_hop", ratio(c.decode_calls, hops));
  set("dns.msg_copies_per_hop", ratio(c.msg_copies, hops));

  const telemetry::MetricsSnapshot& m = in.metrics;
  const double cache_hits = SumLabeled(m, "resolver_cache_lookups_total", "outcome", "hit");
  const double cache_misses = SumLabeled(m, "resolver_cache_lookups_total", "outcome", "miss");
  set("server.resolver.subqueries_per_query", per_query(m.Sum("resolver_upstream_queries_total")));
  set("server.resolver.retries_per_query", per_query(m.Sum("resolver_upstream_retries_total")));
  set("server.resolver.cache_hit_ratio", ratio(cache_hits, cache_hits + cache_misses));
  set("server.resolver.timer_events_per_query",
      per_query(event_count("resolver.timeout") + event_count("resolver.deadline")));
  set("server.auth.queries_per_query", per_query(m.Sum("auth_queries_total")));
  double resteers = 0;
  double resteer_denied = 0;
  for (const scenario::FrontendOutcome& frontend : in.outcome.frontends) {
    resteers += frontend.resteers;
    resteer_denied += frontend.resteer_denied;
  }
  set("server.frontend.resteers", resteers);
  set("server.frontend.resteer_denied", resteer_denied);

  const prof::SiteReport enqueue = site("mopi.enqueue");
  const prof::SiteReport dequeue = site("mopi.dequeue");
  const double enqueued = m.Sum("dcc_scheduler_enqueue_total");
  set("dcc.mopi.ns_per_op",
      ratio(enqueue.self_ns + dequeue.self_ns, enqueue.calls + dequeue.calls));
  set("dcc.enqueue_reject_ratio",
      ratio(enqueued - SumLabeled(m, "dcc_scheduler_enqueue_total", "outcome", "SUCCESS"),
            enqueued));
  set("dcc.servfails", in.outcome.dcc_servfails);
  set("dcc.policed_drops", in.outcome.dcc_policed_drops);
  set("dcc.convictions", in.outcome.dcc_convictions);
  set("dcc.peak_memory_bytes", in.outcome.dcc_peak_memory_bytes);

  set("fault.activations", in.outcome.fault_activations);

  set("scenario.validate_ms", in.validate_ms);
  set("scenario.build_ms", site("scenario.build").total_ns / 1e6);
  set("scenario.collect_ms", site("scenario.collect").total_ns / 1e6);
  set("zone.build_ms", in.zone_build_ms);

  set("common.pool_hit_rate", ratio(c.pool_hits, c.pool_hits + c.pool_misses));

  set("telemetry.export_ms", in.export_ms);
  set("telemetry.audit_records", in.outcome.audit_records);
  set("telemetry.trace_spans", in.trace_spans);

  set("trace.attributed_frac", ratio(in.report.attributed_ns, in.report.enabled_wall_ns));
  return out;
}

// One rep: loads and validates the spec, runs it once in the timed region,
// then (untraced) times the set-up probes. Prints one JSON line.
int CmdRep(const std::vector<std::string>& args) {
  const double rss_before_kb = StatusKb("VmRSS");
  const Workload* workload = FindWorkload(Flag(args, "--workload").value_or(""));
  if (workload == nullptr) {
    std::fprintf(stderr, "rep: unknown --workload\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(Flag(args, "--seed").value_or("1").c_str(), nullptr, 10);
  const double scale = std::atof(Flag(args, "--scale").value_or("1").c_str());
  const bool traced = HasFlag(args, "--traced");

  Value rec = Value::MakeObject();
  auto fail = [&rec](const std::string& error) {
    rec.Set("ok", Value::OfBool(false));
    rec.Set("error", Value::OfString(error));
    std::printf("%s\n", dcc::json::Write(rec).c_str());
    return 1;
  };

  std::string error;
  scenario::ScenarioSpec spec;
  if (!LoadWorkloadSpec(*workload, seed, scale, &spec, &error)) {
    return fail(error);
  }
  scenario::ScenarioSpec validated = spec;
  const double validate_start = NowSeconds();
  if (!scenario::ValidateScenarioSpec(&validated, &error)) {
    return fail(error);
  }
  const double validate_ms = (NowSeconds() - validate_start) * 1e3;

  // --- timed region ----------------------------------------------------------
  std::unique_ptr<telemetry::TelemetrySink> sink;
  std::unique_ptr<telemetry::DecisionAuditLog> audit;
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  scenario::EngineHooks hooks;
  scenario::ScenarioOutcome outcome;
  double export_ms = 0;
  const double start = NowSeconds();
  if (workload->observed || traced) {
    sink = std::make_unique<telemetry::TelemetrySink>();
    hooks.telemetry = sink.get();
  }
  if (workload->observed) {
    audit = std::make_unique<telemetry::DecisionAuditLog>();
    sampler = std::make_unique<telemetry::TimeSeriesSampler>();
    hooks.audit = audit.get();
    hooks.sampler = sampler.get();
  }
  if (traced) {
    prof::Reset();
    prof::Enable();
  }
  const bool ran = scenario::RunScenarioSpec(spec, hooks, &outcome, &error);
  if (traced) {
    prof::Disable();
  }
  if (ran && workload->observed) {
    const double export_start = NowSeconds();
    // Rendered one at a time and dropped, as a caller writing each to its
    // file would.
    sink->metrics.ExportPrometheus();
    sink->trace.ExportJsonLines();
    audit->ExportJsonLines();
    export_ms = (NowSeconds() - export_start) * 1e3;
  }
  const double wall_s = NowSeconds() - start;
  // ---------------------------------------------------------------------------
  if (!ran) {
    return fail(error);
  }
  const double peak_rss_mb = (StatusKb("VmHWM") - rss_before_kb) / 1024;

  double sent = 0;
  double benign_sent = 0;
  double benign_succeeded = 0;
  bool books_balanced = true;
  for (const scenario::ClientOutcome& client : outcome.clients) {
    sent += static_cast<double>(client.sent);
    books_balanced = books_balanced && client.sent == client.succeeded + client.failed;
    if (!client.is_attacker) {
      benign_sent += static_cast<double>(client.sent);
      benign_succeeded += static_cast<double>(client.succeeded);
    }
  }
  double ans_peak_qps = 0;
  for (const scenario::AnsOutcome& ans : outcome.ans) {
    ans_peak_qps = std::max(ans_peak_qps, ans.peak_qps);
  }
  // The core digest leaves out what observing adds to an outcome: the audit
  // rollup and the sampler's own events.
  scenario::ScenarioOutcome core = outcome;
  core.audit_enabled = false;
  core.audit_records = 0;
  core.audit_dropped = 0;
  core.audit_causes.clear();
  core.events_executed = 0;

  rec.Set("ok", Value::OfBool(true));
  rec.Set("wall_s", Num(wall_s));
  rec.Set("sent", Num(sent));
  rec.Set("books_balanced", Value::OfBool(books_balanced));
  rec.Set("benign_success", Num(benign_sent > 0 ? benign_succeeded / benign_sent : 0));
  rec.Set("ans_peak_qps", Num(ans_peak_qps));
  rec.Set("peak_rss_mb", Num(peak_rss_mb));
  rec.Set("events", Num(static_cast<double>(outcome.events_executed)));
  rec.Set("digest", Value::OfString(Fnv1aHex(scenario::WriteScenarioOutcome(outcome))));
  rec.Set("core_digest", Value::OfString(Fnv1aHex(scenario::WriteScenarioOutcome(core))));
  rec.Set("horizon_s", Num(dcc::ToSeconds(spec.horizon)));

  if (traced) {
    const telemetry::MetricsSnapshot metrics = sink->metrics.Snapshot();
    const dcc::Histogram latency = BenignLatency(validated, metrics);
    rec.Set("benign_answers", Num(static_cast<double>(latency.count())));
    rec.Set("benign_p50_ms", Num(InterpolatedQuantile(latency, 0.5) / 1e3));
    rec.Set("benign_p999_ms", Num(InterpolatedQuantile(latency, 0.999) / 1e3));
    const prof::ProfileReport report = prof::Snapshot();
    TracedInputs in{report, metrics, outcome};
    in.sent = sent;
    in.validate_ms = validate_ms;
    in.zone_build_ms = ZoneBuildMs(validated);
    in.export_ms = export_ms;
    in.trace_spans = sink->trace.total_recorded();
    rec.Set("layers", LayerMetrics(in));
  } else {
    // Set-up probes: the validated spec with every client silenced and a
    // 1 ms horizon, so only building and tearing down the topology remains.
    scenario::ScenarioSpec probe = validated;
    probe.horizon = dcc::Milliseconds(1);
    for (scenario::ClientSpec& client : probe.clients) {
      client.stop = client.start;
    }
    std::vector<double> probes;
    for (int i = 0; i <= kSetupProbes; ++i) {
      scenario::ScenarioOutcome probe_outcome;
      const double probe_start = NowSeconds();
      if (!scenario::RunScenarioSpec(probe, {}, &probe_outcome, &error)) {
        return fail("setup probe: " + error);
      }
      if (i > 0) {
        probes.push_back(NowSeconds() - probe_start);
      }
    }
    rec.Set("setup_s", Num(Median(probes)));
    const std::optional<double> calibration = FastestCalibration();
    if (!calibration) {
      return fail("calibration rounds disagree on their checksum");
    }
    rec.Set("calibration_s", Num(*calibration));
  }
  std::printf("%s\n", dcc::json::Write(rec).c_str());
  return 0;
}

// --- spawning reps -----------------------------------------------------------

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : "dcc_benchmark";
}

// Runs `argv` to completion with its stdout captured (stderr passes through)
// and returns its exit code, or -1 when it did not start or exit normally.
int RunCaptured(const std::vector<std::string>& argv, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> cargv;
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct Rep {
  bool ok = false;
  std::string error;
  Value rec;  // The rep's JSON line.
  double Get(const char* key) const { return rec.Number(key); }
};

Rep SpawnRep(const Workload& workload, uint64_t seed, bool traced, double scale) {
  std::vector<std::string> argv = {SelfPath(), "rep", "--workload", workload.name,
                                   "--seed", std::to_string(seed)};
  if (traced) {
    argv.push_back("--traced");
  }
  if (scale < 1) {
    argv.push_back("--scale");
    argv.push_back(std::to_string(scale));
  }
  std::string out;
  const int code = RunCaptured(argv, &out);
  Rep rep;
  while (!out.empty() && out.back() == '\n') {
    out.pop_back();
  }
  const size_t newline = out.rfind('\n');
  const std::string line = newline == std::string::npos ? out : out.substr(newline + 1);
  std::string error;
  if (!dcc::json::Parse(line, &rep.rec, &error)) {
    rep.error = "rep exited " + std::to_string(code) + " without a result";
    return rep;
  }
  if (code != 0 || !rep.rec.Find("ok") || !rep.rec.Find("ok")->AsBool()) {
    rep.error = "rep exited " + std::to_string(code) + ": " + rep.rec.String("error");
    return rep;
  }
  rep.ok = true;
  return rep;
}

// --- aggregation -------------------------------------------------------------

// The value a run or set reports for an end-to-end metric, from its per-rep
// samples. The reps of one workload and seed do the same simulated work,
// and contention from other tenants of a shared host only ever slows a rep
// down, in bursts that hit anywhere from none to nearly all of a run's
// reps. So throughput takes its fastest rep, the one such bursts slowed
// least; every other metric takes the median. Contention that lasts the
// whole run is what WorkloadRuns::HostSlowdown takes out.
double RunValue(const std::string& metric, const std::vector<double>& samples) {
  if (metric.ends_with("queries_per_s") && !samples.empty()) {
    return *std::max_element(samples.begin(), samples.end());
  }
  return Median(samples);
}

// Every process of one workload in one run or set, plus what failed.
struct WorkloadRuns {
  const Workload* workload = nullptr;
  std::vector<Rep> plain;  // Untraced reps, in run order.
  Rep traced;
  std::vector<std::string> failures;

  int attempted() const { return static_cast<int>(plain.size()) + 1; }

  // The correctness gate behind error_rate: a rep fails when its process
  // fails, a client query did not end exactly once, its outcome differs from
  // rep 0's, or the traced outcome differs from the untraced one.
  void Check() {
    const Rep* first = nullptr;
    auto check = [&](const Rep& rep, const std::string& what, const char* digest_key) {
      if (!rep.ok) {
        failures.push_back(what + ": " + rep.error);
        return;
      }
      if (!rep.rec.Find("books_balanced")->AsBool()) {
        failures.push_back(what + ": a client's sent != succeeded + failed");
        return;
      }
      if (first == nullptr) {
        first = &rep;
      } else if (rep.rec.String(digest_key) != first->rec.String(digest_key)) {
        failures.push_back(what + ": outcome differs from rep 0 (" +
                           rep.rec.String(digest_key) + " vs " +
                           first->rec.String(digest_key) + ")");
      }
    };
    for (size_t i = 0; i < plain.size(); ++i) {
      check(plain[i], "rep " + std::to_string(i), "digest");
    }
    check(traced, "traced rep", "core_digest");
  }

  int failed() const { return static_cast<int>(failures.size()); }

  std::vector<double> PlainValues(const char* key) const {
    std::vector<double> values;
    for (const Rep& rep : plain) {
      if (rep.ok) {
        values.push_back(rep.Get(key));
      }
    }
    return values;
  }

  // How many times slower than the reference host the host ran during these
  // reps: their fastest calibration round over kReferenceCalibrationS.
  double HostSlowdown() const {
    const std::vector<double> rounds = PlainValues("calibration_s");
    return rounds.empty() ? 1 : *std::min_element(rounds.begin(), rounds.end()) /
                                    kReferenceCalibrationS;
  }

  // Samples of every end-to-end metric. Host metrics come from the untraced
  // reps, with their times in reference-host seconds; latency needs the stub
  // histograms, so it comes from the traced rep. The unscaled host metrics
  // and the calibration rounds ride along for results.json.
  std::map<std::string, std::vector<double>> EndToEnd() const {
    std::map<std::string, std::vector<double>> out;
    const double slowdown = HostSlowdown();
    for (const Rep& rep : plain) {
      if (!rep.ok) {
        continue;
      }
      const double queries_per_s = rep.Get("sent") / rep.Get("wall_s");
      out["queries_per_s"].push_back(queries_per_s * slowdown);
      out["setup_s"].push_back(rep.Get("setup_s") / slowdown);
      out["unscaled.queries_per_s"].push_back(queries_per_s);
      out["unscaled.setup_s"].push_back(rep.Get("setup_s"));
      out["calibration_ms"].push_back(rep.Get("calibration_s") * 1e3);
      out["peak_rss_mb"].push_back(rep.Get("peak_rss_mb"));
      out["benign_success"].push_back(rep.Get("benign_success"));
      out["ans_peak_qps"].push_back(rep.Get("ans_peak_qps"));
    }
    if (traced.ok) {
      out["benign_p50_ms"].push_back(traced.Get("benign_p50_ms"));
      out["benign_p999_ms"].push_back(traced.Get("benign_p999_ms"));
    }
    out["error_rate"].push_back(static_cast<double>(failed()) / attempted());
    return out;
  }

  // The traced rep's layer metrics plus those that need the untraced reps.
  Value PerLayer() const {
    Value layers = traced.ok ? *traced.rec.Find("layers") : Value::MakeObject();
    const double plain_wall = Median(PlainValues("wall_s"));
    if (traced.ok && plain_wall > 0) {
      layers.Set("sim.events_per_s", Num(traced.Get("events") / plain_wall));
      layers.Set("trace.overhead_ratio", Num(traced.Get("wall_s") / plain_wall));
    }
    layers.Set("host.calibration_ms", Num(HostSlowdown() * kReferenceCalibrationS * 1e3));
    return layers;
  }
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0;
};

struct BenchmarkDefs {
  std::vector<std::string> workloads;
  std::map<std::string, std::string> why;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

bool LoadBenchmarkDefs(BenchmarkDefs* defs, std::string* error) {
  Value root;
  if (!LoadJson(kBenchmarkJson, &root, error)) {
    return false;
  }
  auto metrics = [&root](const char* key, std::vector<MetricDef>* out) {
    if (const Value* list = root.Find(key); list != nullptr) {
      for (const Value& m : list->AsArray()) {
        out->push_back({m.String("name"), m.String("unit"), m.String("better"),
                        m.Number("bound")});
      }
    }
  };
  metrics("end_to_end", &defs->end_to_end);
  metrics("per_layer", &defs->per_layer);
  if (const Value* list = root.Find("workloads"); list != nullptr) {
    for (const Value& w : list->AsArray()) {
      defs->workloads.push_back(w.String("name"));
      defs->why[w.String("name")] = w.String("why");
    }
  }
  for (const std::string& name : defs->workloads) {
    if (FindWorkload(name) == nullptr) {
      *error = std::string(kBenchmarkJson) + " names unknown workload '" + name + "'";
      return false;
    }
  }
  return true;
}

Value Summary(const std::string& metric, const std::vector<double>& values,
              const std::string& unit) {
  const std::array<double, 3> q = Quartiles(values);
  Value out = Value::MakeObject();
  out.Set("value", Num(RunValue(metric, values)));
  out.Set("median", Num(Median(values)));
  out.Set("q1", Num(q[0]));
  out.Set("q3", Num(q[2]));
  out.Set("n", Num(static_cast<double>(values.size())));
  out.Set("unit", Value::OfString(unit));
  Value list = Value::MakeArray();
  for (double v : values) {
    list.PushBack(Num(v));
  }
  out.Set("values", std::move(list));
  return out;
}

void PrintFailures(const WorkloadRuns& runs) {
  for (const std::string& failure : runs.failures) {
    std::fprintf(stderr, "FAIL %s %s\n", runs.workload->name, failure.c_str());
  }
}

// --- run: the per-workload entry point ---------------------------------------

int CmdRun(const std::vector<std::string>& args) {
  BenchmarkDefs defs;
  std::string error;
  if (!LoadBenchmarkDefs(&defs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const Workload* workload = FindWorkload(Flag(args, "--workload").value_or(""));
  if (workload == nullptr) {
    std::fprintf(stderr, "run: unknown --workload (see `list`)\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(Flag(args, "--seed").value_or("1").c_str(), nullptr, 10);
  const double seconds = std::atof(Flag(args, "--seconds").value_or("10").c_str());
  const bool trace = Flag(args, "--trace").value_or("0") == "1";

  // Untraced reps until the next one would overrun --seconds.
  WorkloadRuns runs;
  runs.workload = workload;
  const double start = NowSeconds();
  double last = 0;
  while (static_cast<int>(runs.plain.size()) < kMinReps ||
         NowSeconds() - start + last <= seconds) {
    const double rep_start = NowSeconds();
    runs.plain.push_back(SpawnRep(*workload, seed, false, 1));
    last = NowSeconds() - rep_start;
    if (runs.plain.back().ok) {
      std::fprintf(stderr, "rep %zu: %.4f s in RunScenarioSpec, calibration %.4f s\n",
                   runs.plain.size(), runs.plain.back().Get("wall_s"),
                   runs.plain.back().Get("calibration_s"));
    }
  }
  runs.traced = SpawnRep(*workload, seed, true, 1);
  runs.Check();
  PrintFailures(runs);

  Value metrics = Value::MakeObject();
  auto emit = [&metrics](const MetricDef& def, double value) {
    Value m = Value::MakeObject();
    m.Set("value", Num(value));
    m.Set("unit", Value::OfString(def.unit));
    metrics.Set(def.name, std::move(m));
  };
  bool complete = true;
  if (trace) {
    const Value layers = runs.PerLayer();
    for (const MetricDef& def : defs.per_layer) {
      const Value* v = layers.Find(def.name);
      complete = complete && v != nullptr;
      if (v != nullptr) {
        emit(def, v->AsNumber());
      }
    }
  } else {
    const auto samples = runs.EndToEnd();
    for (const MetricDef& def : defs.end_to_end) {
      auto it = samples.find(def.name);
      complete = complete && it != samples.end();
      if (it != samples.end()) {
        emit(def, RunValue(def.name, it->second));
      }
    }
  }
  if (!complete) {
    runs.failures.push_back("a metric in BENCHMARK.json was not measured");
    PrintFailures(runs);
  }
  Value result = Value::MakeObject();
  result.Set("correct", Value::OfBool(runs.failures.empty()));
  result.Set("attempted", Num(runs.attempted()));
  result.Set("failed", Num(runs.failed()));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", dcc::json::Write(result).c_str());
  return runs.failures.empty() ? 0 : 1;
}

// --- set: every workload, interleaved ----------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line
                                        : line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

Value LoadAverage() {
  std::ifstream in("/proc/loadavg");
  Value out = Value::MakeArray();
  for (int i = 0; i < 3; ++i) {
    double v = 0;
    in >> v;
    out.PushBack(Num(v));
  }
  return out;
}

Value HostBlock(const std::vector<std::string>& args) {
  Value host = Value::MakeObject();
  host.Set("nproc", Num(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  host.Set("cpu_model", Value::OfString(CpuModel()));
  host.Set("compiler", Value::OfString(
#if defined(__clang__)
                           "clang " __clang_version__
#else
                           "gcc " __VERSION__
#endif
                           ));
  host.Set("build_type", Value::OfString(DCC_BENCH_BUILD_TYPE));
  host.Set("cxx_flags", Value::OfString(DCC_BENCH_CXX_FLAGS));
  host.Set("commit", Value::OfString(Flag(args, "--commit").value_or("unknown")));
  host.Set("dirty", Value::OfBool(Flag(args, "--dirty").value_or("0") == "1"));
  return host;
}

// ns per client query of each layer, one column per workload.
void PrintLayerTable(const std::vector<WorkloadRuns>& all, const Value& workloads) {
  std::printf("\nper-layer self time, ns per client query (traced rep)\n");
  std::printf("%-18s", "layer");
  for (const WorkloadRuns& runs : all) {
    std::printf(" %22s", runs.workload->name);
  }
  std::printf("\n");
  auto row = [&](const std::string& label, const std::string& metric, const char* format) {
    std::printf("%-18s", label.c_str());
    for (const WorkloadRuns& runs : all) {
      const Value* layers = workloads.Find(runs.workload->name)->Find("per_layer");
      std::printf(format, layers->Number(metric));
    }
    std::printf("\n");
  };
  for (const char* layer : kTableLayers) {
    row(layer, std::string(layer) + ".self_ns_per_query", " %22.1f");
  }
  row("attributed_frac", "trace.attributed_frac", " %22.4f");
  row("overhead_ratio", "trace.overhead_ratio", " %22.3f");
}

int CmdSet(const std::vector<std::string>& args) {
  BenchmarkDefs defs;
  std::string error;
  if (!LoadBenchmarkDefs(&defs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::optional<std::string> out_path = Flag(args, "--out");
  if (!out_path) {
    std::fprintf(stderr, "set: --out FILE is required\n");
    return 2;
  }
  const bool smoke = HasFlag(args, "--smoke");
  const int reps = smoke ? 1 : std::max(1, std::atoi(Flag(args, "--reps").value_or("5").c_str()));
  const uint64_t seed = std::strtoull(Flag(args, "--seed").value_or("1").c_str(), nullptr, 10);
  const double scale = smoke ? kSmokeHorizonScale : 1;

  Value host = HostBlock(args);
  host.Set("loadavg_before", LoadAverage());
  std::vector<WorkloadRuns> all;
  for (const Workload& workload : kWorkloads) {
    all.push_back(WorkloadRuns{&workload, {}, {}, {}});
  }
  for (int r = 0; r < reps; ++r) {
    for (WorkloadRuns& runs : all) {
      std::fprintf(stderr, "rep %d/%d %s\n", r + 1, reps, runs.workload->name);
      runs.plain.push_back(SpawnRep(*runs.workload, seed, false, scale));
    }
  }
  for (WorkloadRuns& runs : all) {
    std::fprintf(stderr, "traced %s\n", runs.workload->name);
    runs.traced = SpawnRep(*runs.workload, seed, true, scale);
    runs.Check();
  }
  host.Set("loadavg_after", LoadAverage());

  // Observing must not change the simulation: an observed workload's core
  // outcome equals that of the plain workload running the same spec.
  for (WorkloadRuns& observed : all) {
    for (const WorkloadRuns& plain : all) {
      if (observed.workload->observed && !plain.workload->observed &&
          std::strcmp(observed.workload->spec, plain.workload->spec) == 0 &&
          observed.plain[0].ok && plain.plain[0].ok &&
          observed.plain[0].rec.String("core_digest") !=
              plain.plain[0].rec.String("core_digest")) {
        observed.failures.push_back(std::string("outcome differs from ") +
                                    plain.workload->name);
      }
    }
  }

  Value workloads = Value::MakeObject();
  int failures = 0;
  for (const WorkloadRuns& runs : all) {
    PrintFailures(runs);
    failures += runs.failed();
    Value w = Value::MakeObject();
    const Rep& first = runs.plain.front();
    w.Set("horizon_s", Num(first.Get("horizon_s")));
    w.Set("attempted", Num(runs.attempted()));
    w.Set("failed", Num(runs.failed()));
    Value list = Value::MakeArray();
    for (const std::string& failure : runs.failures) {
      list.PushBack(Value::OfString(failure));
    }
    w.Set("failures", std::move(list));
    w.Set("digest", Value::OfString(first.rec.String("digest")));
    w.Set("core_digest", Value::OfString(first.rec.String("core_digest")));
    Value e2e = Value::MakeObject();
    const auto samples = runs.EndToEnd();
    for (const auto& [name, values] : samples) {
      std::string unit = "ratio";
      for (const MetricDef& def : defs.end_to_end) {
        if (def.name == name) {
          unit = def.unit;
        }
      }
      e2e.Set(name, Summary(name, values, unit));
    }
    w.Set("end_to_end", std::move(e2e));
    w.Set("per_layer", runs.PerLayer());
    workloads.Set(runs.workload->name, std::move(w));
  }

  Value results = Value::MakeObject();
  host.Set("seed", Num(static_cast<double>(seed)));
  host.Set("reps", Num(reps));
  host.Set("smoke", Value::OfBool(smoke));
  results.Set("host", std::move(host));
  results.Set("workloads", workloads);
  std::ofstream out(*out_path);
  out << dcc::json::Write(results, 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
    return 1;
  }

  std::printf("end-to-end values (n = %d reps: queries_per_s is the fastest rep, the rest\n"
              "medians; latency from the traced rep)\n",
              reps);
  std::printf("%-24s", "metric");
  for (const WorkloadRuns& runs : all) {
    std::printf(" %22s", runs.workload->name);
  }
  std::printf("\n");
  for (const MetricDef& def : defs.end_to_end) {
    std::printf("%-24s", (def.name + " [" + def.unit + "]").c_str());
    for (const WorkloadRuns& runs : all) {
      const Value* m = workloads.Find(runs.workload->name)->Find("end_to_end")->Find(def.name);
      std::printf(" %22.6g", m != nullptr ? m->Number("value") : 0.0);
    }
    std::printf("\n");
  }
  PrintLayerTable(all, workloads);
  std::printf("\nwrote %s; %d failure(s)\n", out_path->c_str(), failures);
  return failures == 0 ? 0 : 1;
}

// --- compare -----------------------------------------------------------------

struct Side {
  double value = 0;  // RunValue of the samples.
  double q1 = 0;
  double q3 = 0;
  std::vector<double> values;
};

Side ReadSide(const Value& metric) {
  Side side;
  side.value = metric.Number("value");
  side.q1 = metric.Number("q1");
  side.q3 = metric.Number("q3");
  if (const Value* values = metric.Find("values"); values != nullptr) {
    for (const Value& v : values->AsArray()) {
      side.values.push_back(v.AsNumber());
    }
  }
  return side;
}

// How much worse B's value is than A's, as a share of A's (< 0: better).
double WorseShare(const Side& a, const Side& b, bool higher_is_better) {
  if (a.value == 0) {
    return 0;
  }
  return (higher_is_better ? a.value - b.value : b.value - a.value) / std::abs(a.value);
}

// Verdict of B against A under `bound` (a share of A's value):
//  - unresolved: either side's quartile spread exceeds the bound, unless
//    every run of B reads better than every run of A;
//  - regressed: B's value is worse by more than the bound;
//  - improved: at least ten pairs, B wins nine tenths of them, and the
//    values differ by more than A's quartile spread;
//  - no worse: otherwise.
std::string Verdict(const Side& a, const Side& b, bool higher_is_better, double bound) {
  auto better = [higher_is_better](double x, double y) {
    return higher_is_better ? x > y : x < y;
  };
  auto spread = [](const Side& side) {
    return side.value != 0 ? (side.q3 - side.q1) / std::abs(side.value) : 0;
  };
  bool all_better = !a.values.empty() && !b.values.empty();
  for (double x : b.values) {
    for (double y : a.values) {
      all_better = all_better && better(x, y);
    }
  }
  if (std::max(spread(a), spread(b)) > bound) {
    return all_better ? "no worse" : "unresolved";
  }
  if (WorseShare(a, b, higher_is_better) > bound) {
    return "regressed";
  }
  const size_t pairs = std::min(a.values.size(), b.values.size());
  size_t wins = 0;
  for (size_t i = 0; i < pairs; ++i) {
    wins += better(b.values[i], a.values[i]) ? 1 : 0;
  }
  if (pairs >= 10 && wins * 10 >= pairs * 9 &&
      std::abs(b.value - a.value) > a.q3 - a.q1) {
    return "improved";
  }
  return "no worse";
}

int CmdCompare(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "compare: need two results.json files\n");
    return 2;
  }
  BenchmarkDefs defs;
  Value a;
  Value b;
  std::string error;
  if (!LoadBenchmarkDefs(&defs, &error) || !LoadJson(args[0], &a, &error) ||
      !LoadJson(args[1], &b, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("A = %s (%s)\nB = %s (%s)\n", args[0].c_str(),
              a.Find("host") ? a.Find("host")->String("commit").c_str() : "?",
              args[1].c_str(),
              b.Find("host") ? b.Find("host")->String("commit").c_str() : "?");
  std::printf("%-22s %-16s %12s %24s %12s %24s %8s  %s\n", "workload", "metric",
              "A value", "A q1..q3", "B value", "B q1..q3", "B worse", "verdict");
  int bad = 0;
  const Value* wa = a.Find("workloads");
  const Value* wb = b.Find("workloads");
  for (const std::string& name : defs.workloads) {
    const Value* ra = wa ? wa->Find(name) : nullptr;
    const Value* rb = wb ? wb->Find(name) : nullptr;
    if (ra == nullptr || rb == nullptr) {
      std::printf("%-22s missing from %s\n", name.c_str(), ra == nullptr ? "A" : "B");
      ++bad;
      continue;
    }
    std::vector<MetricDef> metrics = defs.end_to_end;
    // error_rate is 0 on a healthy run, so it has no relative bound: any
    // increase is a regression.
    metrics.push_back({"error_rate", "ratio", "lower", 0});
    for (const MetricDef& def : metrics) {
      const Value* ma = ra->Find("end_to_end")->Find(def.name);
      const Value* mb = rb->Find("end_to_end")->Find(def.name);
      if (ma == nullptr || mb == nullptr) {
        std::printf("%-22s %-16s missing\n", name.c_str(), def.name.c_str());
        ++bad;
        continue;
      }
      const Side sa = ReadSide(*ma);
      const Side sb = ReadSide(*mb);
      const std::string verdict =
          def.name == "error_rate"
              ? (sb.value > sa.value ? "regressed" : "no worse")
              : Verdict(sa, sb, def.better == "higher", def.bound);
      bad += verdict == "regressed" || verdict == "unresolved" ? 1 : 0;
      char qa[48];
      char qb[48];
      std::snprintf(qa, sizeof qa, "%.6g..%.6g", sa.q1, sa.q3);
      std::snprintf(qb, sizeof qb, "%.6g..%.6g", sb.q1, sb.q3);
      std::printf("%-22s %-16s %12.6g %24s %12.6g %24s %+7.1f%%  %s\n", name.c_str(),
                  def.name.c_str(), sa.value, qa, sb.value, qb,
                  100 * WorseShare(sa, sb, def.better == "higher"), verdict.c_str());
    }
    const double events_a = ra->Find("per_layer")->Number("sim.events");
    const double events_b = rb->Find("per_layer")->Number("sim.events");
    if (ra->String("digest") != rb->String("digest") || events_a != events_b) {
      std::printf("%-22s behaviour change: digest %s -> %s, sim.events %.0f -> %.0f\n",
                  name.c_str(), ra->String("digest").c_str(), rb->String("digest").c_str(),
                  events_a, events_b);
      ++bad;
    }
  }
  std::printf("%d finding(s)\n", bad);
  return bad == 0 ? 0 : 1;
}

// --- list / check-specs --------------------------------------------------------

int CmdList() {
  BenchmarkDefs defs;
  std::string error;
  if (!LoadBenchmarkDefs(&defs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("workloads:\n");
  for (const std::string& name : defs.workloads) {
    const Workload& workload = *FindWorkload(name);
    scenario::ScenarioSpec spec;
    const bool loaded = LoadWorkloadSpec(workload, 1, 1, &spec, &error);
    std::printf("  %-22s %s, horizon %gs%s\n      %s\n", name.c_str(), workload.spec,
                loaded ? dcc::ToSeconds(spec.horizon) : 0.0,
                workload.observed ? ", observed" : "", defs.why[name].c_str());
  }
  std::printf("end-to-end metrics (--trace 0):\n");
  for (const MetricDef& def : defs.end_to_end) {
    std::printf("  %-22s %-8s %-6s bound %g\n", def.name.c_str(), def.unit.c_str(),
                def.better.c_str(), def.bound);
  }
  std::printf("per-layer metrics (--trace 1):\n");
  for (const MetricDef& def : defs.per_layer) {
    std::printf("  %-40s %-8s %s\n", def.name.c_str(), def.unit.c_str(), def.better.c_str());
  }
  return 0;
}

// Every frozen spec must be stored materialized: parsing and re-writing it
// reproduces the file byte for byte, and it validates.
int CmdCheckSpecs() {
  int bad = 0;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kWorkloadDir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    std::string text;
    std::string error;
    scenario::ScenarioSpec spec;
    if (!ReadFile(path, &text) || !scenario::ParseScenarioSpec(text, &spec, &error)) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), error.c_str());
      ++bad;
      continue;
    }
    if (scenario::WriteScenarioSpec(spec) != text) {
      std::fprintf(stderr, "FAIL %s: not stored in WriteScenarioSpec form\n", path.c_str());
      ++bad;
      continue;
    }
    if (!scenario::ValidateScenarioSpec(&spec, &error)) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), error.c_str());
      ++bad;
    }
  }
  for (const Workload& workload : kWorkloads) {
    if (!std::filesystem::exists(std::string(kWorkloadDir) + workload.spec)) {
      std::fprintf(stderr, "FAIL %s: missing %s\n", workload.name, workload.spec);
      ++bad;
    }
  }
  std::printf("check-specs: %d file(s), %d failure(s)\n", files, bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dcc_benchmark run|set|compare|list|check-specs ... "
                 "(see benchmark/README.md)\n");
    return 2;
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "rep") return CmdRep(args);
  if (command == "run") return CmdRun(args);
  if (command == "set") return CmdSet(args);
  if (command == "compare") return CmdCompare(args);
  if (command == "list") return CmdList();
  if (command == "check-specs") return CmdCheckSpecs();
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
