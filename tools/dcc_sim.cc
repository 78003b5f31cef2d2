// dcc_sim — command-line front-end for declarative scenario specs.
//
// Run `dcc_sim --help` for the full flag reference (PrintUsage below is the
// authoritative list); short form:
//
//   dcc_sim run      --spec FILE [--horizon SECONDS] [--seed N]
//                    [--fault-plan FILE] [--dump-effective] [output flags]
//   dcc_sim probe    [--irl N] [--nx-irl N] [--erl N]
//
// Examples:
//   dcc_sim run --spec examples/scenarios/fig8_ff.json
//   dcc_sim run --spec examples/scenarios/fig8_nx.json --metrics-out m.prom
//   dcc_sim run --spec examples/scenarios/chaos.json --seed 3
//       --fault-plan examples/fault_plans/blackout.plan

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/fault/fault_plan.h"
#include "src/measure/rate_limit_probe.h"
#include "src/scenario/engine.h"
#include "src/scenario/outcome_json.h"
#include "src/scenario/spec.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries_export.h"
#include "tools/cli.h"

namespace {

using namespace dcc;
using cli::FlagDouble;
using cli::FlagValue;
using cli::HasFlag;

// Scenario narration goes here; stays stdout unless a data dump claims
// stdout via `--trace-out -`, in which case narration moves to stderr so
// the emitted JSON is parseable on its own.
std::FILE* g_note = stdout;

#define NOTE(...) std::fprintf(g_note, __VA_ARGS__)

void ApplyLogLevel(int argc, char** argv) {
  const char* text = FlagValue(argc, argv, "--log-level");
  if (text == nullptr) {
    return;
  }
  const std::string level = text;
  if (level == "debug") {
    SetLogLevel(LogLevel::kDebug);
  } else if (level == "info") {
    SetLogLevel(LogLevel::kInfo);
  } else if (level == "warn" || level == "warning") {
    SetLogLevel(LogLevel::kWarning);
  } else if (level == "error") {
    SetLogLevel(LogLevel::kError);
  } else {
    std::fprintf(stderr, "unknown log level '%s' (debug|info|warn|error)\n", text);
    std::exit(2);
  }
}

// Loads --fault-plan FILE into `plan` (untouched when the flag is absent);
// exits with a parse diagnostic on failure.
void LoadFaultPlanArg(int argc, char** argv, fault::FaultPlan* plan) {
  const char* path = FlagValue(argc, argv, "--fault-plan");
  if (path == nullptr) {
    return;
  }
  std::string error;
  if (!fault::LoadFaultPlanFile(path, plan, &error)) {
    std::fprintf(stderr, "--fault-plan %s: %s\n", path, error.c_str());
    std::exit(2);
  }
  NOTE("fault plan: %zu events (seed %llu) from %s\n", plan->events.size(),
              static_cast<unsigned long long>(plan->seed), path);
}

// Builds the telemetry sink when --metrics-out / --trace-out is given; the
// scenario wires every host into it.
std::unique_ptr<telemetry::TelemetrySink> MakeSink(int argc, char** argv) {
  if (FlagValue(argc, argv, "--metrics-out") == nullptr &&
      FlagValue(argc, argv, "--trace-out") == nullptr) {
    return nullptr;
  }
  return std::make_unique<telemetry::TelemetrySink>();
}

// Builds the time-series scoreboard when --series-out is given. The scenario
// runner ticks it on its interval and wires in the introspection seam.
std::unique_ptr<telemetry::TimeSeriesSampler> MakeSampler(int argc, char** argv) {
  if (FlagValue(argc, argv, "--series-out") == nullptr) {
    if (FlagValue(argc, argv, "--sample-interval") != nullptr) {
      std::fprintf(stderr, "--sample-interval has no effect without --series-out\n");
    }
    return nullptr;
  }
  const double interval = FlagDouble(argc, argv, "--sample-interval", 1.0);
  if (interval <= 0) {
    std::fprintf(stderr, "--sample-interval must be > 0 (got %g)\n", interval);
    std::exit(2);
  }
  return std::make_unique<telemetry::TimeSeriesSampler>(SecondsF(interval));
}

int DumpSeries(int argc, char** argv, const telemetry::TimeSeriesSampler* sampler) {
  if (sampler == nullptr) {
    return 0;
  }
  const char* path = FlagValue(argc, argv, "--series-out");
  if (!telemetry::WriteSeriesFile(*sampler, path)) {
    std::fprintf(stderr, "cannot write series to %s\n", path);
    return 1;
  }
  NOTE("series: %zu series x %zu ticks -> %s\n", sampler->series().size(),
              sampler->tick_count(), path);
  return 0;
}

// Writes a dump to `path` ('-' = stdout); reports and returns false when the
// file cannot be written.
bool WriteFile(const char* path, const std::string& contents) {
  if (!cli::WriteFile(path, contents)) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  return true;
}

bool IsStdout(const char* path) { return std::strcmp(path, "-") == 0; }

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int DumpTelemetry(int argc, char** argv, const telemetry::TelemetrySink* sink) {
  if (sink == nullptr) {
    return 0;
  }
  if (const char* path = FlagValue(argc, argv, "--metrics-out"); path != nullptr) {
    const std::string out = EndsWith(path, ".jsonl") ? sink->metrics.ExportJsonLines()
                                                     : sink->metrics.ExportPrometheus();
    if (!WriteFile(path, out)) {
      return 1;
    }
    if (!IsStdout(path)) {
      NOTE("metrics: %zu instruments -> %s\n", sink->metrics.InstrumentCount(),
           path);
    }
  }
  if (const char* path = FlagValue(argc, argv, "--trace-out"); path != nullptr) {
    if (!WriteFile(path, sink->trace.ExportJsonLines())) {
      return 1;
    }
    if (!IsStdout(path)) {
      NOTE("trace: %zu span events (%zu complete traces) -> %s\n",
           sink->trace.size(), sink->trace.CompleteTraceIds().size(), path);
    }
  }
  return 0;
}

// --dump-effective: prints the materialized form of `spec` (client seeds and
// stops, jitter seed, FF instance counts baked in), a complete reproduction
// recipe.
int DumpEffective(scenario::ScenarioSpec spec) {
  std::string error;
  if (!scenario::ValidateScenarioSpec(&spec, &error)) {
    std::fprintf(stderr, "spec does not validate: %s\n", error.c_str());
    return 2;
  }
  const std::string out = scenario::WriteScenarioSpec(spec);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

int RunSpec(int argc, char** argv) {
  const char* path = FlagValue(argc, argv, "--spec");
  if (path == nullptr) {
    std::fprintf(stderr, "run requires --spec FILE ('-' for stdin)\n");
    return 2;
  }
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::LoadScenarioSpecFile(path, &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  // Overrides. --seed replaces the run seed; fields the spec pins explicitly
  // (e.g. the Fig. 4 and Fig. 9 client seeds) keep their pinned values.
  if (FlagValue(argc, argv, "--horizon") != nullptr) {
    const double horizon = FlagDouble(argc, argv, "--horizon", 0);
    if (horizon <= 0) {
      cli::UsageError("--horizon", "must be > 0 seconds");
    }
    spec.horizon = SecondsF(horizon);
  }
  spec.seed = cli::FlagU64(argc, argv, "--seed", spec.seed);
  LoadFaultPlanArg(argc, argv, &spec.faults.plan);
  if (HasFlag(argc, argv, "--dump-effective")) {
    return DumpEffective(spec);
  }

  auto sink = MakeSink(argc, argv);
  auto sampler = MakeSampler(argc, argv);
  scenario::EngineHooks hooks;
  hooks.telemetry = sink.get();
  hooks.sampler = sampler.get();
  const char* audit_out = FlagValue(argc, argv, "--audit-out");
  std::unique_ptr<telemetry::DecisionAuditLog> audit;
  if (audit_out != nullptr) {
    audit = std::make_unique<telemetry::DecisionAuditLog>();
    hooks.audit = audit.get();
  }
  const char* profile_out = FlagValue(argc, argv, "--profile-out");
  if (profile_out != nullptr) {
    prof::Reset();
    prof::Enable();
  }
  scenario::ScenarioOutcome outcome;
  if (!scenario::RunScenarioSpec(spec, hooks, &outcome, &error)) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return 2;
  }
  if (profile_out != nullptr) {
    prof::Disable();
    const std::string profile = prof::WriteProfileJson(prof::Snapshot());
    if (!WriteFile(profile_out, profile)) {
      return 1;
    }
    if (!IsStdout(profile_out)) {
      NOTE("profile: hot-path sites -> %s\n", profile_out);
    }
  }
  if (audit != nullptr) {
    const std::string lines = audit->ExportJsonLines();
    if (!WriteFile(audit_out, lines)) {
      return 1;
    }
    if (!IsStdout(audit_out)) {
      NOTE("audit: %llu decisions recorded (%llu evicted) -> %s\n",
           static_cast<unsigned long long>(audit->total_recorded()),
           static_cast<unsigned long long>(audit->dropped()), audit_out);
    }
  }

  NOTE("scenario '%s': %zu nodes, %zu clients, horizon %s, seed %llu\n",
       spec.name.c_str(), spec.nodes.size(), spec.clients.size(),
       FormatDuration(spec.horizon).c_str(),
       static_cast<unsigned long long>(spec.seed));
  NOTE("%-10s %10s %10s %10s %12s\n", "client", "sent", "answered", "failed",
       "ratio");
  for (const auto& client : outcome.clients) {
    NOTE("%-10s %10llu %10llu %10llu %12.2f\n", client.label.c_str(),
         static_cast<unsigned long long>(client.sent),
         static_cast<unsigned long long>(client.succeeded),
         static_cast<unsigned long long>(client.failed),
         client.success_ratio);
  }
  for (const auto& ans : outcome.ans) {
    NOTE("ans %-8s peak %.0f QPS\n", ans.label.c_str(), ans.peak_qps);
  }
  for (const auto& series : outcome.resolver_series) {
    NOTE("resolver %s: stale_served=%llu upstream_timeouts=%llu "
         "holddowns=%llu\n",
         series.node.c_str(),
         static_cast<unsigned long long>(series.stale_responses),
         static_cast<unsigned long long>(series.upstream_timeouts),
         static_cast<unsigned long long>(series.holddowns));
  }
  for (const auto& frontend : outcome.frontends) {
    NOTE("frontend %s: requests=%llu resteers=%llu denied=%llu "
         "rotations=%llu probes=%llu probe_timeouts=%llu servfails=%llu\n",
         frontend.node.c_str(),
         static_cast<unsigned long long>(frontend.requests),
         static_cast<unsigned long long>(frontend.resteers),
         static_cast<unsigned long long>(frontend.resteer_denied),
         static_cast<unsigned long long>(frontend.rotations),
         static_cast<unsigned long long>(frontend.probes_sent),
         static_cast<unsigned long long>(frontend.probe_timeouts),
         static_cast<unsigned long long>(frontend.servfails));
    for (const auto& member : frontend.members) {
      NOTE("  member %-10s steered=%llu healthy_at_end=%s\n",
           member.node.c_str(),
           static_cast<unsigned long long>(member.steered),
           member.healthy_at_end ? "yes" : "no");
    }
  }
  bool any_dcc = false;
  for (const auto& node : spec.nodes) {
    any_dcc = any_dcc || node.dcc_enabled;
  }
  if (any_dcc) {
    NOTE("dcc: convictions=%llu policed=%llu servfails=%llu signals=%llu\n",
         static_cast<unsigned long long>(outcome.dcc_convictions),
         static_cast<unsigned long long>(outcome.dcc_policed_drops),
         static_cast<unsigned long long>(outcome.dcc_servfails),
         static_cast<unsigned long long>(outcome.dcc_signals_attached));
  }
  if (!spec.faults.plan.empty()) {
    NOTE("faults: activations=%llu\n",
         static_cast<unsigned long long>(outcome.fault_activations));
  }
  NOTE("events executed: %llu\n",
       static_cast<unsigned long long>(outcome.events_executed));
  if (const char* out = FlagValue(argc, argv, "--summary-out"); out != nullptr) {
    const std::string summary = scenario::WriteScenarioOutcome(outcome);
    if (!WriteFile(out, summary)) {
      return 1;
    }
    if (!IsStdout(out)) {
      NOTE("summary: full outcome -> %s\n", out);
    }
  }
  if (const int rc = DumpSeries(argc, argv, sampler.get()); rc != 0) {
    return rc;
  }
  return DumpTelemetry(argc, argv, sink.get());
}

int RunProbe(int argc, char** argv) {
  ResolverProfile profile;
  profile.name = "cli";
  profile.irl_noerror_qps = FlagDouble(argc, argv, "--irl", 300);
  profile.irl_nxdomain_qps = FlagDouble(argc, argv, "--nx-irl", profile.irl_noerror_qps);
  profile.egress_qps = FlagDouble(argc, argv, "--erl", 0);
  ProbeConfig config;
  config.step_duration = Seconds(2);
  NOTE("probing synthetic resolver (true IRL %.0f / NX %.0f / ERL %s)\n",
              profile.irl_noerror_qps, profile.irl_nxdomain_qps,
              profile.egress_qps > 0 ? std::to_string((int)profile.egress_qps).c_str()
                                     : "none");
  const MeasuredLimits limits = ProbeResolver(profile, config, 1);
  auto print = [](const char* label, double qps, bool uncertain) {
    if (uncertain) {
      NOTE("%-8s uncertain (>= probing cap)\n", label);
    } else {
      NOTE("%-8s ~%.0f QPS\n", label, qps);
    }
  };
  print("IRL WC", limits.irl_wc, limits.irl_wc_uncertain);
  print("IRL NX", limits.irl_nx, limits.irl_nx_uncertain);
  print("ERL CQ", limits.erl_cq, limits.erl_cq_uncertain);
  print("ERL FF", limits.erl_ff, limits.erl_ff_uncertain);
  return 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_sim COMMAND [options]\n"
      "\n"
      "commands:\n"
      "  run          execute a declarative scenario spec (JSON; see\n"
      "               examples/scenarios/ and DESIGN.md for the schema)\n"
      "  probe        measure a synthetic resolver's rate limits with the\n"
      "               Appendix A methodology and report the estimates\n"
      "\n"
      "The paper's setups are specs in examples/scenarios/: fig4_{a,b,c,d},\n"
      "fig8_{wc,nx,cq,ff}, fig9_{nx,ff} (Fig. 4/8/9), chaos and chaos_dcc\n"
      "(all authoritatives black out from 10 s to 25 s).\n"
      "\n"
      "run options:\n"
      "  --spec FILE          scenario spec to execute ('-' for stdin);\n"
      "                       required\n"
      "  --horizon SECONDS    override the spec's run horizon (client stops\n"
      "                       the spec sets explicitly are kept)\n"
      "  --seed N             override the run seed (fields the spec pins\n"
      "                       explicitly, e.g. per-client seeds, keep their\n"
      "                       pinned values)\n"
      "  --fault-plan FILE    replace the spec's fault plan\n"
      "  --dump-effective     print the materialized spec (derived fields\n"
      "                       and overrides baked in) to stdout instead of\n"
      "                       running; a spec that does not parse or\n"
      "                       validate exits 2 naming the bad field\n"
      "  --summary-out FILE   write the full ScenarioOutcome as JSON ('-'\n"
      "                       for stdout): per-client totals/series, ANS\n"
      "                       peaks, resolver degradation, DCC counters and\n"
      "                       the events-executed fingerprint\n"
      "  --profile-out FILE   run with the hot-path profiler enabled and\n"
      "                       write the site/event/copy profile as JSON\n"
      "                       ('-' for stdout; read with tools/dcc_why).\n"
      "                       Profiling never perturbs the simulation: the\n"
      "                       events-executed fingerprint and summary are\n"
      "                       byte-identical with or without it\n"
      "  --audit-out FILE     record every drop/throttle/SERVFAIL/conviction\n"
      "                       decision and write the audit trail as JSON\n"
      "                       lines ('-' for stdout; analyze with\n"
      "                       tools/dcc_why). Adds an `audit` block to\n"
      "                       --summary-out. Like profiling, auditing never\n"
      "                       perturbs the simulation\n"
      "\n"
      "probe options:\n"
      "  --irl N              true NOERROR ingress limit, QPS (default 300)\n"
      "  --nx-irl N           true NXDOMAIN ingress limit (default: --irl)\n"
      "  --erl N              true egress limit, QPS (default 0 = none)\n"
      "\n"
      "output options for run:\n"
      "  --log-level debug|info|warn|error\n"
      "                       logging threshold (default warn); log lines are\n"
      "                       prefixed with the simulated clock\n"
      "  --metrics-out FILE   dump the metrics registry to FILE in Prometheus\n"
      "                       text format (.jsonl suffix: JSON lines)\n"
      "  --trace-out FILE     dump the query-lifecycle trace to FILE ('-' for\n"
      "                       stdout) as JSON lines: the ring state, then one\n"
      "                       span event per line. `dcc_why chrome` converts\n"
      "                       it to trace-event JSON for Perfetto\n"
      "  --series-out FILE    sample per-channel time series over the run and\n"
      "                       write them to FILE — wide CSV by default, JSON\n"
      "                       lines for .json/.jsonl/.ndjson\n"
      "  --sample-interval S  sampling period in virtual seconds for\n"
      "                       --series-out (default 1.0)\n"
      "\n"
      "examples:\n"
      "  dcc_sim run --spec examples/scenarios/fig8_ff.json\n"
      "  dcc_sim run --spec examples/scenarios/fig8_wc.json --series-out series.csv\n"
      "  dcc_sim run --spec examples/scenarios/fig8_ff.json --trace-out t.jsonl\n"
      "  dcc_sim run --spec examples/scenarios/chaos_dcc.json \\\n"
      "      --fault-plan examples/fault_plans/blackout.plan\n"
      "  dcc_sim run --spec examples/scenarios/fig4_d.json --dump-effective\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  if (HasFlag(argc, argv, "--help") || HasFlag(argc, argv, "-h")) {
    PrintUsage(stdout);
    return 0;
  }
  const std::string command = argv[1];
  for (const char* dump : {"--metrics-out", "--trace-out", "--summary-out",
                           "--profile-out", "--audit-out"}) {
    if (const char* path = FlagValue(argc, argv, dump);
        path != nullptr && IsStdout(path)) {
      g_note = stderr;
    }
  }
  ApplyLogLevel(argc, argv);
  if (command == "run") {
    return RunSpec(argc, argv);
  }
  if (command == "probe") {
    return RunProbe(argc, argv);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
