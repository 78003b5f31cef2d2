// ScenarioEngine: executes a validated ScenarioSpec against a Testbed.
//
// The engine is the single place that turns declarative topology into
// simulator construction. Its phase order is part of the determinism
// contract — addresses are assigned in node-then-client spec order, hosts
// that schedule events at construction time (DCC shims) are created in spec
// order, and the scoreboard sampler / user sampler / fault injector are
// started in a fixed relative order — so a spec replays event-for-event
// (ScenarioOutcome::events_executed is pinned by the golden tests in
// tests/scenario_spec_test.cc).
//
// Outcome collection is spec-driven: per-client totals and success series,
// per-authoritative query-rate series (trimmed to the horizon) plus the
// untrimmed peak (the Fig. 4 saturation signal), per-resolver degradation
// series (upstream sends, stale answers, hold-downs), aggregate DCC shim
// counters, and fault activations. The paper-figure benches reshape this
// into their tables.

#ifndef SRC_SCENARIO_ENGINE_H_
#define SRC_SCENARIO_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/scenario/spec.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"

namespace dcc {
namespace scenario {

struct ClientOutcome {
  std::string label;
  bool is_attacker = false;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  double success_ratio = 0;
  // Per-second successful responses (only when MeasureSpec::client_series).
  std::vector<double> effective_qps;
};

struct AnsOutcome {
  std::string node;
  std::string label;
  // Query rate per virtual second, zero-padded/trimmed to the horizon.
  std::vector<double> qps;
  // Maximum over the untrimmed series (samples past the horizon included).
  double peak_qps = 0;
};

struct ResolverSeriesOutcome {
  std::string node;
  uint64_t stale_responses = 0;
  uint64_t upstream_timeouts = 0;
  uint64_t holddowns = 0;
  std::vector<double> upstream_send_qps;
  std::vector<double> stale_qps;
};

struct FrontendMemberOutcome {
  std::string node;
  // Queries relayed to this member (initial + re-steered attempts).
  uint64_t steered = 0;
  bool healthy_at_end = false;
};

struct FrontendOutcome {
  std::string node;
  uint64_t requests = 0;
  uint64_t resteers = 0;
  uint64_t resteer_denied = 0;
  uint64_t rotations = 0;
  uint64_t probes_sent = 0;
  uint64_t probe_timeouts = 0;
  uint64_t servfails = 0;
  std::vector<FrontendMemberOutcome> members;  // Member list order.
};

struct ScenarioOutcome {
  std::vector<ClientOutcome> clients;  // Same order as ScenarioSpec::clients.
  std::vector<AnsOutcome> ans;         // Same order as MeasureSpec::ans.
  std::vector<ResolverSeriesOutcome> resolver_series;
  std::vector<FrontendOutcome> frontends;  // Frontend nodes in spec order.
  // Summed over every DCC shim in the scenario.
  uint64_t dcc_convictions = 0;
  uint64_t dcc_policed_drops = 0;
  uint64_t dcc_servfails = 0;
  uint64_t dcc_signals_attached = 0;
  // Largest per-second sample of the shims' summed MemoryFootprint() (the
  // §5.2 state-blowup signal; dcc_search's memory objective reads this).
  double dcc_peak_memory_bytes = 0;
  uint64_t fault_activations = 0;
  // Decision-audit rollup (only when EngineHooks::audit was set). Causes are
  // (dotted name, retained-record count) pairs in taxonomy order, zero
  // entries elided.
  bool audit_enabled = false;
  uint64_t audit_records = 0;
  uint64_t audit_dropped = 0;
  std::vector<std::pair<std::string, uint64_t>> audit_causes;
  // Events the loop executed during the run (determinism fingerprint).
  size_t events_executed = 0;
};

// Optional observability hooks. None is owned. The telemetry sink and the
// audit log are observed through the testbed's one telemetry::Observer
// (src/telemetry/observer.h), and the sink's registry is frozen before the
// engine returns; the sampler is ticked on its own interval for the whole
// run with the full introspection seam attached.
struct EngineHooks {
  telemetry::TelemetrySink* telemetry = nullptr;
  telemetry::TimeSeriesSampler* sampler = nullptr;
  // When set, every drop/SERVFAIL decision in the built topology records
  // into this log (see src/telemetry/audit.h). Recording never perturbs the
  // simulation: outcomes are byte-identical with or without it.
  telemetry::DecisionAuditLog* audit = nullptr;
};

// Validates a copy of `spec` (materializing derived fields) and runs it.
// Returns false with a diagnostic in `error` when validation fails; the
// simulation itself cannot fail.
bool RunScenarioSpec(const ScenarioSpec& spec, const EngineHooks& hooks,
                     ScenarioOutcome* outcome, std::string* error);

}  // namespace scenario
}  // namespace dcc

#endif  // SRC_SCENARIO_ENGINE_H_
