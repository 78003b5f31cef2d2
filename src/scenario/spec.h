// ScenarioSpec: a data-driven description of one simulated experiment.
//
// A spec captures everything a simulated experiment wires up — network
// (jitter/loss/per-link delays),
// zones, a node list (authoritatives, resolvers, forwarders, each optionally
// wrapped by a DCC shim, with per-node config overrides), client workloads
// (WC/NX/CQ/FF/NX-then-WC patterns with schedules and optional linear QPS
// ramps), a fault plan, the run horizon/seed, and which measurement series
// to collect. Specs are parsed from JSON (src/common/json; syntax errors
// carry byte offsets, semantic errors carry the JSON path of the offending
// field), validated and materialized by ValidateScenarioSpec, serialized
// back by WriteScenarioSpec, and executed by the ScenarioEngine
// (src/scenario/engine.h) against a Testbed.
//
// The paper's evaluation topologies are committed spec files under
// examples/scenarios/ (fig4_*, fig8_*, fig9_*, chaos*.json); the Fig. 4/8/9
// benches, dcc_search's seeds and the tests all start from them.
//
// Determinism contract: everything a spec does not say is derived from
// ScenarioSpec::seed (delay-jitter seed = seed*13+1, client i's generator
// seed = seed*101+i, FF instance counts = max FF QPS x horizon + 8), so a
// spec + seed is a complete, reproducible description of a run, and a
// --seed/--horizon override of a file that leaves those fields out re-derives
// them. Fields a file pins (e.g. the Fig. 4 and Fig. 9 client seeds) keep
// their pinned values.

#ifndef SRC_SCENARIO_SPEC_H_
#define SRC_SCENARIO_SPEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/dcc/dcc_node.h"
#include "src/fault/fault_plan.h"
#include "src/server/authoritative.h"
#include "src/server/forwarder.h"
#include "src/server/frontend.h"
#include "src/server/resolver.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace scenario {

// Query workloads (paper §2.2.1 / Appendix A). kNxThenWc switches from NX to
// WC mid-run (Fig. 8b's heavy client).
enum class QueryPattern {
  kWc,
  kNx,
  kCq,
  kFf,
  kNxThenWc,
};

const char* QueryPatternName(QueryPattern pattern);

// --- topology ---------------------------------------------------------------

enum class ZoneKind { kTarget, kAttacker };

struct ZoneSpec {
  std::string id;
  ZoneKind kind = ZoneKind::kTarget;
  std::string apex;
  // kTarget: wc/nx/cq subtree options (see MakeTargetZone).
  TargetZoneOptions target;
  // kAttacker: fan-out options (see MakeAttackerZone). instances <= 0 is
  // materialized by validation to max-FF-client-QPS x horizon + 8, the
  // "every attack request misses the cache" sizing.
  AttackerZoneOptions attacker;
  std::string target_zone;  // kAttacker: id of the zone fanned into.
};

enum class NodeKind { kAuthoritative, kResolver, kForwarder, kFrontend };

// One iteration starting point: queries under `zone`'s apex may go to `node`.
struct AuthorityHintSpec {
  std::string zone;
  std::string node;
};

// Channel capacity configured on a DCC shim towards `node` (§3.2.1).
struct ChannelSpec {
  std::string node;
  double qps = 0;
};

// kFrontend convenience: `replicate` stamps out N resolver nodes from this
// template. Materialization (ValidateScenarioSpec) inserts them as full
// resolver NodeSpecs immediately after the frontend in spec order — address
// assignment stays spec-order-deterministic — appends their generated ids
// ("<frontend-id>-r<k>") to `members`, and zeroes `replicate` so a validated
// spec re-validates unchanged. `replicate` above kMaxReplicate is rejected
// before any member is built: the committed fleets stamp out at most four,
// and a larger count would only exhaust memory.
inline constexpr int kMaxReplicate = 1024;

struct FleetMemberTemplateSpec {
  ResolverConfig resolver;
  std::vector<AuthorityHintSpec> hints;  // Ordered (selection order).
};

struct NodeSpec {
  std::string id;
  NodeKind kind = NodeKind::kAuthoritative;

  // kAuthoritative:
  AuthoritativeConfig auth;
  std::vector<std::string> zones;  // Zone ids served (built per-node).

  // kResolver:
  ResolverConfig resolver;
  std::vector<AuthorityHintSpec> hints;  // Ordered (selection order).

  // kForwarder:
  ForwarderConfig forwarder;
  std::vector<std::string> upstreams;  // Node ids; forward references OK.

  // kFrontend: fleet members (resolver/forwarder node ids; forward
  // references OK) plus the optional replicate template above.
  FrontendConfig frontend;
  std::vector<std::string> members;
  int replicate = 0;
  bool has_member_template = false;
  FleetMemberTemplateSpec member_template;

  // Optional DCC shim wrapping a resolver or forwarder (§3.2).
  bool dcc_enabled = false;
  DccConfig dcc;
  std::vector<ChannelSpec> channels;
};

// --- workload ---------------------------------------------------------------

struct ClientSpec {
  std::string label;
  double qps = 1.0;
  Time start = 0;
  Time stop = -1;  // < 0: materialized to the run horizon.
  Duration timeout = Milliseconds(1500);
  int retries = 0;
  bool dcc_aware = false;
  bool rotate_resolvers = false;
  bool is_attacker = false;
  QueryPattern pattern = QueryPattern::kWc;
  std::string zone;  // Generator zone: attacker zone for FF, target else.
  // Generator seed; when absent, materialized to run seed * 101 + index.
  uint64_t seed = 0;
  bool has_seed = false;
  // WC/NX name-pool bound (0 = unbounded; chaos.json cycles 12 names).
  uint64_t unique_names = 0;
  // kNxThenWc: schedule time at which the pattern flips to WC.
  Duration nx_then_wc_switch = Seconds(20);
  // When > 0, the client's rate ramps linearly from `qps` at `start` to
  // `ramp_to_qps` at `stop` (explicit send schedule; declarative-only).
  double ramp_to_qps = 0;
  std::vector<std::string> resolvers;  // Entry-point node ids, in order.
};

// --- network ----------------------------------------------------------------

struct PairDelaySpec {
  std::string a;
  std::string b;
  Duration one_way = 0;
};

struct NetworkSpec {
  // Uniform delivery jitter in [0, jitter); 0 disables.
  Duration jitter = Milliseconds(5);
  uint64_t jitter_seed = 0;  // 0: materialized to run seed * 13 + 1.
  double loss_probability = 0;
  uint64_t loss_seed = 42;
  std::vector<PairDelaySpec> pair_delays;
};

// --- measurement ------------------------------------------------------------

struct AnsProbeSpec {
  std::string node;
  std::string label;  // Empty: materialized to the node id.
};

struct MeasureSpec {
  // Probe every client's per-second success/sent rate (index labels).
  bool client_series = true;
  // Authoritatives whose query rate is sampled (the Fig. 8 ans_qps series /
  // Fig. 4 saturation peak).
  std::vector<AnsProbeSpec> ans;
  // Resolver nodes whose upstream-send and stale-answer rates are sampled
  // (the chaos degradation series).
  std::vector<std::string> resolver_series;
  // Nodes whose UpstreamTracker attaches to the optional user sampler
  // (labels: none when one entry, {"node": id} otherwise).
  std::vector<std::string> trackers;
};

// --- the spec ---------------------------------------------------------------

struct FaultSpec {
  fault::FaultPlan plan;
  // Arm the injector before the measurement samplers start (chaos*.json)
  // instead of after (every other spec). Only observable when a fault event
  // collides with a sampler tick to the exact microsecond.
  bool arm_before_sampling = false;
};

struct ScenarioSpec {
  std::string name;
  Duration horizon = Seconds(60);
  uint64_t seed = 1;
  NetworkSpec network;
  std::vector<ZoneSpec> zones;
  std::vector<NodeSpec> nodes;     // Creation order (address assignment!).
  std::vector<ClientSpec> clients; // Created after nodes, in order.
  FaultSpec faults;
  MeasureSpec measure;
  // Free-form provenance lines carried through parse/write untouched and
  // ignored by the engine. dcc_search records the objective, score and seed
  // lineage of discovered scenarios here so a corpus file is self-describing.
  std::vector<std::string> provenance;
};

// Address layout (for hand-written fault plans): node i gets 10.0.0.(1+i),
// client j gets 10.0.0.(1+nodes.size()+j).
HostAddress SpecNodeAddress(const ScenarioSpec& spec, size_t node_index);
HostAddress SpecClientAddress(const ScenarioSpec& spec, size_t client_index);

// Parses a JSON document into `spec`. Returns false with a diagnostic in
// `error`: byte offset for malformed JSON, JSON path (e.g.
// "nodes[2].upstreams[0]") for schema/semantic problems, including a number
// its field cannot hold (non-finite, fractional for an integer field,
// outside the field's integer type, or a duration past INT64_MAX
// microseconds). Does NOT run ValidateScenarioSpec.
bool ParseScenarioSpec(std::string_view json_text, ScenarioSpec* spec,
                       std::string* error);

// Reads `path` (or stdin when path == "-") and parses it.
bool LoadScenarioSpecFile(const std::string& path, ScenarioSpec* spec,
                          std::string* error);

// Semantic validation + materialization of derived fields (client stops and
// seeds, jitter seed, FF instance counts, measurement labels). Returns false
// with a path-qualified diagnostic on dangling references, bad ranges, or
// kind mismatches. Idempotent; a validated spec re-validates unchanged.
bool ValidateScenarioSpec(ScenarioSpec* spec, std::string* error);

// Serializes `spec` (materialized fields included) such that
// ParseScenarioSpec(WriteScenarioSpec(spec)) reproduces it exactly.
json::Value ScenarioSpecToJson(const ScenarioSpec& spec);
std::string WriteScenarioSpec(const ScenarioSpec& spec, int indent = 2);

}  // namespace scenario
}  // namespace dcc

#endif  // SRC_SCENARIO_SPEC_H_
