#include "src/scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "src/dns/message.h"

namespace dcc {
namespace scenario {
namespace {

// --- error plumbing ---------------------------------------------------------

struct Ctx {
  std::string* error = nullptr;
  bool ok = true;

  bool Fail(const std::string& path, const std::string& message) {
    if (ok && error != nullptr) {
      *error = path.empty() ? message : path + ": " + message;
    }
    ok = false;
    return false;
  }
};

std::string Sub(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

std::string Idx(const std::string& path, size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// One JSON object being read: its value, its JSON path and the error sink.
struct Input {
  const json::Value& value;
  std::string path;
  Ctx& ctx;

  // Fails at member `key`; the path is only built for the error.
  void Fail(const char* key, const std::string& message) const {
    ctx.Fail(Sub(path, key), message);
  }
};

bool ExpectObject(const Input& in) {
  return in.value.is_object() || in.ctx.Fail(in.path, "expected an object");
}

// --- enum names -------------------------------------------------------------

// One name table per enum, read in both directions; an unknown name is
// rejected with the table's names as the "(a|b|c)" hint.
template <class E>
struct EnumName {
  E value;
  const char* name;
};

template <class E, size_t N>
struct EnumNames {
  const char* noun;  // As in "unknown <noun> 'x' (a|b|c)".
  EnumName<E> names[N];

  const char* Name(E value) const {
    for (const EnumName<E>& entry : names) {
      if (entry.value == value) {
        return entry.name;
      }
    }
    return names[0].name;
  }

  bool Parse(const std::string& text, E* out) const {
    for (const EnumName<E>& entry : names) {
      if (text == entry.name) {
        *out = entry.value;
        return true;
      }
    }
    return false;
  }

  std::string Unknown(const std::string& text) const {
    std::string choices;
    for (const EnumName<E>& entry : names) {
      choices += choices.empty() ? "" : "|";
      choices += entry.name;
    }
    return "unknown " + std::string(noun) + " '" + text + "' (" + choices + ")";
  }
};

constexpr EnumNames<QueryPattern, 5> kQueryPatterns = {
    "pattern",
    {{QueryPattern::kWc, "wc"},
     {QueryPattern::kNx, "nx"},
     {QueryPattern::kCq, "cq"},
     {QueryPattern::kFf, "ff"},
     {QueryPattern::kNxThenWc, "nx_then_wc"}}};
constexpr EnumNames<RateLimitAction, 3> kRateLimitActions = {
    "action",
    {{RateLimitAction::kDrop, "drop"},
     {RateLimitAction::kServFail, "servfail"},
     {RateLimitAction::kRefused, "refused"}}};
constexpr EnumNames<PolicyType, 3> kSignalPolicies = {
    "policy",
    {{PolicyType::kNone, "none"},
     {PolicyType::kRateLimit, "ratelimit"},
     {PolicyType::kBlock, "block"}}};
constexpr EnumNames<ZoneKind, 2> kZoneKinds = {
    "zone kind", {{ZoneKind::kTarget, "target"}, {ZoneKind::kAttacker, "attacker"}}};
constexpr EnumNames<NodeKind, 4> kNodeKinds = {
    "node kind",
    {{NodeKind::kAuthoritative, "auth"},
     {NodeKind::kResolver, "resolver"},
     {NodeKind::kForwarder, "forwarder"},
     {NodeKind::kFrontend, "frontend"}}};
// The frontend names its own policies.
const EnumNames<SteeringPolicy, 3> kSteeringPolicies = {
    "steering policy",
    {{SteeringPolicy::kConsistentHash,
      SteeringPolicyName(SteeringPolicy::kConsistentHash)},
     {SteeringPolicy::kLeastLoaded, SteeringPolicyName(SteeringPolicy::kLeastLoaded)},
     {SteeringPolicy::kRoundRobin, SteeringPolicyName(SteeringPolicy::kRoundRobin)}}};

// --- field tables -----------------------------------------------------------
//
// Each spec object is one table: a tuple of rows, one per JSON key, each
// naming the key, the member it maps to and its kind. Three walkers go over
// the tables, so a key is named nowhere else: WriteObject (spec -> JSON),
// CheckKeys (a key no row names is an error, so typos surface instead of
// silently applying defaults) and ReadFields (typed JSON -> spec, in table
// order, so the first bad row is the error reported).
//
// Reading converts through the member's C++ type: every number must be
// finite, integers must be integral and fit the member's type, and seconds
// must fit a Duration in microseconds. Sign rules live in
// ValidateScenarioSpec, where a negative stop or instance count means
// "derive this".

// A row's member: a data-member pointer, Inner(outer, inner) for a member
// of a member, or Self<O> for the owner itself (a JSON object, like "run",
// that groups some of its owner's fields).
template <class Outer, class Member>
struct Nested {
  Outer outer;
  Member inner;
};

template <class O>
struct Self {};

template <class O, class A, class B>
constexpr Nested<A O::*, B> Inner(A O::*outer, B inner) {
  return {outer, inner};
}

template <class O, class T>
T& At(O& owner, T O::*member) {
  return owner.*member;
}
template <class O, class T>
const T& At(const O& owner, T O::*member) {
  return owner.*member;
}
template <class O, class A, class B>
auto& At(O& owner, const Nested<A, B>& member) {
  return At(At(owner, member.outer), member.inner);
}
template <class O>
O& At(O& owner, Self<std::remove_const_t<O>>) {
  return owner;
}

template <class M>
struct OwnerOf;
template <class O, class T>
struct OwnerOf<T O::*> {
  using type = O;
};
template <class A, class B>
struct OwnerOf<Nested<A, B>> : OwnerOf<A> {};
template <class O>
struct OwnerOf<Self<O>> {
  using type = O;
};

template <class M>
using ValueOf = std::remove_cvref_t<decltype(At(
    std::declval<typename OwnerOf<M>::type&>(), std::declval<const M&>()))>;

// How a row's value is written and read: a scalar Kind, an enum's names,
// a nested object's table (Nest), an array of objects (Each), or the fault
// plan's text lines (PlanLines).
enum class Kind { kNumber, kInteger, kSeconds, kBool, kString, kStrings };

template <class Table>
struct Nest {
  Table table;
};

template <class Table>
struct Each {
  Table table;
};

struct PlanLines {};

template <class M, class Codec>
struct Row {
  using Owner = typename OwnerOf<M>::type;
  const char* key;
  M member;
  Codec codec;
  // Written only when `when` holds and `present` is set; reading the key
  // sets `present`.
  bool (*when)(const Owner&) = nullptr;
  bool Owner::*present = nullptr;
  // An absent key reads as "" (an unknown enum name) instead of keeping
  // the member's default.
  bool required = false;
};

template <class M>
constexpr Row<M, Kind> Num(const char* key, M member) {
  static_assert(std::is_same_v<ValueOf<M>, double>);
  return {key, member, Kind::kNumber};
}
template <class M>
constexpr Row<M, Kind> Int(const char* key, M member) {
  static_assert(std::is_integral_v<ValueOf<M>> && !std::is_same_v<ValueOf<M>, bool>);
  return {key, member, Kind::kInteger};
}
template <class M>
constexpr Row<M, Kind> Secs(const char* key, M member) {
  static_assert(std::is_same_v<ValueOf<M>, Duration>);
  return {key, member, Kind::kSeconds};
}
template <class M>
constexpr Row<M, Kind> Bool(const char* key, M member) {
  static_assert(std::is_same_v<ValueOf<M>, bool>);
  return {key, member, Kind::kBool};
}
template <class M>
constexpr Row<M, Kind> Str(const char* key, M member) {
  static_assert(std::is_same_v<ValueOf<M>, std::string>);
  return {key, member, Kind::kString};
}
template <class M>
constexpr Row<M, Kind> Strs(const char* key, M member) {
  static_assert(std::is_same_v<ValueOf<M>, std::vector<std::string>>);
  return {key, member, Kind::kStrings};
}
template <class M, class E, size_t N>
constexpr Row<M, const EnumNames<E, N>*> Enum(const char* key, M member,
                                              const EnumNames<E, N>& names) {
  return {key, member, &names};
}
template <class M, class Table>
constexpr Row<M, Nest<Table>> Obj(const char* key, M member, Table table) {
  return {key, member, {table}};
}
template <class M, class Table>
constexpr Row<M, Each<Table>> List(const char* key, M member, Table table) {
  return {key, member, {table}};
}
template <class M>
constexpr Row<M, PlanLines> Plan(const char* key, M member) {
  return {key, member, {}};
}

template <class R>
constexpr R If(R row, bool (*when)(const typename R::Owner&)) {
  row.when = when;
  return row;
}
template <class R>
constexpr R SetBy(R row, bool R::Owner::*present) {
  row.present = present;
  return row;
}
template <class R>
constexpr R Required(R row) {
  row.required = true;
  return row;
}

// --- writing ----------------------------------------------------------------

template <class O, class... Tables>
json::Value WriteObject(const O& owner, const Tables&... tables);

template <class T>
json::Value ToJson(Kind kind, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return json::Value::OfBool(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return json::Value::OfString(value);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    json::Value out = json::Value::MakeArray();
    for (const std::string& item : value) {
      out.PushBack(json::Value::OfString(item));
    }
    return out;
  } else {
    return json::Value::OfNumber(kind == Kind::kSeconds ? ToSeconds(value)
                                                        : static_cast<double>(value));
  }
}

template <class E, size_t N>
json::Value ToJson(const EnumNames<E, N>* names, E value) {
  return json::Value::OfString(names->Name(value));
}

template <class Table, class T>
json::Value ToJson(const Nest<Table>& nest, const T& value) {
  return WriteObject(value, nest.table);
}

template <class Table, class T>
json::Value ToJson(const Each<Table>& each, const std::vector<T>& list) {
  json::Value out = json::Value::MakeArray();
  for (const T& item : list) {
    out.PushBack(WriteObject(item, each.table));
  }
  return out;
}

json::Value ToJson(PlanLines, const fault::FaultPlan& plan) {
  json::Value out = json::Value::MakeArray();
  std::string line;
  for (const char c : fault::FormatFaultPlan(plan)) {
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    out.PushBack(json::Value::OfString(line));
    line.clear();
  }
  if (!line.empty()) {
    out.PushBack(json::Value::OfString(line));
  }
  return out;
}

template <class O, class... Tables>
json::Value WriteObject(const O& owner, const Tables&... tables) {
  json::Value out = json::Value::MakeObject();
  const auto write = [&](const auto& row) {
    if ((row.when == nullptr || row.when(owner)) &&
        (row.present == nullptr || owner.*row.present)) {
      out.Set(row.key, ToJson(row.codec, At(owner, row.member)));
    }
  };
  (std::apply([&](const auto&... rows) { (write(rows), ...); }, tables), ...);
  return out;
}

// --- reading ----------------------------------------------------------------

template <class O, class Table>
void ReadObject(const Input& in, O* owner, const Table& table);

void Convert(Kind, const json::Value& value, const Input& in, const char* key,
             bool* out) {
  if (!value.is_bool()) {
    in.Fail(key, "expected true or false");
    return;
  }
  *out = value.AsBool();
}

void Convert(Kind, const json::Value& value, const Input& in, const char* key,
             std::string* out) {
  if (!value.is_string()) {
    in.Fail(key, "expected a string");
    return;
  }
  *out = value.AsString();
}

void Convert(Kind, const json::Value& value, const Input& in, const char* key,
             std::vector<std::string>* out) {
  if (!value.is_array()) {
    in.Fail(key, "expected an array");
    return;
  }
  for (size_t i = 0; i < value.AsArray().size(); ++i) {
    const json::Value& item = value.AsArray()[i];
    if (!item.is_string()) {
      in.ctx.Fail(Idx(Sub(in.path, key), i), "expected a string");
      return;
    }
    out->push_back(item.AsString());
  }
}

void Convert(Kind, const json::Value& value, const Input& in, const char* key,
             double* out) {
  if (!value.is_number()) {
    in.Fail(key, "expected a number");
  } else if (!std::isfinite(value.AsNumber())) {
    in.Fail(key, "expected a finite number");
  } else {
    *out = value.AsNumber();
  }
}

// Integers and seconds (Durations are integers of microseconds).
template <class T>
  requires std::is_integral_v<T>
void Convert(Kind kind, const json::Value& value, const Input& in, const char* key,
             T* out) {
  using Limits = std::numeric_limits<T>;
  if (!value.is_number()) {
    in.Fail(key, kind == Kind::kSeconds ? "expected a duration in seconds"
                                        : "expected a number");
    return;
  }
  double n = value.AsNumber();
  if (!Limits::is_signed && n < 0) {
    in.Fail(key, "expected a non-negative integer");
    return;
  }
  if (!std::isfinite(n)) {
    in.Fail(key, "expected a finite number");
    return;
  }
  if (kind == Kind::kSeconds) {
    n = std::round(n * 1e6);
  }
  // [min, 2^digits) is exact in a double for every integer type.
  if (n != std::trunc(n)) {
    in.Fail(key, "expected an integer");
  } else if (n < static_cast<double>(Limits::min()) ||
             n >= std::ldexp(1.0, Limits::digits)) {
    in.Fail(key, kind == Kind::kSeconds
                       ? "out of range for a duration in microseconds"
                       : "out of range [" + std::to_string(Limits::min()) + ", " +
                             std::to_string(Limits::max()) + "]");
  } else {
    *out = static_cast<T>(n);
  }
}

template <class E, size_t N>
void Convert(const EnumNames<E, N>* names, const json::Value& value,
             const Input& in, const char* key, E* out) {
  if (!value.is_string()) {
    in.Fail(key, "expected a string");
  } else if (!names->Parse(value.AsString(), out)) {
    in.Fail(key, names->Unknown(value.AsString()));
  }
}

template <class Table, class T>
void Convert(const Nest<Table>& nest, const json::Value& value, const Input& in,
             const char* key, T* out) {
  ReadObject(Input{value, Sub(in.path, key), in.ctx}, out, nest.table);
}

template <class Table, class T>
void Convert(const Each<Table>& each, const json::Value& value, const Input& in,
             const char* key, std::vector<T>* out) {
  if (!value.is_array()) {
    in.Fail(key, "expected an array");
    return;
  }
  const std::string path = Sub(in.path, key);
  for (size_t i = 0; i < value.AsArray().size(); ++i) {
    T item;
    ReadObject(Input{value.AsArray()[i], Idx(path, i), in.ctx}, &item, each.table);
    out->push_back(std::move(item));
  }
}

void Convert(PlanLines, const json::Value& value, const Input& in, const char* key,
             fault::FaultPlan* out) {
  if (!value.is_array()) {
    in.Fail(key, "expected an array");
    return;
  }
  std::string text;
  for (size_t i = 0; i < value.AsArray().size(); ++i) {
    const json::Value& line = value.AsArray()[i];
    if (!line.is_string()) {
      in.ctx.Fail(Idx(Sub(in.path, key), i), "expected a string (one plan line)");
      return;
    }
    text += line.AsString();
    text += '\n';
  }
  std::string error;
  if (!fault::ParseFaultPlan(text, out, &error)) {
    in.Fail(key, error);
  }
}

// Reads the rows of `tables` present in `in`, in table order.
template <class O, class... Tables>
void ReadFields(const Input& in, O* owner, const Tables&... tables) {
  static const json::Value kAbsent = json::Value::OfString("");
  const auto read = [&](const auto& row) {
    const json::Value* value = in.value.Find(row.key);
    if (value == nullptr && !row.required) {
      return;
    }
    Convert(row.codec, value != nullptr ? *value : kAbsent, in, row.key,
            &At(*owner, row.member));
    if (row.present != nullptr) {
      owner->*row.present = true;
    }
  };
  (std::apply([&](const auto&... rows) { (read(rows), ...); }, tables), ...);
}

// Fails on the first key of `in` that no row of `tables` names.
template <class... Tables>
void CheckKeys(const Input& in, const Tables&... tables) {
  for (const auto& [key, unused] : in.value.AsObject()) {
    (void)unused;
    const auto names = [&](const auto& table) {
      return std::apply([&](const auto&... rows) { return ((key == rows.key) || ...); },
                        table);
    };
    if (!(names(tables) || ...)) {
      in.ctx.Fail(Sub(in.path, key), "unknown key");
      return;
    }
  }
}

template <class O, class Table>
void ReadObject(const Input& in, O* owner, const Table& table) {
  if (ExpectObject(in)) {
    CheckKeys(in, table);
    ReadFields(in, owner, table);
  }
}

// --- the tables -------------------------------------------------------------

constexpr auto kRrlFields = std::make_tuple(
    Bool("enabled", &ResponseRateLimitConfig::enabled),
    Num("noerror_qps", &ResponseRateLimitConfig::noerror_qps),
    Num("nxdomain_qps", &ResponseRateLimitConfig::nxdomain_qps),
    Num("burst", &ResponseRateLimitConfig::burst),
    Bool("per_class", &ResponseRateLimitConfig::per_class),
    Secs("penalty", &ResponseRateLimitConfig::penalty),
    Enum("action", &ResponseRateLimitConfig::action, kRateLimitActions));

constexpr auto kAuthFields = std::make_tuple(
    Obj("rrl", &AuthoritativeConfig::rrl, kRrlFields),
    Secs("processing_delay", &AuthoritativeConfig::processing_delay));

constexpr auto kResolverFields = std::make_tuple(
    Secs("upstream_timeout", &ResolverConfig::upstream_timeout),
    Int("upstream_retries", &ResolverConfig::upstream_retries),
    Secs("request_deadline", &ResolverConfig::request_deadline),
    Int("max_fetches_per_request", &ResolverConfig::max_fetches_per_request),
    Bool("qname_minimization", &ResolverConfig::qname_minimization),
    Bool("aggressive_nsec", &ResolverConfig::aggressive_nsec),
    Bool("attach_attribution", &ResolverConfig::attach_attribution),
    Obj("ingress_rrl", &ResolverConfig::ingress_rrl, kRrlFields),
    Bool("egress_rl_enabled", &ResolverConfig::egress_rl_enabled),
    Num("egress_qps", &ResolverConfig::egress_qps),
    Num("egress_burst", &ResolverConfig::egress_burst),
    Bool("adaptive_retry", &ResolverConfig::adaptive_retry),
    Bool("serve_stale", &ResolverConfig::serve_stale),
    Secs("max_stale", &ResolverConfig::max_stale),
    Int("stale_answer_ttl", &ResolverConfig::stale_answer_ttl));

constexpr auto kForwarderFields = std::make_tuple(
    Secs("upstream_timeout", &ForwarderConfig::upstream_timeout),
    Int("upstream_attempts", &ForwarderConfig::upstream_attempts),
    Bool("cache_enabled", &ForwarderConfig::cache_enabled),
    Bool("attach_attribution", &ForwarderConfig::attach_attribution),
    Bool("adaptive_retry", &ForwarderConfig::adaptive_retry),
    Bool("serve_stale", &ForwarderConfig::serve_stale),
    Secs("max_stale", &ForwarderConfig::max_stale),
    Int("stale_answer_ttl", &ForwarderConfig::stale_answer_ttl));

constexpr auto kUpstream = &FrontendConfig::upstream;
constexpr auto kFrontendFields = std::make_tuple(
    Enum("steering", &FrontendConfig::steering, kSteeringPolicies),
    Secs("processing_delay", &FrontendConfig::processing_delay),
    Int("max_attempts", &FrontendConfig::max_attempts),
    Secs("query_timeout", &FrontendConfig::query_timeout),
    Num("retry_backoff_factor", &FrontendConfig::retry_backoff_factor),
    Secs("retry_backoff_max", &FrontendConfig::retry_backoff_max),
    Num("retry_jitter", &FrontendConfig::retry_jitter),
    Bool("health_checks", &FrontendConfig::health_checks),
    Secs("probe_interval", &FrontendConfig::probe_interval),
    Str("probe_name", &FrontendConfig::probe_name),
    Secs("probe_timeout", &FrontendConfig::probe_timeout),
    Num("resteer_budget_qps", &FrontendConfig::resteer_budget_qps),
    Num("resteer_budget_burst", &FrontendConfig::resteer_budget_burst),
    Secs("rotation_period", &FrontendConfig::rotation_period),
    Int("rotation_active", &FrontendConfig::rotation_active),
    Bool("attach_attribution", &FrontendConfig::attach_attribution),
    Int("holddown_after", Inner(kUpstream, &UpstreamTrackerConfig::holddown_after)),
    Secs("holddown_initial", Inner(kUpstream, &UpstreamTrackerConfig::holddown_initial)),
    Secs("holddown_max", Inner(kUpstream, &UpstreamTrackerConfig::holddown_max)),
    Secs("min_rto", Inner(kUpstream, &UpstreamTrackerConfig::min_rto)));

constexpr auto kSchedulerFields = std::make_tuple(
    Int("pool_capacity", &MopiFqConfig::pool_capacity),
    Int("max_poq_depth", &MopiFqConfig::max_poq_depth),
    Int("max_rounds", &MopiFqConfig::max_rounds),
    Num("default_channel_qps", &MopiFqConfig::default_channel_qps),
    Num("channel_burst", &MopiFqConfig::channel_burst));

constexpr auto kAnomalyFields = std::make_tuple(
    Secs("window", &AnomalyConfig::window),
    Int("window_buckets", &AnomalyConfig::window_buckets),
    Num("nx_ratio_threshold", &AnomalyConfig::nx_ratio_threshold),
    Int("nx_min_responses", &AnomalyConfig::nx_min_responses),
    Num("amplification_threshold", &AnomalyConfig::amplification_threshold),
    Int("amp_min_requests", &AnomalyConfig::amp_min_requests),
    Int("alarms_to_convict", &AnomalyConfig::alarms_to_convict),
    Secs("suspicion_period", &AnomalyConfig::suspicion_period));

constexpr auto kCapacityFields = std::make_tuple(
    Bool("enabled", &CapacityEstimatorConfig::enabled),
    Num("initial_qps", &CapacityEstimatorConfig::initial_qps),
    Num("min_qps", &CapacityEstimatorConfig::min_qps),
    Num("max_qps", &CapacityEstimatorConfig::max_qps),
    Num("loss_threshold", &CapacityEstimatorConfig::loss_threshold),
    Num("decrease_factor", &CapacityEstimatorConfig::decrease_factor),
    Num("increase_qps", &CapacityEstimatorConfig::increase_qps),
    Num("utilization_threshold", &CapacityEstimatorConfig::utilization_threshold),
    Int("min_samples", &CapacityEstimatorConfig::min_samples),
    Secs("window", &CapacityEstimatorConfig::window));

constexpr auto kDccFields = std::make_tuple(
    Obj("scheduler", &DccConfig::scheduler, kSchedulerFields),
    Obj("anomaly", &DccConfig::anomaly, kAnomalyFields),
    Obj("capacity", &DccConfig::capacity, kCapacityFields),
    Bool("signaling_enabled", &DccConfig::signaling_enabled),
    Int("countdown_police_threshold", &DccConfig::countdown_police_threshold),
    Int("countdown_relay_decrement", &DccConfig::countdown_relay_decrement),
    Num("nx_policy_qps", &DccConfig::nx_policy_qps),
    Secs("nx_policy_duration", &DccConfig::nx_policy_duration),
    Secs("amp_policy_duration", &DccConfig::amp_policy_duration),
    Enum("signal_policy", &DccConfig::signal_policy, kSignalPolicies),
    Secs("signal_policy_duration", &DccConfig::signal_policy_duration),
    Bool("emit_extended_errors", &DccConfig::emit_extended_errors),
    Int("client_prefix_bits", &DccConfig::client_prefix_bits),
    Secs("purge_interval", &DccConfig::purge_interval),
    Secs("state_idle_timeout", &DccConfig::state_idle_timeout),
    Secs("pending_query_ttl", &DccConfig::pending_query_ttl));

// --- zones ------------------------------------------------------------------

constexpr auto kTarget = &ZoneSpec::target;
constexpr auto kAttacker = &ZoneSpec::attacker;
// "kind" picks the zone's table, so it is read first; "id" and "apex" last.
constexpr auto kZoneKindField = std::make_tuple(Enum("kind", &ZoneSpec::kind, kZoneKinds));
constexpr auto kTargetZoneFields = std::make_tuple(
    Int("ttl", Inner(kTarget, &TargetZoneOptions::ttl)),
    Int("cq_instances", Inner(kTarget, &TargetZoneOptions::cq_instances)),
    Int("cq_chain_length", Inner(kTarget, &TargetZoneOptions::cq_chain_length)),
    Int("cq_labels", Inner(kTarget, &TargetZoneOptions::cq_labels)));
constexpr auto kAttackerZoneFields = std::make_tuple(
    Int("ttl", Inner(kAttacker, &AttackerZoneOptions::ttl)),
    Str("target_zone", &ZoneSpec::target_zone),
    Int("instances", Inner(kAttacker, &AttackerZoneOptions::instances)),
    Int("fanout_a", Inner(kAttacker, &AttackerZoneOptions::fanout_a)),
    Int("fanout_t", Inner(kAttacker, &AttackerZoneOptions::fanout_t)));
constexpr auto kZoneFields =
    std::make_tuple(Str("id", &ZoneSpec::id), Str("apex", &ZoneSpec::apex));

struct ZoneTables {};

template <class F>
auto WithZoneTable(ZoneKind kind, F f) {
  return kind == ZoneKind::kTarget ? f(kTargetZoneFields) : f(kAttackerZoneFields);
}

json::Value WriteObject(const ZoneSpec& zone, ZoneTables) {
  return WithZoneTable(zone.kind, [&](const auto& table) {
    return WriteObject(zone, kZoneKindField, table, kZoneFields);
  });
}

void ReadObject(const Input& in, ZoneSpec* zone, ZoneTables) {
  if (!ExpectObject(in)) {
    return;
  }
  ReadFields(in, zone, kZoneKindField);
  if (zone->kind == ZoneKind::kAttacker) {
    // Absent or <= 0: derived from the FF workload by ValidateScenarioSpec.
    zone->attacker.instances = 0;
  }
  WithZoneTable(zone->kind, [&](const auto& table) {
    CheckKeys(in, kZoneKindField, table, kZoneFields);
    ReadFields(in, zone, table, kZoneFields);
  });
}

// --- nodes ------------------------------------------------------------------

constexpr auto kHintFields = std::make_tuple(Str("zone", &AuthorityHintSpec::zone),
                                             Str("node", &AuthorityHintSpec::node));
constexpr auto kChannelFields =
    std::make_tuple(Str("node", &ChannelSpec::node), Num("qps", &ChannelSpec::qps));
constexpr auto kMemberTemplateFields = std::make_tuple(
    Obj("resolver", &FleetMemberTemplateSpec::resolver, kResolverFields),
    List("hints", &FleetMemberTemplateSpec::hints, kHintFields));

// "kind" picks the rest of the node's table, so it is read before the
// keys are checked.
constexpr auto kNodeFields = std::make_tuple(
    Str("id", &NodeSpec::id), Required(Enum("kind", &NodeSpec::kind, kNodeKinds)));
constexpr auto kAuthNodeFields = std::make_tuple(
    Strs("zones", &NodeSpec::zones), Obj("auth", &NodeSpec::auth, kAuthFields));
constexpr auto kResolverNodeFields =
    std::make_tuple(Obj("resolver", &NodeSpec::resolver, kResolverFields),
                    List("hints", &NodeSpec::hints, kHintFields));
constexpr auto kForwarderNodeFields =
    std::make_tuple(Obj("forwarder", &NodeSpec::forwarder, kForwarderFields),
                    Strs("upstreams", &NodeSpec::upstreams));
constexpr auto kFrontendNodeFields = std::make_tuple(
    Obj("frontend", &NodeSpec::frontend, kFrontendFields),
    Strs("members", &NodeSpec::members),
    If(Int("replicate", &NodeSpec::replicate),
       [](const NodeSpec& node) { return node.replicate > 0; }),
    SetBy(Obj("member_template", &NodeSpec::member_template, kMemberTemplateFields),
          &NodeSpec::has_member_template));
// The optional DCC shim, read on resolvers and forwarders.
constexpr auto kShimFields = std::make_tuple(
    SetBy(Obj("dcc", &NodeSpec::dcc, kDccFields), &NodeSpec::dcc_enabled),
    If(List("channels", &NodeSpec::channels, kChannelFields),
       [](const NodeSpec& node) { return node.dcc_enabled; }));

struct NodeTables {};

template <class F>
auto WithNodeTables(NodeKind kind, F f) {
  switch (kind) {
    case NodeKind::kResolver:
      return f(kResolverNodeFields, kShimFields);
    case NodeKind::kForwarder:
      return f(kForwarderNodeFields, kShimFields);
    case NodeKind::kFrontend:
      return f(kFrontendNodeFields, std::tuple<>());
    case NodeKind::kAuthoritative:
      break;
  }
  return f(kAuthNodeFields, std::tuple<>());
}

// A shim is written whenever it is enabled, so validation can reject one on
// a node kind that does not read it.
json::Value WriteObject(const NodeSpec& node, NodeTables) {
  return WithNodeTables(node.kind, [&](const auto& table, const auto&) {
    return WriteObject(node, kNodeFields, table, kShimFields);
  });
}

void ReadObject(const Input& in, NodeSpec* node, NodeTables) {
  if (!ExpectObject(in)) {
    return;
  }
  ReadFields(in, node, kNodeFields);
  WithNodeTables(node->kind, [&](const auto& table, const auto& shim) {
    CheckKeys(in, kNodeFields, table, shim);
    ReadFields(in, node, table, shim);
  });
}

// --- the spec ---------------------------------------------------------------

constexpr auto kClientFields = std::make_tuple(
    Str("label", &ClientSpec::label),
    Num("qps", &ClientSpec::qps),
    Secs("start", &ClientSpec::start),
    Secs("stop", &ClientSpec::stop),
    Secs("timeout", &ClientSpec::timeout),
    Int("retries", &ClientSpec::retries),
    Bool("dcc_aware", &ClientSpec::dcc_aware),
    Bool("rotate_resolvers", &ClientSpec::rotate_resolvers),
    Bool("attacker", &ClientSpec::is_attacker),
    Enum("pattern", &ClientSpec::pattern, kQueryPatterns),
    Str("zone", &ClientSpec::zone),
    SetBy(Int("seed", &ClientSpec::seed), &ClientSpec::has_seed),
    If(Int("unique_names", &ClientSpec::unique_names),
       [](const ClientSpec& client) { return client.unique_names != 0; }),
    If(Secs("nx_then_wc_switch", &ClientSpec::nx_then_wc_switch),
       [](const ClientSpec& client) { return client.pattern == QueryPattern::kNxThenWc; }),
    If(Num("ramp_to_qps", &ClientSpec::ramp_to_qps),
       [](const ClientSpec& client) { return client.ramp_to_qps > 0; }),
    Strs("resolvers", &ClientSpec::resolvers));

constexpr auto kPairDelayFields = std::make_tuple(Str("a", &PairDelaySpec::a),
                                                  Str("b", &PairDelaySpec::b),
                                                  Secs("one_way", &PairDelaySpec::one_way));

constexpr auto kNetworkFields = std::make_tuple(
    Secs("jitter", &NetworkSpec::jitter),
    Int("jitter_seed", &NetworkSpec::jitter_seed),
    Num("loss_probability", &NetworkSpec::loss_probability),
    Int("loss_seed", &NetworkSpec::loss_seed),
    If(List("pair_delays", &NetworkSpec::pair_delays, kPairDelayFields),
       [](const NetworkSpec& network) { return !network.pair_delays.empty(); }));

constexpr auto kRunFields = std::make_tuple(Secs("horizon", &ScenarioSpec::horizon),
                                            Int("seed", &ScenarioSpec::seed));

constexpr auto kFaultFields =
    std::make_tuple(Bool("arm_before_sampling", &FaultSpec::arm_before_sampling),
                    Plan("plan", &FaultSpec::plan));

constexpr auto kAnsProbeFields = std::make_tuple(Str("node", &AnsProbeSpec::node),
                                                 Str("label", &AnsProbeSpec::label));

constexpr auto kMeasureFields = std::make_tuple(
    Bool("client_series", &MeasureSpec::client_series),
    List("ans", &MeasureSpec::ans, kAnsProbeFields),
    Strs("resolver_series", &MeasureSpec::resolver_series),
    Strs("trackers", &MeasureSpec::trackers));

constexpr auto kSpecFields = std::make_tuple(
    Str("name", &ScenarioSpec::name),
    If(Strs("provenance", &ScenarioSpec::provenance),
       [](const ScenarioSpec& spec) { return !spec.provenance.empty(); }),
    Obj("run", Self<ScenarioSpec>(), kRunFields),
    Obj("network", &ScenarioSpec::network, kNetworkFields),
    List("zones", &ScenarioSpec::zones, ZoneTables()),
    List("nodes", &ScenarioSpec::nodes, NodeTables()),
    List("clients", &ScenarioSpec::clients, kClientFields),
    If(Obj("faults", &ScenarioSpec::faults, kFaultFields),
       [](const ScenarioSpec& spec) { return !spec.faults.plan.empty(); }),
    Obj("measure", &ScenarioSpec::measure, kMeasureFields));

}  // namespace

const char* QueryPatternName(QueryPattern pattern) {
  return kQueryPatterns.Name(pattern);
}

HostAddress SpecNodeAddress(const ScenarioSpec& spec, size_t node_index) {
  (void)spec;
  return static_cast<HostAddress>(0x0a000001u + node_index);
}

HostAddress SpecClientAddress(const ScenarioSpec& spec, size_t client_index) {
  return static_cast<HostAddress>(0x0a000001u + spec.nodes.size() + client_index);
}

// --- top-level parse / write ------------------------------------------------

bool ParseScenarioSpec(std::string_view json_text, ScenarioSpec* spec,
                       std::string* error) {
  *spec = ScenarioSpec();
  json::Value root;
  if (!json::Parse(json_text, &root, error)) {
    return false;
  }
  Ctx ctx;
  ctx.error = error;
  ReadObject(Input{root, "", ctx}, spec, kSpecFields);
  return ctx.ok;
}

bool LoadScenarioSpecFile(const std::string& path, ScenarioSpec* spec,
                          std::string* error) {
  std::string text;
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  if (f != stdin) {
    std::fclose(f);
  }
  if (!ParseScenarioSpec(text, spec, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

// --- validation / materialization --------------------------------------------

bool ValidateScenarioSpec(ScenarioSpec* spec, std::string* error) {
  Ctx ctx;
  ctx.error = error;

  if (spec->horizon <= 0) {
    return ctx.Fail("run.horizon", "must be > 0");
  }
  if (spec->network.loss_probability < 0 || spec->network.loss_probability > 1) {
    return ctx.Fail("network.loss_probability", "must be in [0, 1]");
  }
  if (spec->network.jitter < 0) {
    return ctx.Fail("network.jitter", "must be >= 0");
  }
  if (spec->network.jitter_seed == 0) {
    spec->network.jitter_seed = spec->seed * 13 + 1;
  }

  std::unordered_map<std::string, const ZoneSpec*> zones;
  for (size_t i = 0; i < spec->zones.size(); ++i) {
    ZoneSpec& zone = spec->zones[i];
    const std::string path = Idx("zones", i);
    if (zone.id.empty()) {
      return ctx.Fail(Sub(path, "id"), "required");
    }
    if (!zones.emplace(zone.id, &zone).second) {
      return ctx.Fail(Sub(path, "id"), "duplicate zone id '" + zone.id + "'");
    }
    if (!Name::Parse(zone.apex).has_value()) {
      return ctx.Fail(Sub(path, "apex"), "not a valid DNS name: '" + zone.apex + "'");
    }
  }
  for (size_t i = 0; i < spec->zones.size(); ++i) {
    ZoneSpec& zone = spec->zones[i];
    if (zone.kind != ZoneKind::kAttacker) {
      continue;
    }
    const std::string path = Idx("zones", i);
    auto it = zones.find(zone.target_zone);
    if (it == zones.end() || it->second->kind != ZoneKind::kTarget) {
      return ctx.Fail(Sub(path, "target_zone"),
                      "must reference a target-kind zone (got '" +
                          zone.target_zone + "')");
    }
    if (zone.attacker.instances <= 0) {
      // The default sizing: enough distinct instances that every FF request
      // misses the cache over the whole run.
      double ff_qps = 0;
      for (const ClientSpec& client : spec->clients) {
        if (client.pattern == QueryPattern::kFf && client.zone == zone.id) {
          ff_qps = std::max(ff_qps, client.qps);
        }
      }
      if (ff_qps <= 0) {
        zone.attacker.instances = AttackerZoneOptions().instances;
        continue;
      }
      // Sized in double: qps x horizon can pass what the int field holds,
      // and then the spec must set `instances` itself.
      const double sized = std::trunc(ff_qps * ToSeconds(spec->horizon)) + 8;
      if (sized > std::numeric_limits<int>::max()) {
        return ctx.Fail(Sub(path, "instances"),
                        "default sizing (FF qps x horizon + 8 = " +
                            json::Write(json::Value::OfNumber(sized)) +
                            ") exceeds " +
                            std::to_string(std::numeric_limits<int>::max()) +
                            "; set instances");
      }
      zone.attacker.instances = static_cast<int>(sized);
    }
  }

  // Materialize replicate-stamped fleet members before any id or address
  // bookkeeping. Generated member nodes are inserted immediately after their
  // frontend in `nodes` — the vector order IS the address assignment, so
  // member addresses are a pure function of spec order, never of map
  // iteration order. Zeroing `replicate` afterwards keeps validation
  // idempotent (the appended member ids make re-expansion a no-op).
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    if (spec->nodes[i].kind != NodeKind::kFrontend ||
        spec->nodes[i].replicate == 0) {
      continue;
    }
    const std::string path = Idx("nodes", i);
    NodeSpec& node = spec->nodes[i];
    if (node.replicate < 0 || node.replicate > kMaxReplicate) {
      return ctx.Fail(Sub(path, "replicate"),
                      "out of range [0, " + std::to_string(kMaxReplicate) + "]");
    }
    if (!node.has_member_template) {
      return ctx.Fail(Sub(path, "member_template"),
                      "required when replicate > 0");
    }
    const int replicate = node.replicate;
    std::vector<NodeSpec> generated;
    generated.reserve(static_cast<size_t>(replicate));
    for (int k = 0; k < replicate; ++k) {
      NodeSpec member;
      member.id = node.id + "-r" + std::to_string(k + 1);
      member.kind = NodeKind::kResolver;
      member.resolver = node.member_template.resolver;
      member.hints = node.member_template.hints;
      node.members.push_back(member.id);
      generated.push_back(std::move(member));
    }
    node.replicate = 0;
    // `node` is dead after this insert (possible reallocation).
    spec->nodes.insert(spec->nodes.begin() + static_cast<ptrdiff_t>(i) + 1,
                       std::make_move_iterator(generated.begin()),
                       std::make_move_iterator(generated.end()));
    i += static_cast<size_t>(replicate);
  }

  std::unordered_map<std::string, const NodeSpec*> nodes;
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    NodeSpec& node = spec->nodes[i];
    const std::string path = Idx("nodes", i);
    if (node.id.empty()) {
      return ctx.Fail(Sub(path, "id"), "required");
    }
    if (!nodes.emplace(node.id, &node).second) {
      return ctx.Fail(Sub(path, "id"), "duplicate node id '" + node.id + "'");
    }
    if (node.dcc_enabled && node.kind == NodeKind::kAuthoritative) {
      return ctx.Fail(Sub(path, "dcc"),
                      "DCC shims wrap resolvers and forwarders, not "
                      "authoritatives");
    }
  }
  // Reference checks (second pass: upstreams may point forward).
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    NodeSpec& node = spec->nodes[i];
    const std::string path = Idx("nodes", i);
    for (size_t z = 0; z < node.zones.size(); ++z) {
      if (zones.find(node.zones[z]) == zones.end()) {
        return ctx.Fail(Idx(Sub(path, "zones"), z),
                        "unknown zone '" + node.zones[z] + "'");
      }
    }
    for (size_t h = 0; h < node.hints.size(); ++h) {
      const AuthorityHintSpec& hint = node.hints[h];
      const std::string hint_path = Idx(Sub(path, "hints"), h);
      if (zones.find(hint.zone) == zones.end()) {
        return ctx.Fail(Sub(hint_path, "zone"), "unknown zone '" + hint.zone + "'");
      }
      auto it = nodes.find(hint.node);
      if (it == nodes.end() || it->second->kind != NodeKind::kAuthoritative) {
        return ctx.Fail(Sub(hint_path, "node"),
                        "must reference an auth node (got '" + hint.node + "')");
      }
    }
    for (size_t u = 0; u < node.upstreams.size(); ++u) {
      auto it = nodes.find(node.upstreams[u]);
      if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
        return ctx.Fail(Idx(Sub(path, "upstreams"), u),
                        "must reference a resolver or forwarder node (got '" +
                            node.upstreams[u] + "')");
      }
    }
    for (size_t c = 0; c < node.channels.size(); ++c) {
      if (nodes.find(node.channels[c].node) == nodes.end()) {
        return ctx.Fail(Idx(Sub(path, "channels"), c),
                        "unknown node '" + node.channels[c].node + "'");
      }
      if (node.channels[c].qps <= 0) {
        return ctx.Fail(Idx(Sub(path, "channels"), c), "qps must be > 0");
      }
    }
    if (node.kind == NodeKind::kForwarder && node.upstreams.empty()) {
      return ctx.Fail(Sub(path, "upstreams"), "a forwarder needs at least one upstream");
    }
    if (node.kind == NodeKind::kFrontend) {
      if (node.members.empty()) {
        return ctx.Fail(Sub(path, "members"),
                        "a frontend needs at least one fleet member");
      }
      for (size_t m = 0; m < node.members.size(); ++m) {
        auto it = nodes.find(node.members[m]);
        if (it == nodes.end() || (it->second->kind != NodeKind::kResolver &&
                                  it->second->kind != NodeKind::kForwarder)) {
          return ctx.Fail(Idx(Sub(path, "members"), m),
                          "must reference a resolver or forwarder node (got '" +
                              node.members[m] + "')");
        }
      }
      const std::string fpath = Sub(path, "frontend");
      FrontendConfig& fc = node.frontend;
      if (fc.max_attempts < 1) {
        return ctx.Fail(Sub(fpath, "max_attempts"), "must be >= 1");
      }
      if (fc.health_checks && fc.probe_interval <= 0) {
        return ctx.Fail(Sub(fpath, "probe_interval"),
                        "must be > 0 when health_checks is on");
      }
      if (fc.rotation_period < 0) {
        return ctx.Fail(Sub(fpath, "rotation_period"), "must be >= 0");
      }
      if (fc.rotation_active < 0 ||
          static_cast<size_t>(fc.rotation_active) > node.members.size()) {
        return ctx.Fail(Sub(fpath, "rotation_active"),
                        "must be in [0, member count]");
      }
      if (fc.probe_name.empty()) {
        // Default probe target: the in-bailiwick "ans.<apex>" A record every
        // target zone carries (cheap, cacheable at the member).
        for (const ZoneSpec& zone : spec->zones) {
          if (zone.kind == ZoneKind::kTarget) {
            fc.probe_name = "ans." + zone.apex;
            break;
          }
        }
      }
      if (fc.health_checks && !Name::Parse(fc.probe_name).has_value()) {
        return ctx.Fail(Sub(fpath, "probe_name"),
                        "not a valid DNS name: '" + fc.probe_name + "'");
      }
    }
  }

  std::unordered_map<std::string, size_t> client_labels;
  for (size_t i = 0; i < spec->clients.size(); ++i) {
    ClientSpec& client = spec->clients[i];
    const std::string path = Idx("clients", i);
    if (client.qps <= 0) {
      return ctx.Fail(Sub(path, "qps"), "must be > 0");
    }
    if (client.stop < 0) {
      client.stop = spec->horizon;
    }
    // stop <= start is allowed (the client simply never sends); callers
    // truncate schedules that way when shortening the horizon.
    if (client.ramp_to_qps < 0) {
      return ctx.Fail(Sub(path, "ramp_to_qps"), "must be >= 0");
    }
    if (!client.has_seed) {
      client.seed = spec->seed * 101 + i;
      client.has_seed = true;
    }
    if (client.resolvers.empty()) {
      return ctx.Fail(Sub(path, "resolvers"), "a client needs at least one entry point");
    }
    for (size_t e = 0; e < client.resolvers.size(); ++e) {
      auto it = nodes.find(client.resolvers[e]);
      if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
        return ctx.Fail(Idx(Sub(path, "resolvers"), e),
                        "must reference a resolver, forwarder or frontend "
                        "node (got '" + client.resolvers[e] + "')");
      }
    }
    auto zone_it = zones.find(client.zone);
    if (zone_it == zones.end()) {
      return ctx.Fail(Sub(path, "zone"), "unknown zone '" + client.zone + "'");
    }
    const ZoneKind want = client.pattern == QueryPattern::kFf
                              ? ZoneKind::kAttacker
                              : ZoneKind::kTarget;
    if (zone_it->second->kind != want) {
      return ctx.Fail(Sub(path, "zone"),
                      std::string("pattern '") + QueryPatternName(client.pattern) +
                          (want == ZoneKind::kAttacker
                               ? "' needs an attacker-kind zone"
                               : "' needs a target-kind zone"));
    }
    if (client.pattern == QueryPattern::kCq &&
        zone_it->second->target.cq_instances <= 0) {
      return ctx.Fail(Sub(path, "zone"),
                      "cq pattern needs a zone with cq_instances > 0");
    }
    if (!client.label.empty()) {
      client_labels.emplace(client.label, i);
    }
  }

  auto endpoint_known = [&](const std::string& id) {
    return nodes.find(id) != nodes.end() ||
           client_labels.find(id) != client_labels.end();
  };
  for (size_t i = 0; i < spec->network.pair_delays.size(); ++i) {
    PairDelaySpec& delay = spec->network.pair_delays[i];
    const std::string path = Idx("network.pair_delays", i);
    if (!endpoint_known(delay.a)) {
      return ctx.Fail(Sub(path, "a"), "unknown node or client label '" + delay.a + "'");
    }
    if (!endpoint_known(delay.b)) {
      return ctx.Fail(Sub(path, "b"), "unknown node or client label '" + delay.b + "'");
    }
    if (delay.one_way <= 0) {
      return ctx.Fail(Sub(path, "one_way"), "must be > 0");
    }
  }

  for (size_t i = 0; i < spec->measure.ans.size(); ++i) {
    AnsProbeSpec& probe = spec->measure.ans[i];
    const std::string path = Idx("measure.ans", i);
    auto it = nodes.find(probe.node);
    if (it == nodes.end() || it->second->kind != NodeKind::kAuthoritative) {
      return ctx.Fail(Sub(path, "node"),
                      "must reference an auth node (got '" + probe.node + "')");
    }
    if (probe.label.empty()) {
      probe.label = probe.node;
    }
  }
  for (size_t i = 0; i < spec->measure.resolver_series.size(); ++i) {
    auto it = nodes.find(spec->measure.resolver_series[i]);
    if (it == nodes.end() || it->second->kind != NodeKind::kResolver) {
      return ctx.Fail(Idx("measure.resolver_series", i),
                      "must reference a resolver node (got '" +
                          spec->measure.resolver_series[i] + "')");
    }
  }
  for (size_t i = 0; i < spec->measure.trackers.size(); ++i) {
    auto it = nodes.find(spec->measure.trackers[i]);
    if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
      return ctx.Fail(Idx("measure.trackers", i),
                      "must reference a resolver, forwarder or frontend node "
                      "(got '" + spec->measure.trackers[i] + "')");
    }
  }
  return true;
}


// --- serialization -----------------------------------------------------------

json::Value ScenarioSpecToJson(const ScenarioSpec& spec) {
  return WriteObject(spec, kSpecFields);
}

std::string WriteScenarioSpec(const ScenarioSpec& spec, int indent) {
  return json::Write(ScenarioSpecToJson(spec), indent) + "\n";
}

}  // namespace scenario
}  // namespace dcc
