#include "src/scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/dns/message.h"

namespace dcc {
namespace scenario {

const char* QueryPatternName(QueryPattern pattern) {
  switch (pattern) {
    case QueryPattern::kWc: return "wc";
    case QueryPattern::kNx: return "nx";
    case QueryPattern::kCq: return "cq";
    case QueryPattern::kFf: return "ff";
    case QueryPattern::kNxThenWc: return "nx_then_wc";
  }
  return "wc";
}

bool ParseQueryPatternName(const std::string& text, QueryPattern* out) {
  if (text == "wc") { *out = QueryPattern::kWc; return true; }
  if (text == "nx") { *out = QueryPattern::kNx; return true; }
  if (text == "cq") { *out = QueryPattern::kCq; return true; }
  if (text == "ff") { *out = QueryPattern::kFf; return true; }
  if (text == "nx_then_wc") { *out = QueryPattern::kNxThenWc; return true; }
  return false;
}

HostAddress SpecNodeAddress(const ScenarioSpec& spec, size_t node_index) {
  (void)spec;
  return static_cast<HostAddress>(0x0a000001u + node_index);
}

HostAddress SpecClientAddress(const ScenarioSpec& spec, size_t client_index) {
  return static_cast<HostAddress>(0x0a000001u + spec.nodes.size() + client_index);
}

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

// Typed accessors over one JSON object, reporting path-qualified errors and
// rejecting unknown keys (so typos surface instead of silently applying
// defaults).
class ObjReader {
 public:
  ObjReader(const json::Value& value, std::string path, Ctx& ctx)
      : value_(value), path_(std::move(path)), ctx_(ctx) {
    if (!value_.is_object()) {
      ctx_.Fail(path_, "expected an object");
    }
  }

  bool ok() const { return ctx_.ok; }
  const std::string& path() const { return path_; }

  void AllowKeys(std::initializer_list<const char*> keys) {
    if (!value_.is_object()) {
      return;
    }
    for (const auto& [key, unused] : value_.AsObject()) {
      (void)unused;
      bool known = false;
      for (const char* allowed : keys) {
        if (key == allowed) {
          known = true;
          break;
        }
      }
      if (!known) {
        ctx_.Fail(Sub(path_, key), "unknown key");
        return;
      }
    }
  }

  bool Has(const char* key) const { return value_.Find(key) != nullptr; }

  double Num(const char* key, double fallback) {
    const json::Value* v = value_.Find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_number()) {
      ctx_.Fail(Sub(path_, key), "expected a number");
      return fallback;
    }
    return v->AsNumber();
  }

  int Int(const char* key, int fallback) {
    return static_cast<int>(Num(key, fallback));
  }

  uint64_t U64(const char* key, uint64_t fallback) {
    const double n = Num(key, static_cast<double>(fallback));
    if (n < 0) {
      ctx_.Fail(Sub(path_, key), "expected a non-negative integer");
      return fallback;
    }
    return static_cast<uint64_t>(n);
  }

  // Durations are numbers in (virtual) seconds.
  Duration Secs(const char* key, Duration fallback) {
    const json::Value* v = value_.Find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_number()) {
      ctx_.Fail(Sub(path_, key), "expected a duration in seconds");
      return fallback;
    }
    return static_cast<Duration>(std::llround(v->AsNumber() * 1e6));
  }

  bool Bool(const char* key, bool fallback) {
    const json::Value* v = value_.Find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_bool()) {
      ctx_.Fail(Sub(path_, key), "expected true or false");
      return fallback;
    }
    return v->AsBool();
  }

  std::string Str(const char* key, const std::string& fallback) {
    const json::Value* v = value_.Find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_string()) {
      ctx_.Fail(Sub(path_, key), "expected a string");
      return fallback;
    }
    return v->AsString();
  }

  // Returns the array value for `key`, or nullptr when absent.
  const json::Value* Arr(const char* key) {
    const json::Value* v = value_.Find(key);
    if (v != nullptr && !v->is_array()) {
      ctx_.Fail(Sub(path_, key), "expected an array");
      return nullptr;
    }
    return v;
  }

  const json::Value* Obj(const char* key) {
    const json::Value* v = value_.Find(key);
    if (v != nullptr && !v->is_object()) {
      ctx_.Fail(Sub(path_, key), "expected an object");
      return nullptr;
    }
    return v;
  }

  std::vector<std::string> StrList(const char* key) {
    std::vector<std::string> out;
    const json::Value* arr = Arr(key);
    if (arr == nullptr) {
      return out;
    }
    for (size_t i = 0; i < arr->AsArray().size(); ++i) {
      const json::Value& item = arr->AsArray()[i];
      if (!item.is_string()) {
        ctx_.Fail(Idx(Sub(path_, key), i), "expected a string");
        return out;
      }
      out.push_back(item.AsString());
    }
    return out;
  }

 private:
  const json::Value& value_;
  std::string path_;
  Ctx& ctx_;
};

// --- JSON writer helpers ----------------------------------------------------

json::Value Num(double n) { return json::Value::OfNumber(n); }
json::Value Str(std::string s) { return json::Value::OfString(std::move(s)); }
json::Value Boolean(bool b) { return json::Value::OfBool(b); }
json::Value Secs(Duration d) { return Num(ToSeconds(d)); }

// --- config <-> JSON --------------------------------------------------------

const char* RateLimitActionName(RateLimitAction action) {
  switch (action) {
    case RateLimitAction::kDrop: return "drop";
    case RateLimitAction::kServFail: return "servfail";
    case RateLimitAction::kRefused: return "refused";
  }
  return "drop";
}

json::Value RrlToJson(const ResponseRateLimitConfig& rrl) {
  json::Value out = json::Value::MakeObject();
  out.Set("enabled", Boolean(rrl.enabled));
  out.Set("noerror_qps", Num(rrl.noerror_qps));
  out.Set("nxdomain_qps", Num(rrl.nxdomain_qps));
  out.Set("burst", Num(rrl.burst));
  out.Set("action", Str(RateLimitActionName(rrl.action)));
  out.Set("per_class", Boolean(rrl.per_class));
  out.Set("penalty", Secs(rrl.penalty));
  return out;
}

void RrlFromJson(const json::Value& value, const std::string& path, Ctx& ctx,
                 ResponseRateLimitConfig* rrl) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"enabled", "noerror_qps", "nxdomain_qps", "burst", "action",
               "per_class", "penalty"});
  rrl->enabled = r.Bool("enabled", rrl->enabled);
  rrl->noerror_qps = r.Num("noerror_qps", rrl->noerror_qps);
  rrl->nxdomain_qps = r.Num("nxdomain_qps", rrl->nxdomain_qps);
  rrl->burst = r.Num("burst", rrl->burst);
  rrl->per_class = r.Bool("per_class", rrl->per_class);
  rrl->penalty = r.Secs("penalty", rrl->penalty);
  const std::string action = r.Str("action", RateLimitActionName(rrl->action));
  if (action == "drop") {
    rrl->action = RateLimitAction::kDrop;
  } else if (action == "servfail") {
    rrl->action = RateLimitAction::kServFail;
  } else if (action == "refused") {
    rrl->action = RateLimitAction::kRefused;
  } else {
    ctx.Fail(Sub(path, "action"), "unknown action '" + action +
                                      "' (drop|servfail|refused)");
  }
}

json::Value AuthConfigToJson(const AuthoritativeConfig& config) {
  json::Value out = json::Value::MakeObject();
  out.Set("rrl", RrlToJson(config.rrl));
  out.Set("processing_delay", Secs(config.processing_delay));
  return out;
}

void AuthConfigFromJson(const json::Value& value, const std::string& path,
                        Ctx& ctx, AuthoritativeConfig* config) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"rrl", "processing_delay"});
  if (const json::Value* rrl = r.Obj("rrl"); rrl != nullptr) {
    RrlFromJson(*rrl, Sub(path, "rrl"), ctx, &config->rrl);
  }
  config->processing_delay = r.Secs("processing_delay", config->processing_delay);
}

json::Value ResolverConfigToJson(const ResolverConfig& config) {
  json::Value out = json::Value::MakeObject();
  out.Set("upstream_timeout", Secs(config.upstream_timeout));
  out.Set("upstream_retries", Num(config.upstream_retries));
  out.Set("request_deadline", Secs(config.request_deadline));
  out.Set("max_fetches_per_request", Num(config.max_fetches_per_request));
  out.Set("qname_minimization", Boolean(config.qname_minimization));
  out.Set("aggressive_nsec", Boolean(config.aggressive_nsec));
  out.Set("attach_attribution", Boolean(config.attach_attribution));
  out.Set("ingress_rrl", RrlToJson(config.ingress_rrl));
  out.Set("egress_rl_enabled", Boolean(config.egress_rl_enabled));
  out.Set("egress_qps", Num(config.egress_qps));
  out.Set("egress_burst", Num(config.egress_burst));
  out.Set("adaptive_retry", Boolean(config.adaptive_retry));
  out.Set("serve_stale", Boolean(config.serve_stale));
  out.Set("max_stale", Secs(config.max_stale));
  out.Set("stale_answer_ttl", Num(config.stale_answer_ttl));
  return out;
}

void ResolverConfigFromJson(const json::Value& value, const std::string& path,
                            Ctx& ctx, ResolverConfig* config) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"upstream_timeout", "upstream_retries", "request_deadline",
               "max_fetches_per_request", "qname_minimization",
               "aggressive_nsec", "attach_attribution", "ingress_rrl",
               "egress_rl_enabled", "egress_qps", "egress_burst",
               "adaptive_retry", "serve_stale", "max_stale",
               "stale_answer_ttl"});
  config->upstream_timeout = r.Secs("upstream_timeout", config->upstream_timeout);
  config->upstream_retries = r.Int("upstream_retries", config->upstream_retries);
  config->request_deadline = r.Secs("request_deadline", config->request_deadline);
  config->max_fetches_per_request =
      r.Int("max_fetches_per_request", config->max_fetches_per_request);
  config->qname_minimization =
      r.Bool("qname_minimization", config->qname_minimization);
  config->aggressive_nsec = r.Bool("aggressive_nsec", config->aggressive_nsec);
  config->attach_attribution =
      r.Bool("attach_attribution", config->attach_attribution);
  if (const json::Value* rrl = r.Obj("ingress_rrl"); rrl != nullptr) {
    RrlFromJson(*rrl, Sub(path, "ingress_rrl"), ctx, &config->ingress_rrl);
  }
  config->egress_rl_enabled = r.Bool("egress_rl_enabled", config->egress_rl_enabled);
  config->egress_qps = r.Num("egress_qps", config->egress_qps);
  config->egress_burst = r.Num("egress_burst", config->egress_burst);
  config->adaptive_retry = r.Bool("adaptive_retry", config->adaptive_retry);
  config->serve_stale = r.Bool("serve_stale", config->serve_stale);
  config->max_stale = r.Secs("max_stale", config->max_stale);
  config->stale_answer_ttl =
      static_cast<uint32_t>(r.Num("stale_answer_ttl", config->stale_answer_ttl));
}

json::Value ForwarderConfigToJson(const ForwarderConfig& config) {
  json::Value out = json::Value::MakeObject();
  out.Set("upstream_timeout", Secs(config.upstream_timeout));
  out.Set("upstream_attempts", Num(config.upstream_attempts));
  out.Set("cache_enabled", Boolean(config.cache_enabled));
  out.Set("attach_attribution", Boolean(config.attach_attribution));
  out.Set("adaptive_retry", Boolean(config.adaptive_retry));
  out.Set("serve_stale", Boolean(config.serve_stale));
  out.Set("max_stale", Secs(config.max_stale));
  out.Set("stale_answer_ttl", Num(config.stale_answer_ttl));
  return out;
}

void ForwarderConfigFromJson(const json::Value& value, const std::string& path,
                             Ctx& ctx, ForwarderConfig* config) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"upstream_timeout", "upstream_attempts", "cache_enabled",
               "attach_attribution", "adaptive_retry", "serve_stale",
               "max_stale", "stale_answer_ttl"});
  config->upstream_timeout = r.Secs("upstream_timeout", config->upstream_timeout);
  config->upstream_attempts = r.Int("upstream_attempts", config->upstream_attempts);
  config->cache_enabled = r.Bool("cache_enabled", config->cache_enabled);
  config->attach_attribution =
      r.Bool("attach_attribution", config->attach_attribution);
  config->adaptive_retry = r.Bool("adaptive_retry", config->adaptive_retry);
  config->serve_stale = r.Bool("serve_stale", config->serve_stale);
  config->max_stale = r.Secs("max_stale", config->max_stale);
  config->stale_answer_ttl =
      static_cast<uint32_t>(r.Num("stale_answer_ttl", config->stale_answer_ttl));
}

json::Value FrontendConfigToJson(const FrontendConfig& config) {
  json::Value out = json::Value::MakeObject();
  out.Set("steering", Str(SteeringPolicyName(config.steering)));
  out.Set("processing_delay", Secs(config.processing_delay));
  out.Set("max_attempts", Num(config.max_attempts));
  out.Set("query_timeout", Secs(config.query_timeout));
  out.Set("retry_backoff_factor", Num(config.retry_backoff_factor));
  out.Set("retry_backoff_max", Secs(config.retry_backoff_max));
  out.Set("retry_jitter", Num(config.retry_jitter));
  out.Set("health_checks", Boolean(config.health_checks));
  out.Set("probe_interval", Secs(config.probe_interval));
  out.Set("probe_name", Str(config.probe_name));
  out.Set("probe_timeout", Secs(config.probe_timeout));
  out.Set("resteer_budget_qps", Num(config.resteer_budget_qps));
  out.Set("resteer_budget_burst", Num(config.resteer_budget_burst));
  out.Set("rotation_period", Secs(config.rotation_period));
  out.Set("rotation_active", Num(config.rotation_active));
  out.Set("attach_attribution", Boolean(config.attach_attribution));
  out.Set("holddown_after", Num(config.upstream.holddown_after));
  out.Set("holddown_initial", Secs(config.upstream.holddown_initial));
  out.Set("holddown_max", Secs(config.upstream.holddown_max));
  out.Set("min_rto", Secs(config.upstream.min_rto));
  return out;
}

void FrontendConfigFromJson(const json::Value& value, const std::string& path,
                            Ctx& ctx, FrontendConfig* config) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"steering", "processing_delay", "max_attempts", "query_timeout",
               "retry_backoff_factor", "retry_backoff_max", "retry_jitter",
               "health_checks", "probe_interval", "probe_name",
               "probe_timeout", "resteer_budget_qps", "resteer_budget_burst",
               "rotation_period", "rotation_active", "attach_attribution",
               "holddown_after", "holddown_initial", "holddown_max",
               "min_rto"});
  const std::string steering = r.Str("steering", SteeringPolicyName(config->steering));
  if (!ParseSteeringPolicyName(steering, &config->steering)) {
    ctx.Fail(Sub(path, "steering"),
             "unknown steering policy '" + steering +
                 "' (consistent_hash|least_loaded|round_robin)");
    return;
  }
  config->processing_delay = r.Secs("processing_delay", config->processing_delay);
  config->max_attempts = r.Int("max_attempts", config->max_attempts);
  config->query_timeout = r.Secs("query_timeout", config->query_timeout);
  config->retry_backoff_factor =
      r.Num("retry_backoff_factor", config->retry_backoff_factor);
  config->retry_backoff_max = r.Secs("retry_backoff_max", config->retry_backoff_max);
  config->retry_jitter = r.Num("retry_jitter", config->retry_jitter);
  config->health_checks = r.Bool("health_checks", config->health_checks);
  config->probe_interval = r.Secs("probe_interval", config->probe_interval);
  config->probe_name = r.Str("probe_name", config->probe_name);
  config->probe_timeout = r.Secs("probe_timeout", config->probe_timeout);
  config->resteer_budget_qps =
      r.Num("resteer_budget_qps", config->resteer_budget_qps);
  config->resteer_budget_burst =
      r.Num("resteer_budget_burst", config->resteer_budget_burst);
  config->rotation_period = r.Secs("rotation_period", config->rotation_period);
  config->rotation_active = r.Int("rotation_active", config->rotation_active);
  config->attach_attribution =
      r.Bool("attach_attribution", config->attach_attribution);
  config->upstream.holddown_after =
      r.Int("holddown_after", config->upstream.holddown_after);
  config->upstream.holddown_initial =
      r.Secs("holddown_initial", config->upstream.holddown_initial);
  config->upstream.holddown_max =
      r.Secs("holddown_max", config->upstream.holddown_max);
  config->upstream.min_rto = r.Secs("min_rto", config->upstream.min_rto);
}

const char* SignalPolicyName(PolicyType type) {
  switch (type) {
    case PolicyType::kNone: return "none";
    case PolicyType::kRateLimit: return "ratelimit";
    case PolicyType::kBlock: return "block";
  }
  return "block";
}

json::Value DccConfigToJson(const DccConfig& config) {
  json::Value scheduler = json::Value::MakeObject();
  scheduler.Set("pool_capacity", Num(static_cast<double>(config.scheduler.pool_capacity)));
  scheduler.Set("max_poq_depth", Num(config.scheduler.max_poq_depth));
  scheduler.Set("max_rounds", Num(config.scheduler.max_rounds));
  scheduler.Set("default_channel_qps", Num(config.scheduler.default_channel_qps));
  scheduler.Set("channel_burst", Num(config.scheduler.channel_burst));

  json::Value anomaly = json::Value::MakeObject();
  anomaly.Set("window", Secs(config.anomaly.window));
  anomaly.Set("window_buckets", Num(config.anomaly.window_buckets));
  anomaly.Set("nx_ratio_threshold", Num(config.anomaly.nx_ratio_threshold));
  anomaly.Set("nx_min_responses", Num(static_cast<double>(config.anomaly.nx_min_responses)));
  anomaly.Set("amplification_threshold", Num(config.anomaly.amplification_threshold));
  anomaly.Set("amp_min_requests", Num(static_cast<double>(config.anomaly.amp_min_requests)));
  anomaly.Set("alarms_to_convict", Num(config.anomaly.alarms_to_convict));
  anomaly.Set("suspicion_period", Secs(config.anomaly.suspicion_period));

  json::Value capacity = json::Value::MakeObject();
  capacity.Set("enabled", Boolean(config.capacity.enabled));
  capacity.Set("initial_qps", Num(config.capacity.initial_qps));
  capacity.Set("min_qps", Num(config.capacity.min_qps));
  capacity.Set("max_qps", Num(config.capacity.max_qps));
  capacity.Set("loss_threshold", Num(config.capacity.loss_threshold));
  capacity.Set("decrease_factor", Num(config.capacity.decrease_factor));
  capacity.Set("increase_qps", Num(config.capacity.increase_qps));
  capacity.Set("utilization_threshold", Num(config.capacity.utilization_threshold));
  capacity.Set("min_samples", Num(static_cast<double>(config.capacity.min_samples)));
  capacity.Set("window", Secs(config.capacity.window));

  json::Value out = json::Value::MakeObject();
  out.Set("scheduler", std::move(scheduler));
  out.Set("anomaly", std::move(anomaly));
  out.Set("capacity", std::move(capacity));
  out.Set("signaling_enabled", Boolean(config.signaling_enabled));
  out.Set("countdown_police_threshold", Num(config.countdown_police_threshold));
  out.Set("countdown_relay_decrement", Num(config.countdown_relay_decrement));
  out.Set("nx_policy_qps", Num(config.nx_policy_qps));
  out.Set("nx_policy_duration", Secs(config.nx_policy_duration));
  out.Set("amp_policy_duration", Secs(config.amp_policy_duration));
  out.Set("signal_policy", Str(SignalPolicyName(config.signal_policy)));
  out.Set("signal_policy_duration", Secs(config.signal_policy_duration));
  out.Set("emit_extended_errors", Boolean(config.emit_extended_errors));
  out.Set("client_prefix_bits", Num(config.client_prefix_bits));
  out.Set("purge_interval", Secs(config.purge_interval));
  out.Set("state_idle_timeout", Secs(config.state_idle_timeout));
  out.Set("pending_query_ttl", Secs(config.pending_query_ttl));
  return out;
}

void DccConfigFromJson(const json::Value& value, const std::string& path,
                       Ctx& ctx, DccConfig* config) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"scheduler", "anomaly", "capacity", "signaling_enabled",
               "countdown_police_threshold", "countdown_relay_decrement",
               "nx_policy_qps", "nx_policy_duration", "amp_policy_duration",
               "signal_policy", "signal_policy_duration",
               "emit_extended_errors", "client_prefix_bits", "purge_interval",
               "state_idle_timeout", "pending_query_ttl"});
  if (const json::Value* sched = r.Obj("scheduler"); sched != nullptr) {
    const std::string sub = Sub(path, "scheduler");
    ObjReader s(*sched, sub, ctx);
    s.AllowKeys({"pool_capacity", "max_poq_depth", "max_rounds",
                 "default_channel_qps", "channel_burst"});
    config->scheduler.pool_capacity = static_cast<size_t>(
        s.Num("pool_capacity", static_cast<double>(config->scheduler.pool_capacity)));
    config->scheduler.max_poq_depth =
        s.Int("max_poq_depth", config->scheduler.max_poq_depth);
    config->scheduler.max_rounds = s.Int("max_rounds", config->scheduler.max_rounds);
    config->scheduler.default_channel_qps =
        s.Num("default_channel_qps", config->scheduler.default_channel_qps);
    config->scheduler.channel_burst =
        s.Num("channel_burst", config->scheduler.channel_burst);
  }
  if (const json::Value* anomaly = r.Obj("anomaly"); anomaly != nullptr) {
    const std::string sub = Sub(path, "anomaly");
    ObjReader a(*anomaly, sub, ctx);
    a.AllowKeys({"window", "window_buckets", "nx_ratio_threshold",
                 "nx_min_responses", "amplification_threshold",
                 "amp_min_requests", "alarms_to_convict", "suspicion_period"});
    config->anomaly.window = a.Secs("window", config->anomaly.window);
    config->anomaly.window_buckets =
        a.Int("window_buckets", config->anomaly.window_buckets);
    config->anomaly.nx_ratio_threshold =
        a.Num("nx_ratio_threshold", config->anomaly.nx_ratio_threshold);
    config->anomaly.nx_min_responses = static_cast<int64_t>(
        a.Num("nx_min_responses", static_cast<double>(config->anomaly.nx_min_responses)));
    config->anomaly.amplification_threshold =
        a.Num("amplification_threshold", config->anomaly.amplification_threshold);
    config->anomaly.amp_min_requests = static_cast<int64_t>(
        a.Num("amp_min_requests", static_cast<double>(config->anomaly.amp_min_requests)));
    config->anomaly.alarms_to_convict =
        a.Int("alarms_to_convict", config->anomaly.alarms_to_convict);
    config->anomaly.suspicion_period =
        a.Secs("suspicion_period", config->anomaly.suspicion_period);
  }
  if (const json::Value* capacity = r.Obj("capacity"); capacity != nullptr) {
    const std::string sub = Sub(path, "capacity");
    ObjReader c(*capacity, sub, ctx);
    c.AllowKeys({"enabled", "initial_qps", "min_qps", "max_qps",
                 "loss_threshold", "decrease_factor", "increase_qps",
                 "utilization_threshold", "min_samples", "window"});
    config->capacity.enabled = c.Bool("enabled", config->capacity.enabled);
    config->capacity.initial_qps = c.Num("initial_qps", config->capacity.initial_qps);
    config->capacity.min_qps = c.Num("min_qps", config->capacity.min_qps);
    config->capacity.max_qps = c.Num("max_qps", config->capacity.max_qps);
    config->capacity.loss_threshold =
        c.Num("loss_threshold", config->capacity.loss_threshold);
    config->capacity.decrease_factor =
        c.Num("decrease_factor", config->capacity.decrease_factor);
    config->capacity.increase_qps =
        c.Num("increase_qps", config->capacity.increase_qps);
    config->capacity.utilization_threshold =
        c.Num("utilization_threshold", config->capacity.utilization_threshold);
    config->capacity.min_samples = static_cast<int64_t>(
        c.Num("min_samples", static_cast<double>(config->capacity.min_samples)));
    config->capacity.window = c.Secs("window", config->capacity.window);
  }
  config->signaling_enabled = r.Bool("signaling_enabled", config->signaling_enabled);
  config->countdown_police_threshold =
      r.Int("countdown_police_threshold", config->countdown_police_threshold);
  config->countdown_relay_decrement = static_cast<uint16_t>(
      r.Num("countdown_relay_decrement", config->countdown_relay_decrement));
  config->nx_policy_qps = r.Num("nx_policy_qps", config->nx_policy_qps);
  config->nx_policy_duration = r.Secs("nx_policy_duration", config->nx_policy_duration);
  config->amp_policy_duration =
      r.Secs("amp_policy_duration", config->amp_policy_duration);
  const std::string policy = r.Str("signal_policy", SignalPolicyName(config->signal_policy));
  if (policy == "none") {
    config->signal_policy = PolicyType::kNone;
  } else if (policy == "ratelimit") {
    config->signal_policy = PolicyType::kRateLimit;
  } else if (policy == "block") {
    config->signal_policy = PolicyType::kBlock;
  } else {
    ctx.Fail(Sub(path, "signal_policy"),
             "unknown policy '" + policy + "' (none|ratelimit|block)");
  }
  config->signal_policy_duration =
      r.Secs("signal_policy_duration", config->signal_policy_duration);
  config->emit_extended_errors =
      r.Bool("emit_extended_errors", config->emit_extended_errors);
  config->client_prefix_bits = r.Int("client_prefix_bits", config->client_prefix_bits);
  config->purge_interval = r.Secs("purge_interval", config->purge_interval);
  config->state_idle_timeout = r.Secs("state_idle_timeout", config->state_idle_timeout);
  config->pending_query_ttl = r.Secs("pending_query_ttl", config->pending_query_ttl);
}

// --- zones ------------------------------------------------------------------

json::Value ZoneToJson(const ZoneSpec& zone) {
  json::Value out = json::Value::MakeObject();
  out.Set("id", Str(zone.id));
  out.Set("apex", Str(zone.apex));
  if (zone.kind == ZoneKind::kTarget) {
    out.Set("kind", Str("target"));
    out.Set("ttl", Num(zone.target.ttl));
    out.Set("cq_instances", Num(zone.target.cq_instances));
    out.Set("cq_chain_length", Num(zone.target.cq_chain_length));
    out.Set("cq_labels", Num(zone.target.cq_labels));
  } else {
    out.Set("kind", Str("attacker"));
    out.Set("ttl", Num(zone.attacker.ttl));
    out.Set("target_zone", Str(zone.target_zone));
    out.Set("instances", Num(zone.attacker.instances));
    out.Set("fanout_a", Num(zone.attacker.fanout_a));
    out.Set("fanout_t", Num(zone.attacker.fanout_t));
  }
  return out;
}

void ZoneFromJson(const json::Value& value, const std::string& path, Ctx& ctx,
                  ZoneSpec* zone) {
  ObjReader r(value, path, ctx);
  const std::string kind = r.Str("kind", "target");
  if (kind == "target") {
    zone->kind = ZoneKind::kTarget;
    r.AllowKeys({"id", "kind", "apex", "ttl", "cq_instances",
                 "cq_chain_length", "cq_labels"});
    zone->target.ttl = static_cast<uint32_t>(r.Num("ttl", zone->target.ttl));
    zone->target.cq_instances = r.Int("cq_instances", zone->target.cq_instances);
    zone->target.cq_chain_length =
        r.Int("cq_chain_length", zone->target.cq_chain_length);
    zone->target.cq_labels = r.Int("cq_labels", zone->target.cq_labels);
  } else if (kind == "attacker") {
    zone->kind = ZoneKind::kAttacker;
    r.AllowKeys({"id", "kind", "apex", "ttl", "target_zone", "instances",
                 "fanout_a", "fanout_t"});
    zone->attacker.ttl = static_cast<uint32_t>(r.Num("ttl", zone->attacker.ttl));
    zone->target_zone = r.Str("target_zone", "");
    // Absent/<= 0 is "derive from the FF workload" (see ValidateScenarioSpec).
    zone->attacker.instances =
        r.Has("instances") ? r.Int("instances", 0) : 0;
    zone->attacker.fanout_a = r.Int("fanout_a", zone->attacker.fanout_a);
    zone->attacker.fanout_t = r.Int("fanout_t", zone->attacker.fanout_t);
  } else {
    ctx.Fail(Sub(path, "kind"), "unknown zone kind '" + kind + "' (target|attacker)");
    return;
  }
  zone->id = r.Str("id", "");
  zone->apex = r.Str("apex", "");
}

// --- nodes ------------------------------------------------------------------

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kAuthoritative: return "auth";
    case NodeKind::kResolver: return "resolver";
    case NodeKind::kForwarder: return "forwarder";
    case NodeKind::kFrontend: return "frontend";
  }
  return "auth";
}

json::Value HintsToJson(const std::vector<AuthorityHintSpec>& hints) {
  json::Value out = json::Value::MakeArray();
  for (const AuthorityHintSpec& hint : hints) {
    json::Value h = json::Value::MakeObject();
    h.Set("zone", Str(hint.zone));
    h.Set("node", Str(hint.node));
    out.PushBack(std::move(h));
  }
  return out;
}

void HintsFromJson(const json::Value* hints, const std::string& path, Ctx& ctx,
                   std::vector<AuthorityHintSpec>* out) {
  if (hints == nullptr) {
    return;
  }
  for (size_t i = 0; i < hints->AsArray().size(); ++i) {
    const std::string hint_path = Idx(path, i);
    ObjReader h(hints->AsArray()[i], hint_path, ctx);
    h.AllowKeys({"zone", "node"});
    AuthorityHintSpec hint;
    hint.zone = h.Str("zone", "");
    hint.node = h.Str("node", "");
    out->push_back(std::move(hint));
  }
}

json::Value NodeToJson(const NodeSpec& node) {
  json::Value out = json::Value::MakeObject();
  out.Set("id", Str(node.id));
  out.Set("kind", Str(NodeKindName(node.kind)));
  switch (node.kind) {
    case NodeKind::kAuthoritative: {
      json::Value zones = json::Value::MakeArray();
      for (const std::string& zone : node.zones) {
        zones.PushBack(Str(zone));
      }
      out.Set("zones", std::move(zones));
      out.Set("auth", AuthConfigToJson(node.auth));
      break;
    }
    case NodeKind::kResolver: {
      out.Set("resolver", ResolverConfigToJson(node.resolver));
      out.Set("hints", HintsToJson(node.hints));
      break;
    }
    case NodeKind::kForwarder: {
      out.Set("forwarder", ForwarderConfigToJson(node.forwarder));
      json::Value upstreams = json::Value::MakeArray();
      for (const std::string& upstream : node.upstreams) {
        upstreams.PushBack(Str(upstream));
      }
      out.Set("upstreams", std::move(upstreams));
      break;
    }
    case NodeKind::kFrontend: {
      out.Set("frontend", FrontendConfigToJson(node.frontend));
      json::Value members = json::Value::MakeArray();
      for (const std::string& member : node.members) {
        members.PushBack(Str(member));
      }
      out.Set("members", std::move(members));
      if (node.replicate > 0) {
        out.Set("replicate", Num(node.replicate));
      }
      if (node.has_member_template) {
        json::Value tmpl = json::Value::MakeObject();
        tmpl.Set("resolver", ResolverConfigToJson(node.member_template.resolver));
        tmpl.Set("hints", HintsToJson(node.member_template.hints));
        out.Set("member_template", std::move(tmpl));
      }
      break;
    }
  }
  if (node.dcc_enabled) {
    out.Set("dcc", DccConfigToJson(node.dcc));
    json::Value channels = json::Value::MakeArray();
    for (const ChannelSpec& channel : node.channels) {
      json::Value c = json::Value::MakeObject();
      c.Set("node", Str(channel.node));
      c.Set("qps", Num(channel.qps));
      channels.PushBack(std::move(c));
    }
    out.Set("channels", std::move(channels));
  }
  return out;
}

void NodeFromJson(const json::Value& value, const std::string& path, Ctx& ctx,
                  NodeSpec* node) {
  ObjReader r(value, path, ctx);
  node->id = r.Str("id", "");
  const std::string kind = r.Str("kind", "");
  if (kind == "auth") {
    node->kind = NodeKind::kAuthoritative;
    r.AllowKeys({"id", "kind", "zones", "auth"});
    node->zones = r.StrList("zones");
    if (const json::Value* cfg = r.Obj("auth"); cfg != nullptr) {
      AuthConfigFromJson(*cfg, Sub(path, "auth"), ctx, &node->auth);
    }
    return;
  }
  if (kind == "resolver") {
    node->kind = NodeKind::kResolver;
    r.AllowKeys({"id", "kind", "resolver", "hints", "dcc", "channels"});
    if (const json::Value* cfg = r.Obj("resolver"); cfg != nullptr) {
      ResolverConfigFromJson(*cfg, Sub(path, "resolver"), ctx, &node->resolver);
    }
    HintsFromJson(r.Arr("hints"), Sub(path, "hints"), ctx, &node->hints);
  } else if (kind == "forwarder") {
    node->kind = NodeKind::kForwarder;
    r.AllowKeys({"id", "kind", "forwarder", "upstreams", "dcc", "channels"});
    if (const json::Value* cfg = r.Obj("forwarder"); cfg != nullptr) {
      ForwarderConfigFromJson(*cfg, Sub(path, "forwarder"), ctx, &node->forwarder);
    }
    node->upstreams = r.StrList("upstreams");
  } else if (kind == "frontend") {
    node->kind = NodeKind::kFrontend;
    r.AllowKeys({"id", "kind", "frontend", "members", "replicate",
                 "member_template"});
    if (const json::Value* cfg = r.Obj("frontend"); cfg != nullptr) {
      FrontendConfigFromJson(*cfg, Sub(path, "frontend"), ctx, &node->frontend);
    }
    node->members = r.StrList("members");
    node->replicate = r.Int("replicate", 0);
    if (const json::Value* tmpl = r.Obj("member_template"); tmpl != nullptr) {
      node->has_member_template = true;
      const std::string tmpl_path = Sub(path, "member_template");
      ObjReader t(*tmpl, tmpl_path, ctx);
      t.AllowKeys({"resolver", "hints"});
      if (const json::Value* cfg = t.Obj("resolver"); cfg != nullptr) {
        ResolverConfigFromJson(*cfg, Sub(tmpl_path, "resolver"), ctx,
                               &node->member_template.resolver);
      }
      HintsFromJson(t.Arr("hints"), Sub(tmpl_path, "hints"), ctx,
                    &node->member_template.hints);
    }
    return;
  } else {
    ctx.Fail(Sub(path, "kind"),
             "unknown node kind '" + kind +
                 "' (auth|resolver|forwarder|frontend)");
    return;
  }
  if (const json::Value* dcc = r.Obj("dcc"); dcc != nullptr) {
    node->dcc_enabled = true;
    DccConfigFromJson(*dcc, Sub(path, "dcc"), ctx, &node->dcc);
  }
  if (const json::Value* channels = r.Arr("channels"); channels != nullptr) {
    for (size_t i = 0; i < channels->AsArray().size(); ++i) {
      const std::string channel_path = Idx(Sub(path, "channels"), i);
      ObjReader c(channels->AsArray()[i], channel_path, ctx);
      c.AllowKeys({"node", "qps"});
      ChannelSpec channel;
      channel.node = c.Str("node", "");
      channel.qps = c.Num("qps", 0);
      node->channels.push_back(std::move(channel));
    }
  }
}

// --- clients ----------------------------------------------------------------

json::Value ClientToJson(const ClientSpec& client) {
  json::Value out = json::Value::MakeObject();
  out.Set("label", Str(client.label));
  out.Set("qps", Num(client.qps));
  out.Set("start", Secs(client.start));
  out.Set("stop", Secs(client.stop));
  out.Set("timeout", Secs(client.timeout));
  out.Set("retries", Num(client.retries));
  out.Set("dcc_aware", Boolean(client.dcc_aware));
  out.Set("rotate_resolvers", Boolean(client.rotate_resolvers));
  out.Set("attacker", Boolean(client.is_attacker));
  out.Set("pattern", Str(QueryPatternName(client.pattern)));
  out.Set("zone", Str(client.zone));
  if (client.has_seed) {
    out.Set("seed", Num(static_cast<double>(client.seed)));
  }
  if (client.unique_names != 0) {
    out.Set("unique_names", Num(static_cast<double>(client.unique_names)));
  }
  if (client.pattern == QueryPattern::kNxThenWc) {
    out.Set("nx_then_wc_switch", Secs(client.nx_then_wc_switch));
  }
  if (client.ramp_to_qps > 0) {
    out.Set("ramp_to_qps", Num(client.ramp_to_qps));
  }
  json::Value resolvers = json::Value::MakeArray();
  for (const std::string& resolver : client.resolvers) {
    resolvers.PushBack(Str(resolver));
  }
  out.Set("resolvers", std::move(resolvers));
  return out;
}

void ClientFromJson(const json::Value& value, const std::string& path, Ctx& ctx,
                    ClientSpec* client) {
  ObjReader r(value, path, ctx);
  r.AllowKeys({"label", "qps", "start", "stop", "timeout", "retries",
               "dcc_aware", "rotate_resolvers", "attacker", "pattern", "zone",
               "seed", "unique_names", "nx_then_wc_switch", "ramp_to_qps",
               "resolvers"});
  client->label = r.Str("label", "");
  client->qps = r.Num("qps", client->qps);
  client->start = r.Secs("start", client->start);
  client->stop = r.Secs("stop", client->stop);
  client->timeout = r.Secs("timeout", client->timeout);
  client->retries = r.Int("retries", client->retries);
  client->dcc_aware = r.Bool("dcc_aware", client->dcc_aware);
  client->rotate_resolvers = r.Bool("rotate_resolvers", client->rotate_resolvers);
  client->is_attacker = r.Bool("attacker", client->is_attacker);
  const std::string pattern = r.Str("pattern", "wc");
  if (!ParseQueryPatternName(pattern, &client->pattern)) {
    ctx.Fail(Sub(path, "pattern"),
             "unknown pattern '" + pattern + "' (wc|nx|cq|ff|nx_then_wc)");
    return;
  }
  client->zone = r.Str("zone", "");
  if (r.Has("seed")) {
    client->seed = r.U64("seed", 0);
    client->has_seed = true;
  }
  client->unique_names = r.U64("unique_names", client->unique_names);
  client->nx_then_wc_switch = r.Secs("nx_then_wc_switch", client->nx_then_wc_switch);
  client->ramp_to_qps = r.Num("ramp_to_qps", client->ramp_to_qps);
  client->resolvers = r.StrList("resolvers");
}

// --- fault plan as text lines ------------------------------------------------

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) {
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

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
  ObjReader r(root, "", ctx);
  r.AllowKeys({"name", "run", "network", "zones", "nodes", "clients", "faults",
               "measure", "provenance"});
  spec->name = r.Str("name", "");
  spec->provenance = r.StrList("provenance");
  if (const json::Value* run = r.Obj("run"); run != nullptr) {
    ObjReader rr(*run, "run", ctx);
    rr.AllowKeys({"horizon", "seed"});
    spec->horizon = rr.Secs("horizon", spec->horizon);
    spec->seed = rr.U64("seed", spec->seed);
  }
  if (const json::Value* network = r.Obj("network"); network != nullptr) {
    ObjReader n(*network, "network", ctx);
    n.AllowKeys({"jitter", "jitter_seed", "loss_probability", "loss_seed",
                 "pair_delays"});
    spec->network.jitter = n.Secs("jitter", spec->network.jitter);
    spec->network.jitter_seed = n.U64("jitter_seed", spec->network.jitter_seed);
    spec->network.loss_probability =
        n.Num("loss_probability", spec->network.loss_probability);
    spec->network.loss_seed = n.U64("loss_seed", spec->network.loss_seed);
    if (const json::Value* delays = n.Arr("pair_delays"); delays != nullptr) {
      for (size_t i = 0; i < delays->AsArray().size(); ++i) {
        const std::string delay_path = Idx("network.pair_delays", i);
        ObjReader d(delays->AsArray()[i], delay_path, ctx);
        d.AllowKeys({"a", "b", "one_way"});
        PairDelaySpec delay;
        delay.a = d.Str("a", "");
        delay.b = d.Str("b", "");
        delay.one_way = d.Secs("one_way", 0);
        spec->network.pair_delays.push_back(std::move(delay));
      }
    }
  }
  if (const json::Value* zones = r.Arr("zones"); zones != nullptr) {
    for (size_t i = 0; i < zones->AsArray().size(); ++i) {
      ZoneSpec zone;
      ZoneFromJson(zones->AsArray()[i], Idx("zones", i), ctx, &zone);
      spec->zones.push_back(std::move(zone));
    }
  }
  if (const json::Value* nodes = r.Arr("nodes"); nodes != nullptr) {
    for (size_t i = 0; i < nodes->AsArray().size(); ++i) {
      NodeSpec node;
      NodeFromJson(nodes->AsArray()[i], Idx("nodes", i), ctx, &node);
      spec->nodes.push_back(std::move(node));
    }
  }
  if (const json::Value* clients = r.Arr("clients"); clients != nullptr) {
    for (size_t i = 0; i < clients->AsArray().size(); ++i) {
      ClientSpec client;
      ClientFromJson(clients->AsArray()[i], Idx("clients", i), ctx, &client);
      spec->clients.push_back(std::move(client));
    }
  }
  if (const json::Value* faults = r.Obj("faults"); faults != nullptr) {
    ObjReader f(*faults, "faults", ctx);
    f.AllowKeys({"plan", "arm_before_sampling"});
    spec->faults.arm_before_sampling =
        f.Bool("arm_before_sampling", spec->faults.arm_before_sampling);
    if (const json::Value* plan = f.Arr("plan"); plan != nullptr) {
      std::string text;
      for (size_t i = 0; i < plan->AsArray().size(); ++i) {
        const json::Value& line = plan->AsArray()[i];
        if (!line.is_string()) {
          ctx.Fail(Idx("faults.plan", i), "expected a string (one plan line)");
          break;
        }
        text += line.AsString();
        text += '\n';
      }
      if (ctx.ok) {
        std::string plan_error;
        if (!fault::ParseFaultPlan(text, &spec->faults.plan, &plan_error)) {
          ctx.Fail("faults.plan", plan_error);
        }
      }
    }
  }
  if (const json::Value* measure = r.Obj("measure"); measure != nullptr) {
    ObjReader m(*measure, "measure", ctx);
    m.AllowKeys({"client_series", "ans", "resolver_series", "trackers"});
    spec->measure.client_series =
        m.Bool("client_series", spec->measure.client_series);
    if (const json::Value* ans = m.Arr("ans"); ans != nullptr) {
      for (size_t i = 0; i < ans->AsArray().size(); ++i) {
        const std::string ans_path = Idx("measure.ans", i);
        ObjReader a(ans->AsArray()[i], ans_path, ctx);
        a.AllowKeys({"node", "label"});
        AnsProbeSpec probe;
        probe.node = a.Str("node", "");
        probe.label = a.Str("label", "");
        spec->measure.ans.push_back(std::move(probe));
      }
    }
    spec->measure.resolver_series = m.StrList("resolver_series");
    spec->measure.trackers = m.StrList("trackers");
  }
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
      zone.attacker.instances =
          ff_qps > 0
              ? static_cast<int>(ff_qps * ToSeconds(spec->horizon)) + 8
              : AttackerZoneOptions().instances;
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
    if (node.replicate < 0) {
      return ctx.Fail(Sub(path, "replicate"), "must be >= 0");
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
  json::Value out = json::Value::MakeObject();
  out.Set("name", Str(spec.name));
  if (!spec.provenance.empty()) {
    json::Value provenance = json::Value::MakeArray();
    for (const std::string& line : spec.provenance) {
      provenance.PushBack(Str(line));
    }
    out.Set("provenance", std::move(provenance));
  }

  json::Value run = json::Value::MakeObject();
  run.Set("horizon", Secs(spec.horizon));
  run.Set("seed", Num(static_cast<double>(spec.seed)));
  out.Set("run", std::move(run));

  json::Value network = json::Value::MakeObject();
  network.Set("jitter", Secs(spec.network.jitter));
  network.Set("jitter_seed", Num(static_cast<double>(spec.network.jitter_seed)));
  network.Set("loss_probability", Num(spec.network.loss_probability));
  network.Set("loss_seed", Num(static_cast<double>(spec.network.loss_seed)));
  if (!spec.network.pair_delays.empty()) {
    json::Value delays = json::Value::MakeArray();
    for (const PairDelaySpec& delay : spec.network.pair_delays) {
      json::Value d = json::Value::MakeObject();
      d.Set("a", Str(delay.a));
      d.Set("b", Str(delay.b));
      d.Set("one_way", Secs(delay.one_way));
      delays.PushBack(std::move(d));
    }
    network.Set("pair_delays", std::move(delays));
  }
  out.Set("network", std::move(network));

  json::Value zones = json::Value::MakeArray();
  for (const ZoneSpec& zone : spec.zones) {
    zones.PushBack(ZoneToJson(zone));
  }
  out.Set("zones", std::move(zones));

  json::Value nodes = json::Value::MakeArray();
  for (const NodeSpec& node : spec.nodes) {
    nodes.PushBack(NodeToJson(node));
  }
  out.Set("nodes", std::move(nodes));

  json::Value clients = json::Value::MakeArray();
  for (const ClientSpec& client : spec.clients) {
    clients.PushBack(ClientToJson(client));
  }
  out.Set("clients", std::move(clients));

  if (!spec.faults.plan.empty()) {
    json::Value faults = json::Value::MakeObject();
    json::Value plan = json::Value::MakeArray();
    for (const std::string& line : SplitLines(fault::FormatFaultPlan(spec.faults.plan))) {
      plan.PushBack(Str(line));
    }
    faults.Set("plan", std::move(plan));
    faults.Set("arm_before_sampling", Boolean(spec.faults.arm_before_sampling));
    out.Set("faults", std::move(faults));
  }

  json::Value measure = json::Value::MakeObject();
  measure.Set("client_series", Boolean(spec.measure.client_series));
  json::Value ans = json::Value::MakeArray();
  for (const AnsProbeSpec& probe : spec.measure.ans) {
    json::Value a = json::Value::MakeObject();
    a.Set("node", Str(probe.node));
    a.Set("label", Str(probe.label));
    ans.PushBack(std::move(a));
  }
  measure.Set("ans", std::move(ans));
  json::Value resolver_series = json::Value::MakeArray();
  for (const std::string& node : spec.measure.resolver_series) {
    resolver_series.PushBack(Str(node));
  }
  measure.Set("resolver_series", std::move(resolver_series));
  json::Value trackers = json::Value::MakeArray();
  for (const std::string& node : spec.measure.trackers) {
    trackers.PushBack(Str(node));
  }
  measure.Set("trackers", std::move(trackers));
  out.Set("measure", std::move(measure));

  return out;
}

std::string WriteScenarioSpec(const ScenarioSpec& spec, int indent) {
  return json::Write(ScenarioSpecToJson(spec), indent) + "\n";
}

}  // namespace scenario
}  // namespace dcc
