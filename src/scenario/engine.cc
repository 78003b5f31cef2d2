#include "src/scenario/engine.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/telemetry/profiler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace scenario {
namespace {

constexpr char kClientSuccessSeries[] = "client_success_qps";
constexpr char kClientSentSeries[] = "client_sent_qps";
constexpr char kAnsSeries[] = "ans_qps";
constexpr char kResolverUpstreamSeries[] = "resolver_upstream_qps";
constexpr char kResolverStaleSeries[] = "resolver_stale_qps";
constexpr char kDccMemorySeries[] = "dcc_memory_bytes";

void ProbeStub(telemetry::TimeSeriesSampler& sampler, const StubClient& stub,
               const std::string& label) {
  sampler.AddCounterProbe(kClientSuccessSeries, {{"client", label}}, [&stub]() {
    return static_cast<double>(stub.succeeded());
  });
  sampler.AddCounterProbe(kClientSentSeries, {{"client", label}}, [&stub]() {
    return static_cast<double>(stub.requests_sent());
  });
}

void ProbeAns(telemetry::TimeSeriesSampler& sampler,
              const AuthoritativeServer& ans, const std::string& label) {
  sampler.AddCounterProbe(kAnsSeries, {{"ans", label}}, [&ans]() {
    return static_cast<double>(ans.queries_received());
  });
}

void ProbeResolverSeries(telemetry::TimeSeriesSampler& sampler,
                         const RecursiveResolver& resolver,
                         const telemetry::Labels& labels) {
  sampler.AddCounterProbe(kResolverUpstreamSeries, labels, [&resolver]() {
    return static_cast<double>(resolver.queries_sent());
  });
  sampler.AddCounterProbe(kResolverStaleSeries, labels, [&resolver]() {
    return static_cast<double>(resolver.stale_responses());
  });
}

// The DCC introspection seam, snapshotted every tick: per-channel queue
// depth / credit balance / capacity (MOPI-FQ + AIMD estimate), per-client
// anomaly and policer state, and egress / SERVFAIL rates. Every series
// carries the node's address so several DCC nodes (e.g. the Fig. 9
// forwarder + resolver pair) can share one sampler.
void ProbeDcc(telemetry::TimeSeriesSampler& sampler, const DccNode& shim) {
  const std::string node = FormatAddress(shim.address());
  sampler.AddCollector([&shim, node](Time now,
                                     telemetry::TimeSeriesSampler::Writer& writer) {
    const telemetry::Labels node_labels{{"node", node}};
    const MopiFq::DebugState sched = shim.scheduler().GetDebugState(now);
    writer.Gauge("dcc_scheduler_total_depth", node_labels,
                 static_cast<double>(sched.total_depth));
    for (const MopiFq::ChannelDebugState& ch : sched.channels) {
      const telemetry::Labels labels{{"node", node},
                                     {"channel", FormatAddress(ch.output)}};
      writer.Gauge("dcc_channel_queue_depth", labels, ch.depth);
      writer.Gauge("dcc_channel_credit_tokens", labels, ch.credit_tokens);
      writer.Gauge("dcc_channel_capacity_qps", labels, ch.capacity_qps);
    }
    if (shim.capacity_estimator().enabled()) {
      for (const CapacityEstimator::ChannelDebugState& ch :
           shim.capacity_estimator().GetDebugState().channels) {
        writer.Gauge("dcc_channel_estimated_qps",
                     {{"node", node}, {"channel", FormatAddress(ch.output)}},
                     ch.estimate_qps);
      }
    }
    const PreQueuePolicer::DebugState policer = shim.policer().GetDebugState(now);
    writer.Gauge("dcc_policer_active_policies", node_labels,
                 static_cast<double>(policer.clients.size()));
    writer.Rate("dcc_policer_dropped_qps", node_labels,
                static_cast<double>(policer.total_dropped));
    for (const AnomalyMonitor::ClientDebugState& c :
         shim.monitor().GetDebugState(now).clients) {
      const telemetry::Labels labels{{"node", node},
                                     {"client", FormatAddress(c.client)}};
      writer.Gauge("dcc_client_request_rate", labels, c.request_rate);
      writer.Gauge("dcc_client_nx_ratio", labels, c.nx_ratio);
      writer.Gauge("dcc_client_anomaly_alarms", labels, c.alarms);
      writer.Gauge("dcc_client_suspicious", labels, c.suspicious ? 1 : 0);
    }
    writer.Rate("dcc_egress_qps", node_labels,
                static_cast<double>(shim.queries_sent()));
    writer.Rate("dcc_servfail_qps", node_labels,
                static_cast<double>(shim.servfails_synthesized()));
  });
}

// Per-upstream SRTT, loss rate and hold-down state of `tracker` every tick
// (labels: base + {upstream=<addr>}).
void ProbeTracker(telemetry::TimeSeriesSampler& sampler,
                  const UpstreamTracker& tracker, telemetry::Labels base_labels) {
  sampler.AddCollector([&tracker, base_labels = std::move(base_labels)](
                           Time now, telemetry::TimeSeriesSampler::Writer& writer) {
    for (const UpstreamTracker::ServerDebugState& server :
         tracker.GetDebugState(now).servers) {
      telemetry::Labels labels = base_labels;
      labels.emplace_back("upstream", FormatAddress(server.server));
      writer.Gauge("upstream_srtt_ms", labels, ToMilliseconds(server.srtt));
      writer.Gauge("upstream_loss_rate", labels, server.loss_rate);
      writer.Gauge("upstream_held_down", labels, server.held_down ? 1 : 0);
    }
  });
}

// Ticks `sampler` on its own interval until `until`. Must run after every
// probe is registered so counter bases are taken at t=0.
void StartSampling(Testbed& bed, telemetry::TimeSeriesSampler& sampler,
                   Time until) {
  EventLoop& loop = bed.loop();
  loop.SchedulePeriodic(
      sampler.interval(), "telemetry.sample",
      [&sampler, &loop]() { sampler.SampleNow(loop.now()); }, until);
}

// First `horizon` seconds of a series, zero-padded.
std::vector<double> SeriesSeconds(const telemetry::TimeSeriesSampler& sampler,
                                  const char* name,
                                  const telemetry::Labels& labels,
                                  Duration horizon) {
  const std::vector<double> values = sampler.Values(name, labels);
  const size_t seconds = static_cast<size_t>(horizon / kSecond);
  std::vector<double> out;
  out.reserve(seconds);
  for (size_t i = 0; i < seconds; ++i) {
    out.push_back(i < values.size() ? values[i] : 0.0);
  }
  return out;
}

QuestionGenerator MakeClientGenerator(const ClientSpec& client,
                                      const ZoneSpec& zone, const Name& apex) {
  switch (client.pattern) {
    case QueryPattern::kWc:
      return MakeWcGenerator(apex, client.seed, client.unique_names);
    case QueryPattern::kNx:
      return MakeNxGenerator(apex, client.seed, client.unique_names);
    case QueryPattern::kCq:
      return MakeCqGenerator(apex, zone.target.cq_instances,
                             zone.target.cq_labels);
    case QueryPattern::kFf:
      return MakeFfGenerator(apex, zone.attacker.instances);
    case QueryPattern::kNxThenWc: {
      // NX for the first `nx_then_wc_switch` of the client's schedule, then
      // WC (Fig. 8b). The WC half derives its seed from the NX half's so one
      // client seed still describes the whole workload.
      QuestionGenerator nx = MakeNxGenerator(apex, client.seed);
      QuestionGenerator wc = MakeWcGenerator(apex, client.seed ^ 0x5a5a);
      const double qps = client.qps;
      const double switch_sec = ToSeconds(client.nx_then_wc_switch);
      return [nx, wc, qps, switch_sec](uint64_t seq) {
        const double elapsed_sec = static_cast<double>(seq) / qps;
        return elapsed_sec < switch_sec ? nx(seq) : wc(seq);
      };
    }
  }
  return MakeWcGenerator(apex, client.seed, client.unique_names);
}

// Explicit send times for a linear ramp from `qps` at start to `ramp_to_qps`
// at stop: each inter-send gap is the reciprocal of the instantaneous rate.
std::vector<Time> RampSchedule(const ClientSpec& client) {
  std::vector<Time> times;
  const double t0 = ToSeconds(client.start);
  const double t1 = ToSeconds(client.stop);
  const double span = t1 - t0;
  double t = t0;
  while (t < t1) {
    times.push_back(static_cast<Time>(t * 1e6));
    const double rate =
        client.qps + (client.ramp_to_qps - client.qps) * ((t - t0) / span);
    t += 1.0 / std::max(rate, 1e-9);
  }
  return times;
}

}  // namespace

bool RunScenarioSpec(const ScenarioSpec& input, const EngineHooks& hooks,
                     ScenarioOutcome* outcome, std::string* error) {
  // Everything before the event loop — validation/materialization plus
  // testbed wiring (zones, servers, clients, faults, samplers) — is
  // attributed to its own site so setup cost is separable from the loop.
  static prof::Site kBuildSite("scenario.build");
  std::optional<prof::ScopedSite> build_scope;
  build_scope.emplace(kBuildSite);

  ScenarioSpec spec = input;
  if (!ValidateScenarioSpec(&spec, error)) {
    return false;
  }
  *outcome = ScenarioOutcome();

  Testbed bed(hooks.telemetry, hooks.audit);
  if (spec.network.jitter > 0) {
    bed.network().SetDelayJitter(spec.network.jitter, spec.network.jitter_seed);
  }
  if (spec.network.loss_probability > 0) {
    bed.network().SetLossProbability(spec.network.loss_probability,
                                     spec.network.loss_seed);
  }

  // Zone lookup (apexes validated parseable).
  std::unordered_map<std::string, const ZoneSpec*> zones;
  std::unordered_map<std::string, Name> apexes;
  for (const ZoneSpec& zone : spec.zones) {
    zones.emplace(zone.id, &zone);
    apexes.emplace(zone.id, *Name::Parse(zone.apex));
  }

  // --- hosts, in spec order (addresses + construction-time events) ----------
  std::unordered_map<std::string, HostAddress> addresses;
  std::unordered_map<std::string, RecursiveResolver*> resolvers;
  std::unordered_map<std::string, Forwarder*> forwarders;
  std::unordered_map<std::string, FleetFrontend*> frontends;
  std::unordered_map<std::string, AuthoritativeServer*> auths;
  std::vector<DccNode*> shims;  // Creation order (sampler attach order).
  for (const NodeSpec& node : spec.nodes) {
    const HostAddress addr = bed.NextAddress();
    addresses[node.id] = addr;
    switch (node.kind) {
      case NodeKind::kAuthoritative: {
        AuthoritativeServer& auth = bed.AddAuthoritative(addr, node.auth);
        for (const std::string& zone_id : node.zones) {
          const ZoneSpec& zone = *zones.at(zone_id);
          const Name& apex = apexes.at(zone_id);
          if (zone.kind == ZoneKind::kTarget) {
            auth.AddZone(MakeTargetZone(apex, addr, zone.target));
          } else {
            auth.AddZone(MakeAttackerZone(apex, apexes.at(zone.target_zone),
                                          zone.attacker));
          }
        }
        auths[node.id] = &auth;
        break;
      }
      case NodeKind::kResolver: {
        if (node.dcc_enabled) {
          auto [shim, resolver] = bed.AddDccResolver(addr, node.dcc, node.resolver);
          shims.push_back(&shim);
          resolvers[node.id] = &resolver;
        } else {
          resolvers[node.id] = &bed.AddResolver(addr, node.resolver);
        }
        break;
      }
      case NodeKind::kForwarder: {
        if (node.dcc_enabled) {
          auto [shim, forwarder] = bed.AddDccForwarder(addr, node.dcc, node.forwarder);
          shims.push_back(&shim);
          forwarders[node.id] = &forwarder;
        } else {
          forwarders[node.id] = &bed.AddForwarder(addr, node.forwarder);
        }
        break;
      }
      case NodeKind::kFrontend: {
        frontends[node.id] = &bed.AddFrontend(addr, node.frontend);
        break;
      }
    }
  }

  // --- wiring (no events scheduled; forward references fine) ----------------
  {
    size_t shim_index = 0;
    for (const NodeSpec& node : spec.nodes) {
      if (node.kind == NodeKind::kResolver) {
        RecursiveResolver* resolver = resolvers.at(node.id);
        for (const AuthorityHintSpec& hint : node.hints) {
          resolver->AddAuthorityHint(apexes.at(hint.zone), addresses.at(hint.node));
        }
      } else if (node.kind == NodeKind::kForwarder) {
        Forwarder* forwarder = forwarders.at(node.id);
        for (const std::string& upstream : node.upstreams) {
          forwarder->AddUpstream(addresses.at(upstream));
        }
      } else if (node.kind == NodeKind::kFrontend) {
        // Start() arms the probe loops and rotation timer; running it here
        // (spec order, after the full member list is wired) keeps the
        // construction-time event schedule deterministic.
        FleetFrontend* frontend = frontends.at(node.id);
        for (const std::string& member : node.members) {
          frontend->AddMember(addresses.at(member));
        }
        frontend->Start();
      }
      if (node.dcc_enabled) {
        DccNode* shim = shims[shim_index++];
        for (const ChannelSpec& channel : node.channels) {
          shim->SetChannelCapacity(addresses.at(channel.node), channel.qps);
        }
      }
    }
  }
  // Per-link delay overrides; endpoints may be node ids or client labels.
  if (!spec.network.pair_delays.empty()) {
    std::unordered_map<std::string, HostAddress> endpoints = addresses;
    for (size_t i = 0; i < spec.clients.size(); ++i) {
      if (!spec.clients[i].label.empty()) {
        endpoints.emplace(spec.clients[i].label, SpecClientAddress(spec, i));
      }
    }
    for (const PairDelaySpec& delay : spec.network.pair_delays) {
      bed.network().SetPairDelay(endpoints.at(delay.a), endpoints.at(delay.b),
                                 delay.one_way);
    }
  }

  // --- clients, in spec order ------------------------------------------------
  std::vector<StubClient*> stubs;
  for (const ClientSpec& client : spec.clients) {
    StubConfig config;
    config.start = client.start;
    config.stop = client.stop;
    config.qps = client.qps;
    config.timeout = client.timeout;
    config.retries = client.retries;
    config.dcc_aware = client.dcc_aware;
    config.rotate_resolvers = client.rotate_resolvers;
    const ZoneSpec& zone = *zones.at(client.zone);
    StubClient& stub =
        bed.AddStub(bed.NextAddress(), config,
                    MakeClientGenerator(client, zone, apexes.at(client.zone)));
    for (const std::string& entry : client.resolvers) {
      stub.AddResolver(addresses.at(entry));
    }
    if (client.ramp_to_qps > 0) {
      stub.StartWithSchedule(RampSchedule(client));
    } else {
      stub.Start();
    }
    stubs.push_back(&stub);
  }

  // --- faults / samplers, in a fixed relative order --------------------------
  fault::FaultInjector* injector = nullptr;
  if (!spec.faults.plan.empty() && spec.faults.arm_before_sampling) {
    injector = &bed.InstallFaultPlan(spec.faults.plan);
  }

  auto series_labels = [&spec](const std::string& node) -> telemetry::Labels {
    return spec.measure.resolver_series.size() == 1
               ? telemetry::Labels{}
               : telemetry::Labels{{"node", node}};
  };

  // Internal per-run scoreboard backing the outcome series.
  telemetry::TimeSeriesSampler scoreboard(kSecond);
  if (spec.measure.client_series) {
    for (size_t i = 0; i < stubs.size(); ++i) {
      ProbeStub(scoreboard, *stubs[i], std::to_string(i));
    }
  }
  for (const AnsProbeSpec& probe : spec.measure.ans) {
    ProbeAns(scoreboard, *auths.at(probe.node), probe.label);
  }
  for (const std::string& node : spec.measure.resolver_series) {
    ProbeResolverSeries(scoreboard, *resolvers.at(node), series_labels(node));
  }
  // DCC state footprint, sampled per shim each tick (gauge probes add no
  // events of their own, so events_executed is unchanged by this).
  for (size_t i = 0; i < shims.size(); ++i) {
    const DccNode* shim = shims[i];
    scoreboard.AddGaugeProbe(kDccMemorySeries, {{"shim", std::to_string(i)}},
                             [shim]() {
                               return static_cast<double>(shim->MemoryFootprint());
                             });
  }
  StartSampling(bed, scoreboard, spec.horizon + Seconds(2));

  if (hooks.sampler != nullptr) {
    for (size_t i = 0; i < stubs.size(); ++i) {
      const std::string label = spec.clients[i].label.empty()
                                    ? std::to_string(i)
                                    : spec.clients[i].label;
      ProbeStub(*hooks.sampler, *stubs[i], label);
    }
    for (const AnsProbeSpec& probe : spec.measure.ans) {
      ProbeAns(*hooks.sampler, *auths.at(probe.node), probe.label);
    }
    for (const std::string& node : spec.measure.resolver_series) {
      ProbeResolverSeries(*hooks.sampler, *resolvers.at(node), series_labels(node));
    }
    for (const DccNode* shim : shims) {
      ProbeDcc(*hooks.sampler, *shim);
    }
    for (const std::string& node : spec.measure.trackers) {
      const telemetry::Labels labels =
          spec.measure.trackers.size() == 1
              ? telemetry::Labels{}
              : telemetry::Labels{{"node", node}};
      if (auto resolver_it = resolvers.find(node); resolver_it != resolvers.end()) {
        ProbeTracker(*hooks.sampler, resolver_it->second->upstream_tracker(), labels);
      } else if (auto frontend_it = frontends.find(node);
                 frontend_it != frontends.end()) {
        ProbeTracker(*hooks.sampler, frontend_it->second->tracker(), labels);
      } else {
        ProbeTracker(*hooks.sampler, forwarders.at(node)->upstream_tracker(), labels);
      }
    }
    StartSampling(bed, *hooks.sampler, spec.horizon + Seconds(2));
  }

  if (!spec.faults.plan.empty() && !spec.faults.arm_before_sampling) {
    injector = &bed.InstallFaultPlan(spec.faults.plan);
  }

  build_scope.reset();
  outcome->events_executed = bed.RunFor(spec.horizon + Seconds(3));

  // Post-run outcome assembly (series extraction, counter reads) gets its
  // own site; the optional releases it on every return path.
  static prof::Site kCollectSite("scenario.collect");
  build_scope.emplace(kCollectSite);

  // --- outcome ----------------------------------------------------------------
  for (size_t i = 0; i < spec.clients.size(); ++i) {
    ClientOutcome client;
    client.label = spec.clients[i].label;
    client.is_attacker = spec.clients[i].is_attacker;
    client.sent = stubs[i]->requests_sent();
    client.succeeded = stubs[i]->succeeded();
    client.failed = stubs[i]->failed();
    client.success_ratio = stubs[i]->SuccessRatio();
    if (spec.measure.client_series) {
      client.effective_qps =
          SeriesSeconds(scoreboard, kClientSuccessSeries,
                        {{"client", std::to_string(i)}}, spec.horizon);
    }
    outcome->clients.push_back(std::move(client));
  }
  for (const AnsProbeSpec& probe : spec.measure.ans) {
    AnsOutcome ans;
    ans.node = probe.node;
    ans.label = probe.label;
    ans.qps = SeriesSeconds(scoreboard, kAnsSeries, {{"ans", probe.label}},
                            spec.horizon);
    for (double v : scoreboard.Values(kAnsSeries, {{"ans", probe.label}})) {
      ans.peak_qps = std::max(ans.peak_qps, v);
    }
    outcome->ans.push_back(std::move(ans));
  }
  for (const std::string& node : spec.measure.resolver_series) {
    RecursiveResolver* resolver = resolvers.at(node);
    ResolverSeriesOutcome series;
    series.node = node;
    series.stale_responses = resolver->stale_responses();
    series.upstream_timeouts = resolver->upstream_tracker().timeouts_observed();
    series.holddowns = resolver->upstream_tracker().holddowns_entered();
    series.upstream_send_qps = SeriesSeconds(scoreboard, kResolverUpstreamSeries,
                                             series_labels(node), spec.horizon);
    series.stale_qps = SeriesSeconds(scoreboard, kResolverStaleSeries,
                                     series_labels(node), spec.horizon);
    outcome->resolver_series.push_back(std::move(series));
  }
  for (const NodeSpec& node : spec.nodes) {
    if (node.kind != NodeKind::kFrontend) {
      continue;
    }
    const FleetFrontend* frontend = frontends.at(node.id);
    FrontendOutcome fo;
    fo.node = node.id;
    fo.requests = frontend->requests_received();
    fo.resteers = frontend->resteers();
    fo.resteer_denied = frontend->resteer_denied();
    fo.rotations = frontend->rotations();
    fo.probes_sent = frontend->probes_sent();
    fo.probe_timeouts = frontend->probe_timeouts();
    fo.servfails = frontend->servfails_sent();
    const Time end = bed.loop().now();
    for (const std::string& member : node.members) {
      FrontendMemberOutcome mo;
      mo.node = member;
      mo.steered = frontend->SteeredCount(addresses.at(member));
      mo.healthy_at_end = frontend->IsMemberHealthy(addresses.at(member), end);
      fo.members.push_back(std::move(mo));
    }
    outcome->frontends.push_back(std::move(fo));
  }
  for (const DccNode* shim : shims) {
    outcome->dcc_convictions += shim->convictions();
    outcome->dcc_policed_drops += shim->policed_drops();
    outcome->dcc_servfails += shim->servfails_synthesized();
    outcome->dcc_signals_attached += shim->signals_attached();
  }
  if (!shims.empty()) {
    // Peak of the per-tick sum across shims (ticks share one axis).
    std::vector<double> total;
    for (size_t i = 0; i < shims.size(); ++i) {
      const std::vector<double> values =
          scoreboard.Values(kDccMemorySeries, {{"shim", std::to_string(i)}});
      if (total.size() < values.size()) {
        total.resize(values.size(), 0);
      }
      for (size_t t = 0; t < values.size(); ++t) {
        total[t] += values[t];
      }
    }
    for (double v : total) {
      outcome->dcc_peak_memory_bytes =
          std::max(outcome->dcc_peak_memory_bytes, v);
    }
  }
  if (injector != nullptr) {
    outcome->fault_activations = injector->activations();
  }
  if (hooks.audit != nullptr) {
    outcome->audit_enabled = true;
    outcome->audit_records = hooks.audit->total_recorded();
    outcome->audit_dropped = hooks.audit->dropped();
    const std::vector<uint64_t> histogram = hooks.audit->CauseHistogram();
    for (size_t i = 0; i < histogram.size(); ++i) {
      if (histogram[i] == 0) continue;
      outcome->audit_causes.emplace_back(
          telemetry::AuditCauseName(static_cast<telemetry::AuditCause>(i)),
          histogram[i]);
    }
  }
  return true;
}

}  // namespace scenario
}  // namespace dcc
