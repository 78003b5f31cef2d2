#include "src/dcc/dcc_node.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "src/common/logging.h"
#include "src/dns/codec.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Span the shim's events attach to: the sub-query span carried by the
// attribution option, or the root client span for hops that do not allocate
// spans (legacy 8-byte attributions, e.g. from the forwarder).
uint32_t SpanOf(const Attribution& a) {
  return a.span_id != 0 ? a.span_id : telemetry::kClientSpanId;
}

uint64_t TraceIdOf(const Attribution& a) {
  return telemetry::MakeTraceId(a.client_addr, a.client_port, a.request_id);
}

// Audit cause for a failed MOPI-FQ enqueue (kSuccess never reaches here).
telemetry::AuditCause AuditCauseForEnqueue(EnqueueResult result) {
  switch (result) {
    case EnqueueResult::kQueueOverflow:
      return telemetry::AuditCause::kMopiQueueFull;
    case EnqueueResult::kClientOverspeed:
      return telemetry::AuditCause::kMopiClientOverspeed;
    case EnqueueResult::kChannelCongested:
    case EnqueueResult::kSuccess:
      break;
  }
  return telemetry::AuditCause::kMopiChannelCongested;
}

bool IsMopiCause(telemetry::AuditCause cause) {
  return cause == telemetry::AuditCause::kMopiChannelCongested ||
         cause == telemetry::AuditCause::kMopiQueueFull ||
         cause == telemetry::AuditCause::kMopiClientOverspeed ||
         cause == telemetry::AuditCause::kMopiEvicted;
}

}  // namespace

DccNode::DccNode(Network& network, HostAddress addr, const DccConfig& config,
                 telemetry::Observer* obs)
    : config_(config),
      scheduler_(config.scheduler),
      monitor_(config.anomaly),
      policer_(),
      capacity_estimator_(config.capacity),
      obs_(obs) {
  network.RegisterNode(this, addr);
  if (obs_ == nullptr) {
    return;
  }
  for (int i = 0; i < 4; ++i) {
    obs_->Count("dcc_scheduler_enqueue_total",
                {{"outcome", EnqueueResultName(static_cast<EnqueueResult>(i))}},
                "MOPI-FQ enqueue attempts by outcome", &enqueue_results_[i]);
  }
  obs_->Count("dcc_scheduler_evictions_total", {},
              "Queued queries evicted by a later arrival", &evictions_);
  obs_->Count("dcc_scheduler_dequeue_total", {},
              "Queries released by the scheduler", &queries_sent_);
  // SERVFAIL / policer-reject / alarm counters are bumped by the decisions
  // themselves; declaring the causes exports them from zero.
  obs_->DeclareCauses({telemetry::AuditCause::kPolicerRateExceeded,
                       telemetry::AuditCause::kPolicerBlocked,
                       telemetry::AuditCause::kMopiChannelCongested,
                       telemetry::AuditCause::kMopiQueueFull,
                       telemetry::AuditCause::kMopiClientOverspeed,
                       telemetry::AuditCause::kMopiEvicted,
                       telemetry::AuditCause::kAnomalyAlarm,
                       telemetry::AuditCause::kAnomalyConvicted});
  constexpr const char* kPolicyNames[] = {"rate_limit", "block", "upstream_signal"};
  constexpr const char* kSignalNames[] = {"policing", "anomaly", "congestion"};
  for (int i = 0; i < 3; ++i) {
    obs_->Count("dcc_convictions_total", {{"policy", kPolicyNames[i]}},
                "Client convictions by imposed policy", &convictions_[i]);
    obs_->Count("dcc_signals_processed_total", {{"type", kSignalNames[i]}},
                "Upstream DCC signals processed by type", &signals_processed_[i]);
  }
  obs_->Count("dcc_signals_attached_total", {},
              "DCC signals attached to client responses", &signals_attached_);
  obs_->Count("dcc_capacity_updates_total", {},
              "AIMD channel-capacity re-estimations", &capacity_updates_);
  obs_->Gauge("dcc_memory_bytes", {}, "Total DCC state bytes (Table 1 / Fig. 10)",
              [this]() { return static_cast<double>(MemoryFootprint()); });
  obs_->Gauge("dcc_pending_queries", {}, "In-flight attributed upstream queries",
              [this]() { return static_cast<double>(pending_.size()); });
  obs_->Gauge("dcc_queued_queries", {}, "Queries held by the MOPI-FQ scheduler",
              [this]() { return static_cast<double>(queued_.size()); });
  obs_->Gauge("dcc_per_client_state", {},
              "Per-client monitor + signaling state entries",
              [this]() { return static_cast<double>(PerClientStateCount()); });
}

uint64_t DccNode::signals_processed() const {
  return std::accumulate(std::begin(signals_processed_),
                         std::end(signals_processed_), uint64_t{0});
}

uint64_t DccNode::convictions() const {
  return std::accumulate(std::begin(convictions_), std::end(convictions_),
                         uint64_t{0});
}

void DccNode::SetChannelCapacity(HostAddress server, double qps) {
  scheduler_.SetChannelCapacity(server, qps);
  if (capacity_estimator_.enabled()) {
    capacity_estimator_.Seed(server, qps);
  }
}

void DccNode::SetClientShare(HostAddress client, double share) {
  scheduler_.SetSourceShare(client, share);
}

void DccNode::OnUpstreamHoldDown(HostAddress server, bool down, Time now) {
  if (!down || !capacity_estimator_.enabled()) {
    return;
  }
  const double before = capacity_estimator_.EstimateFor(server);
  const double qps = capacity_estimator_.NotifyOutage(server, now);
  scheduler_.SetChannelCapacity(server, qps);
  ++capacity_updates_;
  if (obs_ != nullptr) {
    DecideCapacityShrunk(server, qps, before, "outage");
    observed_capacity_[server] = qps;
  }
}

void DccNode::DecideCapacityShrunk(HostAddress channel, double after,
                                   double before, std::string_view why) {
  obs_->Decide({.cause = telemetry::AuditCause::kCapacityShrunk,
                .at = now(),
                .actor = address(),
                .channel = channel,
                .observed = after,
                .limit = before,
                .qname = why});
}

void DccNode::Start() {
  loop().SchedulePeriodic(config_.purge_interval, "dcc.maintenance",
                          [this]() { PeriodicMaintenance(); });
}

DccNode::ClientSignalState& DccNode::SignalStateFor(SourceId client) {
  ClientSignalState& state = client_signals_[client];
  state.last_active = now();
  return state;
}

// ---------------------------------------------------------------------------
// Incoming traffic (network -> resolver)
// ---------------------------------------------------------------------------

void DccNode::OnDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("dcc.datagram");
  if (server_ == nullptr) {
    return;
  }
  // Bytes (a fault rewrote them) are decoded here, once, and the message is
  // passed on in their place.
  const Message* msg = dgram.payload.Get<Message>();
  if (msg != nullptr && msg->IsQuery() && dgram.dst.port == kDnsPort) {
    // Client request: account it for anomaly metrics and pass through — the
    // resolver's fast path (cache hits) is untouched by DCC (§3.2).
    monitor_.RecordRequest(AggregateClient(dgram.src.addr), now());
  } else if (msg != nullptr && msg->IsResponse()) {
    HandleIncomingAnswer(dgram);
  }
  server_->HandleDatagram(std::move(dgram));
}

void DccNode::HandleIncomingAnswer(Datagram& dgram) {
  const Message& msg = *dgram.payload.Carried<Message>();
  if (capacity_estimator_.enabled()) {
    capacity_estimator_.RecordAnswered(dgram.src.addr, now());
  }
  const uint64_t key = PendingKey(dgram.dst.port, msg.header.id);
  SourceId culprit = dgram.dst.addr;  // Fallback: attribute to ourselves.
  auto it = pending_.find(key);
  if (it != pending_.end()) {
    if (it->second.has_attribution) {
      culprit = AggregateClient(it->second.attribution.client_addr);
      if (obs_ != nullptr) {
        const Attribution& a = it->second.attribution;
        obs_->Span(TraceIdOf(a), telemetry::SpanKind::kAuthResponse, now(),
                   address(), static_cast<int32_t>(msg.header.rcode),
                   SpanOf(a), a.parent_span_id, /*peer=*/dgram.src.addr);
      }
    }
    pending_.erase(it);
  }

  if (config_.signaling_enabled) {
    ProcessUpstreamSignals(msg, culprit);
  }
  if (HasDccOptions(msg)) {
    StripDccOptions(*dgram.payload.GetMutable<Message>());
  }
}

void DccNode::ProcessUpstreamSignals(const Message& answer, SourceId culprit) {
  // §3.3.4 processing priority: policing > anomaly > congestion.
  if (auto policing = GetPolicingSignal(answer); policing.has_value()) {
    ++signals_processed_[kPolicingSignal];
    // We are being policed upstream: warn the culprit's path and raise
    // monitoring sensitivity, since we failed to catch it ourselves.
    SignalStateFor(culprit).relay_policing = *policing;
    monitor_.SetSensitivity(0.5);
  }
  if (auto anomaly = GetAnomalySignal(answer); anomaly.has_value()) {
    ++signals_processed_[kAnomalySignal];
    if (anomaly->countdown <= config_.countdown_police_threshold) {
      // Impending policing from upstream: control the culprit now (§3.3.1).
      policer_.Impose(culprit, config_.signal_policy, /*rate_qps=*/0,
                      config_.signal_policy_duration, AnomalyReason::kUpstreamSignal,
                      now());
      ++convictions_[kSignalPolicy];
      if (obs_ != nullptr) {
        obs_->Decide(
            {.cause = telemetry::AuditCause::kSignalConvicted,
             .at = now(),
             .actor = address(),
             .client = culprit,
             .observed = static_cast<double>(anomaly->countdown),
             .limit = static_cast<double>(config_.countdown_police_threshold),
             .qname = AnomalyReasonName(anomaly->reason)});
      }
      PolicingSignal local;
      local.policy = config_.signal_policy;
      local.expiry_remaining_ms = static_cast<uint32_t>(
          config_.signal_policy_duration / kMillisecond);
      SignalStateFor(culprit).relay_policing = local;
    } else {
      AnomalySignal relayed = *anomaly;
      relayed.countdown = static_cast<uint16_t>(
          relayed.countdown > config_.countdown_relay_decrement
              ? relayed.countdown - config_.countdown_relay_decrement
              : 1);
      SignalStateFor(culprit).relay_anomaly = relayed;
      monitor_.RecordExternalAlarm(culprit, AnomalyReason::kUpstreamSignal, now());
    }
  }
  if (auto congestion = GetCongestionSignal(answer); congestion.has_value()) {
    ++signals_processed_[kCongestionSignal];
    SignalStateFor(culprit).relay_congestion = *congestion;
  }
}

// ---------------------------------------------------------------------------
// Outgoing traffic (resolver -> network)
// ---------------------------------------------------------------------------

void DccNode::Send(uint16_t src_port, Endpoint dst, WireBytes payload) {
  const Message* msg = payload.Get<Message>();
  if (msg != nullptr && msg->IsQuery() && dst.port == kDnsPort) {
    HandleOutgoingQuery(src_port, dst, std::move(payload));
  } else if (msg != nullptr && msg->IsResponse()) {
    HandleOutgoingResponse(src_port, dst, std::move(payload));
  } else {
    SendDatagram(src_port, dst, std::move(payload));
  }
}

SourceId DccNode::AggregateClient(SourceId client) const {
  const int bits = config_.client_prefix_bits;
  if (bits >= 32 || bits <= 0) {
    return client;
  }
  return client & ~((1u << (32 - bits)) - 1u);
}

SourceId DccNode::AttributionSource(const Message& query, Attribution* attribution,
                                    bool* has_attribution) const {
  if (auto attr = GetAttribution(query); attr.has_value()) {
    *attribution = *attr;
    *has_attribution = true;
    return AggregateClient(attr->client_addr);
  }
  *has_attribution = false;
  // Unattributed resolver-internal query (e.g. prefetch): bucket under the
  // resolver's own address.
  return address();
}

void DccNode::FailQuery(const QueuedQuery& queued, telemetry::AuditCause cause,
                        double observed, double limit) {
  // Synthesize SERVFAIL to the wrapped resolver so it fails fast instead of
  // waiting out a timeout (§3.2.1).
  const Message& query = queued.query();
  Message response = MakeResponse(query, Rcode::kServFail);
  response.header.qr = true;
  if (queued.has_attribution) {
    // Carry the span coordinates on the synthesized failure so trace trees
    // show the sub-query as failed rather than vanished.
    SetOption(response, EncodeAttribution(queued.attribution));
  }
  Datagram dgram;
  dgram.src = queued.dst;  // Appears to come from the intended upstream.
  dgram.dst = Endpoint{address(), queued.src_port};
  dgram.payload = WireBytes(std::move(response));
  ++servfails_synthesized_;
  if (obs_ != nullptr) {
    const std::string qname = query.QnameText();
    telemetry::Decision decision{.cause = cause,
                                 .at = now(),
                                 .actor = address(),
                                 .channel = queued.dst.addr,
                                 .observed = observed,
                                 .limit = limit,
                                 .qname = qname};
    if (queued.has_attribution) {
      const Attribution& a = queued.attribution;
      decision.client = a.client_addr;
      decision.trace_id = TraceIdOf(a);
      decision.span_id = SpanOf(a);
      decision.parent_span_id = a.parent_span_id;
      obs_->Span(decision.trace_id, telemetry::SpanKind::kAuthResponse, now(),
                 address(), static_cast<int32_t>(Rcode::kServFail),
                 decision.span_id, a.parent_span_id, /*peer=*/queued.dst.addr);
    }
    obs_->Decide(decision);
  }
  if (queued.has_attribution && IsMopiCause(cause)) {
    ClientSignalState& state = SignalStateFor(queued.attribution.client_addr);
    ++state.congestion_drops;
    state.last_drop_output = queued.dst.addr;
  }
  // Deliver asynchronously to keep resolver re-entrancy simple.
  loop().ScheduleAfter(0, "dcc.deliver", [this, dgram = std::move(dgram)]() mutable {
    if (server_ != nullptr) {
      server_->HandleDatagram(std::move(dgram));
    }
  });
}

void DccNode::HandleOutgoingQuery(uint16_t src_port, Endpoint dst, WireBytes payload) {
  const Message& msg = *payload.Carried<Message>();
  Attribution attribution;
  bool has_attribution = false;
  const SourceId source = AttributionSource(msg, &attribution, &has_attribution);

  // Pre-queue policing (§3.2.3).
  const bool policer_allowed = policer_.AllowQuery(source, now());
  if (obs_ != nullptr && has_attribution) {
    obs_->Span(TraceIdOf(attribution), telemetry::SpanKind::kPolicerVerdict,
               now(), address(), policer_allowed ? 1 : 0, SpanOf(attribution),
               attribution.parent_span_id, /*peer=*/dst.addr);
  }
  if (!policer_allowed) {
    // Blocked clients vs drained rate buckets are distinct causes; the
    // active policy (if still visible) also supplies the deciding rate.
    const ActivePolicy* policy = policer_.Get(source, now());
    const telemetry::AuditCause cause =
        policy != nullptr && policy->type == PolicyType::kBlock
            ? telemetry::AuditCause::kPolicerBlocked
            : telemetry::AuditCause::kPolicerRateExceeded;
    QueuedQuery rejected;
    rejected.payload = std::move(payload);
    rejected.src_port = src_port;
    rejected.dst = dst;
    rejected.attribution = attribution;
    rejected.has_attribution = has_attribution;
    const double rate = policy != nullptr ? policy->rate_qps : 0;
    FailQuery(rejected, cause, /*observed=*/rate, /*limit=*/rate);
    return;
  }

  const uint32_t request_key =
      has_attribution ? (static_cast<uint32_t>(attribution.client_port) << 16) |
                            attribution.request_id
                      : 0;
  monitor_.RecordAttributedQuery(source, request_key, now());

  if (HasDccOptions(msg)) {
    StripDccOptions(*payload.GetMutable<Message>());
  }
  auto [cookie, queued] = queued_.emplace();
  queued.payload = std::move(payload);
  queued.src_port = src_port;
  queued.dst = dst;
  queued.attribution = attribution;
  queued.has_attribution = has_attribution;

  SchedMessage sched;
  sched.source = source;
  sched.output = dst.addr;
  sched.arrival = now();
  sched.cookie = cookie;
  const EnqueueOutcome outcome = scheduler_.Enqueue(sched, now());
  ++enqueue_results_[static_cast<int>(outcome.result)];
  if (obs_ != nullptr && has_attribution) {
    obs_->Span(TraceIdOf(attribution), telemetry::SpanKind::kSchedulerEnqueue,
               now(), address(), static_cast<int32_t>(outcome.result),
               SpanOf(attribution), attribution.parent_span_id,
               /*peer=*/dst.addr);
  }
  if (outcome.evicted.has_value()) {
    ++evictions_;
    if (const std::optional<QueuedQuery> evicted = queued_.Take(outcome.evicted->cookie)) {
      FailQuery(*evicted, telemetry::AuditCause::kMopiEvicted,
                static_cast<double>(scheduler_.QueueDepth(dst.addr)),
                static_cast<double>(config_.scheduler.max_poq_depth));
    }
  }
  if (outcome.result == EnqueueResult::kSuccess) {
    Drain();
    return;
  }
  if (const std::optional<QueuedQuery> failed = queued_.Take(cookie)) {
    FailQuery(*failed, AuditCauseForEnqueue(outcome.result),
              static_cast<double>(scheduler_.QueueDepth(dst.addr)),
              static_cast<double>(config_.scheduler.max_poq_depth));
  }
}

void DccNode::Drain() {
  while (auto msg = scheduler_.Dequeue(now())) {
    std::optional<QueuedQuery> taken = queued_.Take(msg->cookie);
    if (!taken.has_value()) {
      continue;
    }
    QueuedQuery& queued = *taken;
    PendingInfo& info =
        pending_[PendingKey(queued.src_port, queued.query().header.id)];
    info.attribution = queued.attribution;
    info.has_attribution = queued.has_attribution;
    info.created = now();
    info.output = queued.dst.addr;
    if (obs_ != nullptr && queued.has_attribution) {
      const Attribution& a = queued.attribution;
      const uint64_t trace_id = TraceIdOf(a);
      obs_->Span(trace_id, telemetry::SpanKind::kSchedulerDequeue, now(),
                 address(), static_cast<int32_t>(queued.dst.addr), SpanOf(a),
                 a.parent_span_id, /*peer=*/queued.dst.addr);
      obs_->Span(trace_id, telemetry::SpanKind::kEgress, now(), address(),
                 static_cast<int32_t>(queued.dst.addr), SpanOf(a),
                 a.parent_span_id, /*peer=*/queued.dst.addr);
    }
    SendDatagram(queued.src_port, queued.dst, std::move(queued.payload));
    ++queries_sent_;
  }
  const Time next = scheduler_.NextReadyTime(now());
  if (next != kTimeInfinity) {
    ScheduleDrainAt(next);
  }
}

void DccNode::ScheduleDrainAt(Time t) {
  t = std::max(t, now() + 1);
  if (drain_scheduled_for_ <= t) {
    return;
  }
  drain_scheduled_for_ = t;
  loop().ScheduleAt(t, "dcc.dequeue", [this, t]() {
    if (drain_scheduled_for_ == t) {
      drain_scheduled_for_ = kTimeInfinity;
    }
    Drain();
  });
}

void DccNode::HandleOutgoingResponse(uint16_t src_port, Endpoint dst,
                                     WireBytes payload) {
  const SourceId client = AggregateClient(dst.addr);
  monitor_.RecordClientResponse(client, payload.Carried<Message>()->header.rcode, now());
  if (config_.signaling_enabled) {
    AttachSignals(*payload.GetMutable<Message>(), client, dst.port);
  }
  SendDatagram(src_port, dst, std::move(payload));
}

void DccNode::AttachSignals(Message& response, SourceId client, uint16_t client_port) {
  auto it = client_signals_.find(client);
  ClientSignalState* state = it != client_signals_.end() ? &it->second : nullptr;
  const Time t = now();

  // Policing signal: upstream-relayed preferred, else local active policy
  // with recent policing drops (§3.3.2).
  if (state != nullptr && state->relay_policing.has_value()) {
    SetOption(response, EncodePolicingSignal(*state->relay_policing));
    if (config_.emit_extended_errors) {
      SetOption(response, EncodeExtendedError(
                              {state->relay_policing->policy == PolicyType::kBlock
                                   ? kEdeBlocked
                                   : kEdeProhibited,
                               "dcc: policed upstream"}));
    }
    state->relay_policing.reset();
    ++signals_attached_;
  } else if (const ActivePolicy* policy = policer_.Get(client, t); policy != nullptr) {
    if (policer_.TakeDropCount(client) > 0 ||
        response.header.rcode == Rcode::kServFail) {
      PolicingSignal signal;
      signal.policy = policy->type;
      signal.expiry_remaining_ms =
          static_cast<uint32_t>(std::max<Duration>(0, policy->expires - t) / kMillisecond);
      SetOption(response, EncodePolicingSignal(signal));
      if (config_.emit_extended_errors) {
        SetOption(response,
                  EncodeExtendedError({policy->type == PolicyType::kBlock
                                           ? kEdeBlocked
                                           : kEdeProhibited,
                                       "dcc: policed"}));
      }
      ++signals_attached_;
    }
  }

  // Anomaly signal: relayed preferred, else local suspicion (§3.3.1). The
  // local signal goes only on responses to *anomalous* requests — NXDOMAIN
  // answers for an NX-ratio suspicion, failed requests otherwise — so a
  // downstream resolver can map it to the real culprit instead of an
  // innocent client whose answer happens to pass through.
  const AnomalyReason local_reason = monitor_.ReasonFor(client);
  bool response_is_anomalous = false;
  switch (local_reason) {
    case AnomalyReason::kNxDomainRatio:
      response_is_anomalous = response.header.rcode == Rcode::kNxDomain;
      break;
    case AnomalyReason::kAmplification: {
      // Only requests that actually fanned out carry the signal; a benign
      // request that merely failed under congestion must not be framed.
      const uint32_t request_key =
          (static_cast<uint32_t>(client_port) << 16) | response.header.id;
      response_is_anomalous =
          static_cast<double>(monitor_.RequestQueryCount(client, request_key)) >
          config_.anomaly.amplification_threshold;
      break;
    }
    default:
      response_is_anomalous = response.header.rcode == Rcode::kServFail;
      break;
  }
  if (state != nullptr && state->relay_anomaly.has_value()) {
    SetOption(response, EncodeAnomalySignal(*state->relay_anomaly));
    state->relay_anomaly.reset();
    ++signals_attached_;
  } else if (monitor_.IsSuspicious(client, t) && response_is_anomalous) {
    AnomalySignal signal;
    signal.reason = local_reason;
    signal.policy = signal.reason == AnomalyReason::kNxDomainRatio
                        ? PolicyType::kRateLimit
                        : PolicyType::kBlock;
    signal.suspicion_remaining_ms =
        static_cast<uint32_t>(monitor_.SuspicionRemaining(client, t) / kMillisecond);
    signal.countdown = static_cast<uint16_t>(monitor_.CountdownFor(client));
    SetOption(response, EncodeAnomalySignal(signal));
    ++signals_attached_;
  }

  // Congestion signal: relayed preferred, else local scheduler drops
  // (§3.3.3). Local signals accompany the failed request's response.
  if (state != nullptr && state->relay_congestion.has_value()) {
    SetOption(response, EncodeCongestionSignal(*state->relay_congestion));
    state->relay_congestion.reset();
    ++signals_attached_;
  } else if (state != nullptr && state->congestion_drops > 0 &&
             response.header.rcode == Rcode::kServFail) {
    CongestionSignal signal;
    signal.dropped_queries = static_cast<uint32_t>(state->congestion_drops);
    const size_t active = std::max<size_t>(
        1, scheduler_.ActiveOutputCount() > 0 ? monitor_.TrackedClients() : 1);
    signal.allocated_qps = static_cast<uint32_t>(
        config_.scheduler.default_channel_qps / static_cast<double>(active));
    SetOption(response, EncodeCongestionSignal(signal));
    if (config_.emit_extended_errors && !GetExtendedError(response).has_value()) {
      SetOption(response,
                EncodeExtendedError({kEdeNetworkError, "dcc: channel congested"}));
    }
    state->congestion_drops = 0;
    ++signals_attached_;
  }
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void DccNode::PeriodicMaintenance() {
  const Time t = now();
  // Window evaluation: convict clients that crossed the alarm threshold.
  for (const auto& event : monitor_.EvaluateWindows(t)) {
    if (obs_ != nullptr) {
      // Alarms accumulated vs the conviction threshold; the event reports
      // the remaining countdown.
      obs_->Decide({.cause = event.convicted
                                 ? telemetry::AuditCause::kAnomalyConvicted
                                 : telemetry::AuditCause::kAnomalyAlarm,
                    .at = t,
                    .actor = address(),
                    .client = event.client,
                    .observed = static_cast<double>(
                        config_.anomaly.alarms_to_convict - event.countdown),
                    .limit = static_cast<double>(config_.anomaly.alarms_to_convict),
                    .qname = AnomalyReasonName(event.reason)});
    }
    if (!event.convicted) {
      continue;
    }
    if (event.reason == AnomalyReason::kNxDomainRatio) {
      policer_.Impose(event.client, PolicyType::kRateLimit, config_.nx_policy_qps,
                      config_.nx_policy_duration, event.reason, t);
      ++convictions_[kRateLimitPolicy];
    } else {
      policer_.Impose(event.client, PolicyType::kBlock, /*rate_qps=*/0,
                      config_.amp_policy_duration, event.reason, t);
      ++convictions_[kBlockPolicy];
    }
  }
  policer_.Purge(t);
  monitor_.PurgeIdle(t, config_.state_idle_timeout);
  scheduler_.PurgeIdle(t, config_.state_idle_timeout);
  if (capacity_estimator_.enabled()) {
    for (const auto& [output, qps] : capacity_estimator_.Tick(t)) {
      scheduler_.SetChannelCapacity(output, qps);
      ++capacity_updates_;
      if (obs_ != nullptr) {
        // AIMD updates move both ways; only shrinkage is a decision worth
        // explaining. Direction comes from observer-only bookkeeping so the
        // control loop stays untouched.
        auto [last, inserted] = observed_capacity_.try_emplace(output, qps);
        if (!inserted && qps < last->second) {
          DecideCapacityShrunk(output, qps, last->second, "aimd_decrease");
        }
        last->second = qps;
      }
    }
    capacity_estimator_.PurgeIdle(t, config_.state_idle_timeout);
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.created + config_.pending_query_ttl < t) {
      // The query concluded unanswered: evidence of upstream rate limiting.
      if (capacity_estimator_.enabled()) {
        capacity_estimator_.RecordLost(it->second.output, t);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = client_signals_.begin(); it != client_signals_.end();) {
    ClientSignalState& state = it->second;
    const bool has_signal = state.relay_anomaly.has_value() ||
                            state.relay_policing.has_value() ||
                            state.relay_congestion.has_value() ||
                            state.congestion_drops > 0;
    if (!has_signal && state.last_active + config_.state_idle_timeout < t) {
      it = client_signals_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t DccNode::MemoryFootprint() const {
  size_t bytes = scheduler_.MemoryFootprint();
  bytes += monitor_.MemoryFootprint();
  bytes += policer_.MemoryFootprint();
  bytes += capacity_estimator_.MemoryFootprint();
  bytes += pending_.size() * (sizeof(uint64_t) + sizeof(PendingInfo) + 2 * sizeof(void*));
  bytes += client_signals_.size() *
           (sizeof(SourceId) + sizeof(ClientSignalState) + 2 * sizeof(void*));
  // A queued query's state is its entry and the message its payload holds.
  queued_.ForEach([&bytes](const QueuedQuery& queued) {
    bytes += sizeof(uint64_t) + sizeof(QueuedQuery) - sizeof(WireBytes) + sizeof(Message) +
             queued.query().Q().qname.WireLength();
  });
  return bytes;
}

size_t DccNode::PerClientStateCount() const {
  return monitor_.TrackedClients() + client_signals_.size();
}

}  // namespace dcc
