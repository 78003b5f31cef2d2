#include "src/server/frontend.h"

#include <algorithm>
#include <limits>

#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Fixed memory-model charges per entry, in bytes; not sizeof(), see
// DESIGN.md §14 "Fixed memory-model charges".
constexpr size_t kMemberBytes = 4;
constexpr size_t kPendingBytes = 354;
constexpr size_t kProbeBytes = 106;

// splitmix64 finalizer: cheap, well-mixed 64-bit hash for rendezvous scoring.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const Name& name) {
  // FNV-1a over the lowercased presentation form (Name equality is
  // case-insensitive, so the hash must be too).
  uint64_t h = 0xcbf29ce484222325ULL;
  const std::string_view wire = name.wire();
  for (size_t at = 0; at < wire.size();) {
    const size_t end = at + 1 + static_cast<uint8_t>(wire[at]);
    for (++at; at < end; ++at) {
      const char c = wire[at];
      h ^= static_cast<uint8_t>(c >= 'A' && c <= 'Z' ? c + 32 : c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0x2e;  // Label separator.
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const char* SteeringPolicyName(SteeringPolicy policy) {
  switch (policy) {
    case SteeringPolicy::kConsistentHash:
      return "consistent_hash";
    case SteeringPolicy::kLeastLoaded:
      return "least_loaded";
    case SteeringPolicy::kRoundRobin:
      return "round_robin";
  }
  return "consistent_hash";
}

bool ParseSteeringPolicyName(const std::string& text, SteeringPolicy* out) {
  for (SteeringPolicy policy :
       {SteeringPolicy::kConsistentHash, SteeringPolicy::kLeastLoaded,
        SteeringPolicy::kRoundRobin}) {
    if (text == SteeringPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

FleetFrontend::FleetFrontend(Transport& transport, FrontendConfig config,
                             uint64_t seed, telemetry::Observer* obs)
    : transport_(transport),
      config_(config),
      rng_(seed ^ 0x66726f6eULL),
      tracker_(config.upstream, seed ^ 0x666c6565ULL, obs,
               transport.local_address()),
      resteer_budget_(config.resteer_budget_qps, config.resteer_budget_burst,
                      transport.now()),
      obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  const telemetry::Labels host = {
      {"host", FormatAddress(transport_.local_address())}};
  obs_->Count("frontend_requests_total", host,
              "Client requests received by the fleet frontend",
              &requests_received_);
  obs_->Count("frontend_resteer_denied_total", host,
              "Post-timeout retries refused by the re-steer budget (answered SERVFAIL)",
              &resteer_denied_);
  obs_->Count("frontend_rotations_total", host,
              "Moving-target rotation epochs advanced", &rotations_);
  obs_->Count("frontend_probes_total", host, "Active health-check probes sent",
              &probes_sent_);
  obs_->Count("frontend_probe_timeouts_total", host,
              "Health-check probes that timed out", &probe_timeouts_);
  obs_->Count("frontend_servfails_total", host,
              "SERVFAIL responses sent to clients", &servfails_sent_);
  failover_latency_ = obs_->Histogram(
      "frontend_failover_latency_us", host,
      "Client-observed latency of queries that needed at least one re-steer");
}

void FleetFrontend::AddMember(HostAddress member) {
  members_.push_back(member);
  steered_.emplace(member, std::array<uint64_t, 2>{});
  if (obs_ != nullptr) {
    obs_->Gauge("resolver_healthy",
                {{"host", FormatAddress(transport_.local_address())},
                 {"resolver", FormatAddress(member)}},
                "1 while the fleet member is not held down, 0 during hold-down",
                [this, member]() {
                  return IsMemberHealthy(member, transport_.now()) ? 1.0 : 0.0;
                });
  }
}

void FleetFrontend::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ArmTimers();
}

void FleetFrontend::ArmTimers() {
  CancelTimers();
  if (config_.health_checks && config_.probe_interval > 0) {
    for (size_t i = 0; i < members_.size(); ++i) {
      // Stagger the first round so a large fleet does not probe in lockstep.
      const Duration offset = static_cast<Duration>(
          config_.probe_interval * (i + 1) / (members_.size() + 1));
      probe_timers_.push_back(transport_.loop().ScheduleAfter(
          offset, "frontend.probe", [this, i]() { SendProbe(i); }));
    }
  }
  if (config_.rotation_period > 0) {
    rotation_timer_ = transport_.loop().ScheduleAfter(
        config_.rotation_period, "frontend.rotate",
        [this]() { OnRotationTick(); });
  }
}

void FleetFrontend::CancelTimers() {
  EventLoop& loop = transport_.loop();
  for (EventId timer : probe_timers_) {
    loop.Cancel(timer);
  }
  probe_timers_.clear();
  loop.Cancel(rotation_timer_);
}

void FleetFrontend::CrashReset() {
  EventLoop& loop = transport_.loop();
  for (const auto& [port, pending] : pending_) {
    loop.Cancel(pending.timer);
  }
  for (const auto& [port, probe] : probe_pending_) {
    loop.Cancel(probe.timer);
  }
  pending_.clear();
  probe_pending_.clear();
  resteer_budget_ = TokenBucket(config_.resteer_budget_qps,
                                config_.resteer_budget_burst, transport_.now());
  // A crashed frontend stops probing and rotating; CrashRestart re-arms.
  CancelTimers();
}

void FleetFrontend::CrashRestart() {
  if (started_) {
    ArmTimers();
  }
}

void FleetFrontend::CountSteer(HostAddress member, bool resteer) {
  if (++steered_[member][resteer ? 1 : 0] != 1 || obs_ == nullptr) {
    return;
  }
  obs_->Count("frontend_steered_total",
              {{"host", FormatAddress(transport_.local_address())},
               {"resolver", FormatAddress(member)},
               {"reason", resteer ? "resteer" : "initial"}},
              "Queries relayed to a fleet member, by steering reason",
              [this, member, resteer]() {
                return static_cast<double>(
                    steered_.find(member)->second[resteer ? 1 : 0]);
              });
}

uint64_t FleetFrontend::SteeredCount(HostAddress member) const {
  auto it = steered_.find(member);
  return it == steered_.end() ? 0 : it->second[0] + it->second[1];
}

bool FleetFrontend::IsMemberHealthy(HostAddress member, Time now) const {
  return !tracker_.IsHeldDown(member, now);
}

size_t FleetFrontend::HealthyCount(Time now) const {
  size_t healthy = 0;
  for (HostAddress member : members_) {
    if (IsMemberHealthy(member, now)) {
      ++healthy;
    }
  }
  return healthy;
}

bool FleetFrontend::InActiveWindow(size_t index) const {
  if (config_.rotation_active <= 0 ||
      static_cast<size_t>(config_.rotation_active) >= members_.size()) {
    return true;
  }
  const size_t shifted = (index + epoch_) % members_.size();
  return shifted < static_cast<size_t>(config_.rotation_active);
}

FleetFrontend::Eligibility FleetFrontend::EligibleTier(Time now) const {
  bool any_live = false;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!tracker_.IsHeldDown(members_[i], now)) {
      if (InActiveWindow(i)) {
        return Eligibility::kActiveLive;
      }
      any_live = true;
    }
  }
  return any_live ? Eligibility::kLive : Eligibility::kAll;
}

bool FleetFrontend::IsEligible(size_t index, Eligibility tier, Time now) const {
  switch (tier) {
    case Eligibility::kActiveLive:
      return InActiveWindow(index) && !tracker_.IsHeldDown(members_[index], now);
    case Eligibility::kLive:
      return !tracker_.IsHeldDown(members_[index], now);
    case Eligibility::kAll:
      return true;
  }
  return true;
}

HostAddress FleetFrontend::PickMember(const Name& qname, Time now) {
  // Walks the eligible members in index order without collecting them: this
  // runs on every relay.
  const Eligibility tier = EligibleTier(now);
  const size_t none = members_.size();
  switch (config_.steering) {
    case SteeringPolicy::kConsistentHash: {
      // Rendezvous hashing: highest hash(qname, member, epoch) wins, so only
      // keys owned by a removed/rotated-out member move. The epoch salt is
      // the moving-target defense: each rotation re-shuffles the mapping.
      uint64_t best_score = 0;
      size_t best = none;
      const uint64_t name_hash = HashName(qname);
      for (size_t index = 0; index < members_.size(); ++index) {
        if (!IsEligible(index, tier, now)) {
          continue;
        }
        if (best == none) {
          best = index;  // The first eligible member wins a zero score.
        }
        const uint64_t score =
            Mix64(name_hash ^ Mix64(static_cast<uint64_t>(members_[index]) ^
                                    (epoch_ << 32)));
        if (score > best_score) {
          best_score = score;
          best = index;
        }
      }
      return members_[best];
    }
    case SteeringPolicy::kLeastLoaded: {
      size_t best = none;
      uint64_t best_load = std::numeric_limits<uint64_t>::max();
      for (size_t index = 0; index < members_.size(); ++index) {
        if (!IsEligible(index, tier, now)) {
          continue;
        }
        uint64_t load = 0;
        for (const auto& [port, pending] : pending_) {
          load += pending.member == members_[index] ? 1 : 0;
        }
        if (load < best_load) {
          best_load = load;
          best = index;
        }
      }
      return members_[best];
    }
    case SteeringPolicy::kRoundRobin: {
      size_t eligible = 0;
      for (size_t index = 0; index < members_.size(); ++index) {
        eligible += IsEligible(index, tier, now) ? 1 : 0;
      }
      size_t skip = next_member_++ % eligible;
      for (size_t index = 0; index < members_.size(); ++index) {
        if (IsEligible(index, tier, now) && skip-- == 0) {
          return members_[index];
        }
      }
      break;
    }
  }
  return members_.front();
}

Duration FleetFrontend::AttemptTimeout(HostAddress member, int attempt) {
  double timeout = static_cast<double>(
      tracker_.RetransmitTimeout(member, config_.query_timeout));
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.retry_backoff_factor;
  }
  timeout = std::min(timeout, static_cast<double>(config_.retry_backoff_max));
  if (config_.retry_jitter > 0.0) {
    timeout *= 1.0 + (2.0 * rng_.NextDouble() - 1.0) * config_.retry_jitter;
  }
  return std::max<Duration>(static_cast<Duration>(timeout), kMillisecond);
}

std::optional<uint16_t> FleetFrontend::AllocatePort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const uint16_t port = next_port_++;
    if (next_port_ == 0) {
      next_port_ = 2048;
    }
    if (port >= 1024 && port != kDnsPort && !pending_.contains(port) &&
        !probe_pending_.contains(port)) {
      return port;
    }
  }
  return std::nullopt;
}

void FleetFrontend::RespondToClient(const Pending& pending, Message response) {
  response.header.id = pending.query.header.id;
  response.header.qr = true;
  response.header.ra = true;
  response.question = pending.query.question;
  if (response.header.rcode == Rcode::kServFail) {
    ++servfails_sent_;
  }
  WireBytes payload(std::move(response));
  const Endpoint client = pending.client;
  const uint16_t local_port = pending.local_port;
  if (config_.processing_delay > 0) {
    transport_.loop().ScheduleAfter(
        config_.processing_delay, "frontend.respond",
        [this, local_port, client, payload = std::move(payload)]() mutable {
          transport_.Send(local_port, client, std::move(payload));
        });
  } else {
    transport_.Send(local_port, client, std::move(payload));
  }
  ++responses_sent_;
}

void FleetFrontend::FailPending(Pending done, telemetry::AuditCause cause,
                                double observed, double limit) {
  if (obs_ != nullptr) {
    const uint64_t trace_id = telemetry::MakeTraceId(
        done.client.addr, done.client.port, done.query.header.id);
    // Synthesized failures must still show up in trace trees as a response
    // decision at this node, not as a vanished query.
    obs_->Span(trace_id, telemetry::SpanKind::kResolverResponse,
               transport_.now(), transport_.local_address(),
               static_cast<int32_t>(Rcode::kServFail));
    obs_->Decide({.cause = cause,
                  .at = transport_.now(),
                  .actor = transport_.local_address(),
                  .client = done.client.addr,
                  .channel = done.member == kInvalidAddress ? 0 : done.member,
                  .trace_id = trace_id,
                  .span_id = telemetry::kClientSpanId,
                  .observed = observed,
                  .limit = limit,
                  .qname = done.query.QnameText()});
  }
  RespondToClient(done, MakeResponse(done.query, Rcode::kServFail));
}

void FleetFrontend::HandleDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("frontend.handle");
  std::optional<Message> decoded = dgram.payload.Take<Message>();
  if (!decoded.has_value()) {
    return;
  }

  if (decoded->IsQuery() && dgram.dst.port == kDnsPort) {
    ++requests_received_;
    if (decoded->question.empty() || members_.empty()) {
      WireBytes response(MakeResponse(*decoded, Rcode::kServFail));
      ++servfails_sent_;
      if (obs_ != nullptr) {
        const uint64_t trace_id = telemetry::MakeTraceId(
            dgram.src.addr, dgram.src.port, decoded->header.id);
        obs_->Span(trace_id, telemetry::SpanKind::kResolverResponse,
                   transport_.now(), transport_.local_address(),
                   static_cast<int32_t>(Rcode::kServFail));
        // Relaying needs at least one member and a question.
        obs_->Decide({.cause = telemetry::AuditCause::kFrontendNoMembers,
                      .at = transport_.now(),
                      .actor = transport_.local_address(),
                      .client = dgram.src.addr,
                      .trace_id = trace_id,
                      .span_id = telemetry::kClientSpanId,
                      .observed = static_cast<double>(members_.size()),
                      .limit = 1,
                      .qname = decoded->QnameText()});
      }
      transport_.Send(dgram.dst.port, dgram.src, std::move(response));
      ++responses_sent_;
      return;
    }
    const std::optional<uint16_t> port = AllocatePort();
    if (!port.has_value()) {
      // Every local port awaits a member's answer: refuse this query
      // rather than overwrite one in flight.
      Pending refused;
      refused.client = dgram.src;
      refused.local_port = dgram.dst.port;
      refused.query = std::move(*decoded);
      RespondToClient(refused, MakeResponse(refused.query, Rcode::kServFail));
      return;
    }
    Pending& pending = pending_[*port];
    pending.client = dgram.src;
    pending.local_port = dgram.dst.port;
    pending.query = std::move(*decoded);
    pending.attempts_left = config_.max_attempts;
    RelayQuery(*port, /*is_resteer=*/false);
    return;
  }

  if (decoded->IsResponse()) {
    if (auto probe_it = probe_pending_.find(dgram.dst.port);
        probe_it != probe_pending_.end()) {
      const PendingProbe probe = probe_it->second;
      if (decoded->header.id != probe.query_id || dgram.src.addr != probe.member) {
        return;
      }
      probe_pending_.erase(dgram.dst.port);
      transport_.loop().Cancel(probe.timer);
      // Any probe answer counts as liveness; it also clears an active
      // hold-down (recovery) through the tracker.
      tracker_.OnResponse(probe.member, transport_.now() - probe.sent_at,
                          transport_.now());
      return;
    }
    auto it = pending_.find(dgram.dst.port);
    if (it == pending_.end()) {
      return;
    }
    Pending& pending = it->second;
    if (decoded->header.id != pending.query.header.id ||
        decoded->question.empty() ||
        !(decoded->Q().qname == pending.query.Q().qname)) {
      return;
    }
    if (pending.member != kInvalidAddress) {
      tracker_.OnResponse(pending.member, transport_.now() - pending.sent_at,
                          transport_.now());
    }
    if (pending.attempt > 1 && obs_ != nullptr) {
      obs_->Observe(failover_latency_,
                    static_cast<double>(transport_.now() - pending.first_sent_at));
    }
    Message response = std::move(*decoded);
    Pending done = std::move(pending);
    pending_.erase(dgram.dst.port);
    transport_.loop().Cancel(done.timer);
    RespondToClient(done, std::move(response));
  }
}

void FleetFrontend::RelayQuery(uint16_t port, bool is_resteer) {
  auto it = pending_.find(port);
  if (it == pending_.end()) {
    return;
  }
  Pending& pending = it->second;
  if (pending.attempts_left <= 0) {
    Pending done = std::move(pending);
    pending_.erase(port);
    FailPending(std::move(done),
                telemetry::AuditCause::kFrontendAttemptsExhausted,
                static_cast<double>(config_.max_attempts),
                static_cast<double>(config_.max_attempts));
    return;
  }
  const Time now = transport_.now();
  if (is_resteer) {
    // The retry budget bounds the fleet-wide burst of re-steered traffic a
    // member outage can throw onto the survivors (failover thundering herd).
    if (!resteer_budget_.TryConsume(now)) {
      ++resteer_denied_;
      Pending done = std::move(pending);
      pending_.erase(port);
      FailPending(std::move(done), telemetry::AuditCause::kFrontendBudgetDenied,
                  /*observed=*/0, config_.resteer_budget_burst);
      return;
    }
    ++resteers_;
  }
  --pending.attempts_left;
  const HostAddress member = PickMember(pending.query.Q().qname, now);
  pending.member = member;
  pending.sent_at = now;
  if (pending.attempt == 0) {
    pending.first_sent_at = now;
  }
  const int attempt = pending.attempt++;
  CountSteer(member, is_resteer);

  // Re-steering changes the member, not the query: each attempt sends a
  // fresh copy, which its receiver owns outright.
  Message query = pending.query;
  query.header.rd = true;
  if (config_.attach_attribution) {
    SetOption(query, EncodeAttribution(Attribution{pending.client.addr,
                                                   pending.client.port,
                                                   pending.query.header.id}));
  }
  transport_.Send(port, Endpoint{member, kDnsPort}, WireBytes(std::move(query)));
  ++queries_sent_;

  pending.timer = transport_.loop().ScheduleAfter(
      AttemptTimeout(member, attempt), "frontend.timeout",
      [this, port]() { OnRelayTimeout(port); });
}

void FleetFrontend::OnRelayTimeout(uint16_t port) {
  const HostAddress member = pending_.at(port).member;
  if (member != kInvalidAddress) {
    tracker_.OnTimeout(member, transport_.now());
  }
  RelayQuery(port, /*is_resteer=*/true);
}

void FleetFrontend::SendProbe(size_t member_index) {
  if (member_index >= members_.size()) {
    return;
  }
  const HostAddress member = members_[member_index];
  if (member_index < probe_timers_.size()) {
    probe_timers_[member_index] = transport_.loop().ScheduleAfter(
        config_.probe_interval, "frontend.probe",
        [this, member_index]() { SendProbe(member_index); });
  }
  auto parsed = Name::Parse(config_.probe_name);
  if (!parsed.has_value()) {
    return;
  }
  const std::optional<uint16_t> free_port = AllocatePort();
  if (!free_port.has_value()) {
    return;  // Every port is busy; the next probe tick tries again.
  }
  const uint16_t port = *free_port;
  const uint16_t id = next_probe_id_++;
  PendingProbe& probe = probe_pending_[port];
  probe.member = member;
  probe.sent_at = transport_.now();
  probe.query_id = id;
  transport_.Send(port, Endpoint{member, kDnsPort},
                  WireBytes(MakeQuery(id, *parsed, RecordType::kA)));
  ++probes_sent_;
  const Duration timeout = std::max<Duration>(
      tracker_.RetransmitTimeout(member, config_.probe_timeout), kMillisecond);
  probe.timer = transport_.loop().ScheduleAfter(
      timeout, "frontend.probe_timeout", [this, port]() { OnProbeTimeout(port); });
}

void FleetFrontend::OnProbeTimeout(uint16_t port) {
  const HostAddress member = probe_pending_.at(port).member;
  probe_pending_.erase(port);
  ++probe_timeouts_;
  tracker_.OnTimeout(member, transport_.now());
}

void FleetFrontend::OnRotationTick() {
  ++epoch_;
  ++rotations_;
  rotation_timer_ = transport_.loop().ScheduleAfter(
      config_.rotation_period, "frontend.rotate",
      [this]() { OnRotationTick(); });
}

size_t FleetFrontend::MemoryFootprint() const {
  size_t bytes = tracker_.MemoryFootprint();
  bytes += members_.size() * kMemberBytes;
  bytes += pending_.size() * kPendingBytes;
  bytes += probe_pending_.size() * kProbeBytes;
  return bytes;
}

FleetFrontend::DebugState FleetFrontend::GetDebugState(Time now) const {
  DebugState state;
  state.epoch = epoch_;
  state.pending = pending_.size();
  state.resteers = resteers_;
  state.resteer_denied = resteer_denied_;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (InActiveWindow(i)) {
      state.active_members.push_back(members_[i]);
    }
  }
  state.tracker = tracker_.GetDebugState(now);
  return state;
}

}  // namespace dcc
