#include "src/server/authoritative.h"

#include <algorithm>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/dns/codec.h"
#include "src/telemetry/profiler.h"

namespace dcc {

AuthoritativeServer::AuthoritativeServer(Transport& transport,
                                         AuthoritativeConfig config,
                                         telemetry::Observer* obs)
    : transport_(transport), config_(config) {
  if (obs == nullptr) {
    return;
  }
  const telemetry::Labels server{{"server", FormatAddress(transport_.local_address())}};
  obs->Count("auth_queries_total", server,
             "Queries received by the authoritative", &queries_received_);
  obs->Count("auth_responses_total", server,
             "Responses sent by the authoritative", &responses_sent_);
  obs->Count("auth_rate_limited_total", server,
             "Responses suppressed or rewritten by RRL", &rate_limited_);
  obs->Gauge("auth_rrl_tracked_clients", server,
             "Client addresses with live RRL token buckets",
             [this]() { return static_cast<double>(rrl_state_.size()); });
}

void AuthoritativeServer::AddZone(std::shared_ptr<const Zone> zone) {
  zones_.push_back(std::move(zone));
}

const Zone* AuthoritativeServer::FindZone(const Name& qname) const {
  const Zone* best = nullptr;
  for (const auto& zone : zones_) {
    if (qname.IsSubdomainOf(zone->apex())) {
      if (best == nullptr || zone->apex().LabelCount() > best->apex().LabelCount()) {
        best = zone.get();
      }
    }
  }
  return best;
}

bool AuthoritativeServer::PassesRrl(HostAddress client, Rcode rcode) {
  if (!config_.rrl.enabled) {
    return true;
  }
  const Time now = transport_.now();
  auto [it, inserted] = rrl_state_.try_emplace(
      client, ClientRrl{TokenBucket(config_.rrl.noerror_qps, config_.rrl.burst, now),
                        TokenBucket(config_.rrl.nxdomain_qps, config_.rrl.burst, now),
                        0});
  ClientRrl& state = it->second;
  if (state.blocked_until > now) {
    return false;
  }
  TokenBucket& bucket = config_.rrl.per_class && rcode == Rcode::kNxDomain
                            ? state.nxdomain
                            : state.noerror;
  if (bucket.TryConsume(now)) {
    return true;
  }
  if (config_.rrl.penalty > 0) {
    state.blocked_until = now + config_.rrl.penalty;
  }
  return false;
}

void AuthoritativeServer::Respond(const Datagram& request_dgram, Message response) {
  const Duration delay = config_.processing_delay;
  const Endpoint reply_to = request_dgram.src;
  const uint16_t local_port = request_dgram.dst.port;
  WireBytes payload(std::move(response));
  if (delay > 0) {
    transport_.loop().ScheduleAfter(delay, "auth.respond",
                                    [this, local_port, reply_to,
                                     payload = std::move(payload)]() mutable {
                                      transport_.Send(local_port, reply_to, std::move(payload));
                                    });
  } else {
    transport_.Send(local_port, reply_to, std::move(payload));
  }
  ++responses_sent_;
}

void AuthoritativeServer::HandleDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("auth.handle");
  // Read in place: the query is never kept, so a shared payload is not copied.
  const Message* decoded = dgram.payload.Get<Message>();
  if (decoded == nullptr || !decoded->IsQuery() || decoded->question.empty()) {
    return;
  }
  const Message& query = *decoded;
  ++queries_received_;

  const Question& q = query.Q();
  const Zone* zone = FindZone(q.qname);
  if (zone == nullptr) {
    Message response = MakeResponse(query, Rcode::kRefused);
    if (query.edns.has_value()) {
      response.EnsureEdns();
    }
    Respond(dgram, std::move(response));
    return;
  }

  // The match alone fixes the response code, so RRL decides before any
  // record is copied: an answer it suppresses is never rendered.
  const ZoneMatch match = zone->Find(q.qname, q.qtype);
  const Rcode rcode = match.status == LookupStatus::kNxDomain    ? Rcode::kNxDomain
                      : match.status == LookupStatus::kNotInZone ? Rcode::kRefused
                                                                 : Rcode::kNoError;
  if (!PassesRrl(dgram.src.addr, rcode)) {
    ++rate_limited_;
    switch (config_.rrl.action) {
      case RateLimitAction::kDrop:
        return;
      case RateLimitAction::kServFail:
        Respond(dgram, MakeResponse(query, Rcode::kServFail));
        return;
      case RateLimitAction::kRefused:
        Respond(dgram, MakeResponse(query, Rcode::kRefused));
        return;
    }
  }

  Message response = MakeResponse(query, rcode);
  if (query.edns.has_value()) {
    response.EnsureEdns();
  }
  LookupResult result = zone->Render(match, q.qname);
  switch (result.status) {
    case LookupStatus::kSuccess:
    case LookupStatus::kCname:
      response.header.aa = true;
      response.answers = std::move(result.records);
      break;
    case LookupStatus::kNoData:
    case LookupStatus::kNxDomain:
      response.header.aa = true;
      if (result.soa.has_value()) {
        response.authority.push_back(std::move(*result.soa));
      }
      if (result.nsec.has_value()) {
        response.authority.push_back(std::move(*result.nsec));
      }
      break;
    case LookupStatus::kDelegation:
      response.header.aa = false;
      response.authority = std::move(result.records);
      response.additional = std::move(result.glue);
      break;
    case LookupStatus::kNotInZone:
      break;
  }
  Respond(dgram, std::move(response));
}

}  // namespace dcc
