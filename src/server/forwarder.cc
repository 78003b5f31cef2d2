#include "src/server/forwarder.h"

#include <algorithm>

#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Fixed memory-model charges per entry, in bytes; not sizeof(), see
// DESIGN.md §14 "Fixed memory-model charges".
constexpr size_t kPendingBytes = 354;

}  // namespace

Forwarder::Forwarder(Transport& transport, ForwarderConfig config, uint64_t seed,
                     telemetry::Observer* obs)
    : transport_(transport),
      config_(config),
      rng_(seed),
      cache_(config.cache_max_entries, config.serve_stale ? config.max_stale : 0),
      tracker_(config.upstream, seed ^ 0x666f7277ULL, obs,
               transport.local_address()),
      obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  const telemetry::Labels host = {{"host", FormatAddress(transport_.local_address())}};
  obs_->Count("forwarder_requests_total", host,
              "Client requests received by the forwarder", &requests_received_);
  obs_->Count("forwarder_stale_answers_total", host,
              "Responses served from expired cache entries (RFC 8767 serve-stale)",
              &stale_responses_);
  obs_->Gauge("forwarder_pending_requests", host,
              "Relayed queries awaiting an upstream answer",
              [this]() { return static_cast<double>(pending_.size()); });
}

void Forwarder::AddUpstream(HostAddress resolver) { upstreams_.push_back(resolver); }

void Forwarder::CrashReset() {
  for (const auto& [port, pending] : pending_) {
    transport_.loop().Cancel(pending.timer);
  }
  pending_.clear();
  cache_ = DnsCache(config_.cache_max_entries,
                    config_.serve_stale ? config_.max_stale : 0);
}

Duration Forwarder::AttemptTimeout(HostAddress upstream, int attempt) {
  if (!config_.adaptive_retry) {
    return config_.upstream_timeout;
  }
  double timeout =
      static_cast<double>(tracker_.RetransmitTimeout(upstream, config_.upstream_timeout));
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.retry_backoff_factor;
  }
  timeout = std::min(timeout, static_cast<double>(config_.retry_backoff_max));
  if (config_.retry_jitter > 0.0) {
    timeout *= 1.0 + (2.0 * rng_.NextDouble() - 1.0) * config_.retry_jitter;
  }
  return std::max<Duration>(static_cast<Duration>(timeout), kMillisecond);
}

std::optional<uint16_t> Forwarder::AllocatePort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const uint16_t port = next_port_++;
    if (next_port_ == 0) {
      next_port_ = 2048;
    }
    if (port >= 1024 && port != kDnsPort && !pending_.contains(port)) {
      return port;
    }
  }
  return std::nullopt;
}

void Forwarder::RespondToClient(const Pending& pending, Message response) {
  response.header.id = pending.query.header.id;
  response.header.qr = true;
  response.header.ra = true;
  response.question = pending.query.question;
  WireBytes payload(std::move(response));
  const Endpoint client = pending.client;
  const uint16_t local_port = pending.local_port;
  if (config_.processing_delay > 0) {
    transport_.loop().ScheduleAfter(
        config_.processing_delay, "forwarder.respond",
        [this, local_port, client, payload = std::move(payload)]() mutable {
          transport_.Send(local_port, client, std::move(payload));
        });
  } else {
    transport_.Send(local_port, client, std::move(payload));
  }
  ++responses_sent_;
}

void Forwarder::HandleDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("forwarder.handle");
  std::optional<Message> decoded = dgram.payload.Take<Message>();
  if (!decoded.has_value()) {
    return;
  }

  if (decoded->IsQuery() && dgram.dst.port == kDnsPort) {
    ++requests_received_;
    if (decoded->question.empty() || upstreams_.empty()) {
      if (obs_ != nullptr && upstreams_.empty()) {
        obs_->Decide({.cause = telemetry::AuditCause::kForwarderNoUpstreams,
                      .at = transport_.now(),
                      .actor = transport_.local_address(),
                      .client = dgram.src.addr,
                      .trace_id = telemetry::MakeTraceId(
                          dgram.src.addr, dgram.src.port, decoded->header.id),
                      .span_id = telemetry::kClientSpanId,
                      .observed = 0,  // Configured upstreams.
                      .limit = 1,
                      .qname = decoded->QnameText()});
      }
      transport_.Send(dgram.dst.port, dgram.src,
                      WireBytes(MakeResponse(*decoded, Rcode::kServFail)));
      ++responses_sent_;
      return;
    }
    const Question& q = decoded->Q();
    if (config_.cache_enabled) {
      if (const CacheEntry* entry = cache_.Lookup(q.qname, q.qtype, transport_.now());
          entry != nullptr) {
        ++cache_hit_responses_;
        Message response = MakeResponse(*decoded, Rcode::kNoError);
        if (entry->kind == CacheEntryKind::kPositive) {
          response.answers = entry->records;
        } else if (entry->kind == CacheEntryKind::kNegativeNxDomain) {
          response.header.rcode = Rcode::kNxDomain;
        }
        Pending fast;
        fast.client = dgram.src;
        fast.local_port = dgram.dst.port;
        fast.query = *decoded;
        RespondToClient(fast, std::move(response));
        return;
      }
    }
    const std::optional<uint16_t> port = AllocatePort();
    if (!port.has_value()) {
      // Every local port awaits an upstream answer: refuse this query
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
    pending.attempts_left = config_.upstream_attempts;
    pending.upstream_index = next_upstream_++ % upstreams_.size();
    ForwardQuery(*port);
    return;
  }

  if (decoded->IsResponse()) {
    auto it = pending_.find(dgram.dst.port);
    if (it == pending_.end()) {
      return;
    }
    Pending& pending = it->second;
    if (decoded->header.id != pending.query.header.id ||
        decoded->question.empty() || !(decoded->Q().qname == pending.query.Q().qname)) {
      return;
    }
    if (pending.last_upstream != kInvalidAddress) {
      tracker_.OnResponse(pending.last_upstream, transport_.now() - pending.sent_at,
                          transport_.now());
    }
    // Cache the relayed response.
    if (config_.cache_enabled) {
      const Question& q = pending.query.Q();
      if (decoded->header.rcode == Rcode::kNoError && !decoded->answers.empty()) {
        cache_.StorePositive(q.qname, q.qtype, decoded->answers, transport_.now());
      } else if (decoded->header.rcode == Rcode::kNxDomain) {
        uint32_t ttl = 60;
        for (const auto& rr : decoded->authority) {
          if (rr.type == RecordType::kSoa) {
            ttl = std::min(rr.ttl, rr.soa().minimum);
          }
        }
        cache_.StoreNegative(q.qname, q.qtype, CacheEntryKind::kNegativeNxDomain, ttl,
                             transport_.now());
      }
    }
    Message response = std::move(*decoded);
    Pending done = std::move(pending);
    pending_.erase(dgram.dst.port);
    transport_.loop().Cancel(done.timer);
    RespondToClient(done, std::move(response));
  }
}

void Forwarder::FailPending(Pending done, telemetry::AuditCause cause,
                            double observed, double limit) {
  if (config_.serve_stale && config_.cache_enabled) {
    const Question& q = done.query.Q();
    if (const CacheEntry* entry =
            cache_.LookupStale(q.qname, q.qtype, transport_.now(), config_.max_stale);
        entry != nullptr) {
      Message response = MakeResponse(done.query, Rcode::kNoError);
      if (entry->kind == CacheEntryKind::kPositive) {
        for (ResourceRecord rr : entry->records) {
          rr.ttl = std::min(rr.ttl, config_.stale_answer_ttl);
          response.answers.push_back(std::move(rr));
        }
      } else if (entry->kind == CacheEntryKind::kNegativeNxDomain) {
        response.header.rcode = Rcode::kNxDomain;
      }
      ++stale_responses_;
      RespondToClient(done, std::move(response));
      return;
    }
  }
  if (obs_ != nullptr) {
    obs_->Decide({.cause = cause,
                  .at = transport_.now(),
                  .actor = transport_.local_address(),
                  .client = done.client.addr,
                  .channel = done.last_upstream == kInvalidAddress
                                 ? 0
                                 : done.last_upstream,
                  .trace_id = telemetry::MakeTraceId(
                      done.client.addr, done.client.port, done.query.header.id),
                  .span_id = telemetry::kClientSpanId,
                  .observed = observed,
                  .limit = limit,
                  .qname = done.query.QnameText()});
  }
  RespondToClient(done, MakeResponse(done.query, Rcode::kServFail));
}

void Forwarder::ForwardQuery(uint16_t port) {
  auto it = pending_.find(port);
  if (it == pending_.end()) {
    return;
  }
  Pending& pending = it->second;
  if (pending.attempts_left <= 0) {
    Pending done = std::move(pending);
    pending_.erase(port);
    FailPending(std::move(done),
                telemetry::AuditCause::kForwarderAttemptsExhausted,
                config_.upstream_attempts, config_.upstream_attempts);
    return;
  }
  const Time now = transport_.now();
  size_t slot = pending.upstream_index % upstreams_.size();
  if (config_.adaptive_retry) {
    // Skip held-down upstreams (the round-robin start already rotates per
    // request). If every upstream is held down and stale answers can cover,
    // fail fast instead of burning attempts against a dead set.
    bool found_live = false;
    for (size_t k = 0; k < upstreams_.size(); ++k) {
      const size_t candidate = (pending.upstream_index + k) % upstreams_.size();
      if (!tracker_.IsHeldDown(upstreams_[candidate], now)) {
        slot = candidate;
        pending.upstream_index = candidate;
        found_live = true;
        break;
      }
    }
    if (!found_live && config_.serve_stale) {
      Pending done = std::move(pending);
      pending_.erase(port);
      FailPending(std::move(done), telemetry::AuditCause::kForwarderNoUpstreams,
                  /*observed=*/0, /*limit=*/1);
      return;
    }
  }
  --pending.attempts_left;
  const HostAddress upstream = upstreams_[slot];
  ++pending.upstream_index;
  pending.last_upstream = upstream;
  pending.sent_at = now;
  const int attempt = pending.attempt++;

  // The rd flag and attribution option depend only on the original query,
  // so every attempt sends the same message: a fresh copy, which its
  // receiver owns outright.
  Message query = pending.query;
  query.header.rd = true;
  if (config_.attach_attribution) {
    SetOption(query, EncodeAttribution(Attribution{pending.client.addr,
                                                   pending.client.port,
                                                   pending.query.header.id}));
  }
  transport_.Send(port, Endpoint{upstream, kDnsPort}, WireBytes(std::move(query)));
  ++queries_sent_;

  pending.timer = transport_.loop().ScheduleAfter(
      AttemptTimeout(upstream, attempt), "forwarder.timeout",
      [this, port]() { OnTimeout(port); });
}

void Forwarder::OnTimeout(uint16_t port) {
  const HostAddress upstream = pending_.at(port).last_upstream;
  if (upstream != kInvalidAddress) {
    tracker_.OnTimeout(upstream, transport_.now());
  }
  ForwardQuery(port);
}

size_t Forwarder::MemoryFootprint() const {
  size_t bytes = cache_.MemoryFootprint() + tracker_.MemoryFootprint();
  bytes += pending_.size() * kPendingBytes;
  return bytes;
}

}  // namespace dcc
