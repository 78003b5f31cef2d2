#include "src/server/stub.h"

#include <algorithm>

#include "src/common/ids.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

thread_local uint64_t g_total_queries_launched = 0;

}  // namespace

uint64_t StubClient::TotalQueriesLaunched() { return g_total_queries_launched; }

StubClient::StubClient(Transport& transport, StubConfig config,
                       QuestionGenerator generator, telemetry::Observer* obs)
    : transport_(transport),
      config_(config),
      generator_(std::move(generator)),
      latency_(/*min_value=*/1.0, /*growth=*/1.05),
      obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  const telemetry::Labels client{{"client", FormatAddress(transport_.local_address())}};
  obs_->Count("stub_requests_total", client, "Query attempts sent by the stub",
              &requests_sent_);
  const char* help = "Completed stub requests by outcome";
  telemetry::Labels ok = client;
  ok.emplace_back("outcome", "success");
  obs_->Count("stub_responses_total", std::move(ok), help, &succeeded_);
  telemetry::Labels bad = client;
  bad.emplace_back("outcome", "failure");
  obs_->Count("stub_responses_total", std::move(bad), help, &failed_);
  latency_histogram_ = obs_->Histogram(
      "stub_latency_us", client, "End-to-end request latency of successful queries");
}

void StubClient::AddResolver(HostAddress resolver) { resolvers_.push_back(resolver); }

double StubClient::SuccessRatio() const {
  const uint64_t total = succeeded_ + failed();
  return total > 0 ? static_cast<double>(succeeded_) / static_cast<double>(total) : 0.0;
}

std::optional<uint16_t> StubClient::AllocatePort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const uint16_t port = next_port_++;
    if (next_port_ == 0) {
      next_port_ = 10000;
    }
    if (port >= 1024 && port != kDnsPort && !pending_.contains(port)) {
      return port;
    }
  }
  return std::nullopt;
}

void StubClient::Start() {
  if (resolvers_.empty() || config_.qps <= 0 || config_.stop <= config_.start) {
    return;
  }
  const auto interval = static_cast<Duration>(static_cast<double>(kSecond) / config_.qps);
  const uint64_t count = static_cast<uint64_t>(
      ToSeconds(config_.stop - config_.start) * config_.qps);
  const Time start = config_.start;
  transport_.loop().ScheduleSeries(
      count,
      [start, interval](uint64_t i) { return start + static_cast<Duration>(i) * interval; },
      "stub.launch", [this](uint64_t) { LaunchRequest(); });
}

void StubClient::StartWithSchedule(const std::vector<Time>& times) {
  if (resolvers_.empty()) {
    return;
  }
  // A series needs non-decreasing times, which trace replay does not
  // promise. Sorting changes no event: every launch is the same call, and
  // any of the series' sequence numbers orders the same way against every
  // other event's.
  std::vector<Time> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t count = sorted.size();
  transport_.loop().ScheduleSeries(
      count, [sorted = std::move(sorted)](uint64_t i) { return sorted[i]; },
      "stub.launch", [this](uint64_t) { LaunchRequest(); });
}

void StubClient::LaunchRequest() {
  ++g_total_queries_launched;
  if (transport_.now() < paused_until_) {
    // Policed (DCC-aware): honor the advertised policy instead of burning
    // requests that would fail anyway.
    ++skipped_policed_;
    return;
  }
  const std::optional<uint16_t> port = AllocatePort();
  if (!port.has_value()) {
    ++next_seq_;  // Request i keeps the generator's question i.
    ++failed_;
    return;
  }
  Pending& p = pending_[*port];
  p.seq = next_seq_++;
  p.sent_at = transport_.now();
  p.attempts_left = config_.retries;
  p.resolver_index = config_.rotate_resolvers && !resolvers_.empty()
                         ? p.seq % resolvers_.size()
                         : preferred_resolver_;
  SendAttempt(*port);
}

void StubClient::SendAttempt(uint16_t port) {
  auto it = pending_.find(port);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  const HostAddress resolver = resolvers_[p.resolver_index % resolvers_.size()];
  // The question is a pure function of `seq`, so a retry rebuilds the same
  // query, and the receiver owns each one outright.
  const Question q = generator_(p.seq);
  Message query = MakeQuery(static_cast<uint16_t>(p.seq), q.qname, q.qtype);
  query.EnsureEdns();
  transport_.Send(port, Endpoint{resolver, kDnsPort}, WireBytes(std::move(query)));
  ++requests_sent_;
  if (obs_ != nullptr) {
    obs_->Span(telemetry::MakeTraceId(transport_.local_address(), port,
                                      static_cast<uint16_t>(p.seq)),
               telemetry::SpanKind::kStubSend, transport_.now(),
               transport_.local_address(), static_cast<int32_t>(resolver),
               telemetry::kClientSpanId, /*parent_span_id=*/0,
               /*peer=*/resolver);
  }

  transport_.loop().Cancel(p.timer);
  p.timer = transport_.loop().ScheduleAfter(
      config_.timeout, "stub.timeout", [this, port]() { OnTimeout(port); });
}

void StubClient::Finish(uint16_t port, bool success, Time now) {
  auto it = pending_.find(port);
  if (it == pending_.end()) {
    return;
  }
  const Pending p = it->second;
  pending_.erase(port);
  transport_.loop().Cancel(p.timer);
  if (success) {
    ++succeeded_;
    latency_.Add(static_cast<double>(now - p.sent_at));
    if (obs_ != nullptr) {
      obs_->Observe(latency_histogram_, static_cast<double>(now - p.sent_at));
    }
  } else {
    ++failed_;
  }
}

void StubClient::HandleDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("stub.handle");
  const Message* decoded = dgram.payload.Get<Message>();  // Read in place.
  if (decoded == nullptr || !decoded->IsResponse()) {
    return;
  }
  auto it = pending_.find(dgram.dst.port);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  if (decoded->header.id != static_cast<uint16_t>(p.seq)) {
    return;
  }
  const Time now = transport_.now();

  if (config_.dcc_aware) {
    if (auto congestion = GetCongestionSignal(*decoded); congestion.has_value()) {
      ++congestion_signals_seen_;
      // §3.3.3: requests to the same resolver will likely fail again; prefer
      // a different one for subsequent requests.
      if (resolvers_.size() > 1) {
        preferred_resolver_ = (p.resolver_index + 1) % resolvers_.size();
      }
    }
    if (auto policing = GetPolicingSignal(*decoded); policing.has_value()) {
      ++policing_signals_seen_;
      paused_until_ = std::max(
          paused_until_,
          now + static_cast<Duration>(policing->expiry_remaining_ms) * kMillisecond);
    }
    if (auto anomaly = GetAnomalySignal(*decoded); anomaly.has_value()) {
      ++anomaly_signals_seen_;
    }
  }
  if (GetExtendedError(*decoded).has_value()) {
    ++extended_errors_seen_;
  }

  const Rcode rcode = decoded->header.rcode;
  // The paper counts NOERROR and NXDOMAIN as successful responses (Fig. 8).
  const bool success = rcode == Rcode::kNoError || rcode == Rcode::kNxDomain;
  if (obs_ != nullptr) {
    obs_->Span(telemetry::MakeTraceId(transport_.local_address(), dgram.dst.port,
                                      static_cast<uint16_t>(p.seq)),
               telemetry::SpanKind::kClientReceive, now,
               transport_.local_address(), static_cast<int32_t>(rcode),
               telemetry::kClientSpanId, /*parent_span_id=*/0,
               /*peer=*/dgram.src.addr);
  }
  if (!success && p.attempts_left > 0) {
    --p.attempts_left;
    p.resolver_index = (p.resolver_index + 1) % std::max<size_t>(1, resolvers_.size());
    SendAttempt(dgram.dst.port);
    return;
  }
  Finish(dgram.dst.port, success, now);
}

void StubClient::OnTimeout(uint16_t port) {
  Pending& p = pending_.at(port);
  if (p.attempts_left > 0) {
    --p.attempts_left;
    p.resolver_index = (p.resolver_index + 1) % std::max<size_t>(1, resolvers_.size());
    SendAttempt(port);
    return;
  }
  Finish(port, /*success=*/false, transport_.now());
}

}  // namespace dcc
