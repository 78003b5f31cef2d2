#include "src/telemetry/audit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/common/ids.h"

namespace dcc {
namespace telemetry {

const char* AuditCauseName(AuditCause cause) {
  switch (cause) {
    case AuditCause::kPolicerRateExceeded:
      return "policer.rate_exceeded";
    case AuditCause::kPolicerBlocked:
      return "policer.blocked";
    case AuditCause::kMopiChannelCongested:
      return "mopi.channel_congested";
    case AuditCause::kMopiQueueFull:
      return "mopi.queue_full";
    case AuditCause::kMopiClientOverspeed:
      return "mopi.client_overspeed";
    case AuditCause::kMopiEvicted:
      return "mopi.evicted";
    case AuditCause::kAnomalyAlarm:
      return "anomaly.alarm";
    case AuditCause::kAnomalyConvicted:
      return "anomaly.convicted";
    case AuditCause::kSignalConvicted:
      return "signal.convicted";
    case AuditCause::kCapacityShrunk:
      return "capacity.shrunk";
    case AuditCause::kFrontendBudgetDenied:
      return "frontend.budget_denied";
    case AuditCause::kFrontendAttemptsExhausted:
      return "frontend.attempts_exhausted";
    case AuditCause::kFrontendNoMembers:
      return "frontend.no_members";
    case AuditCause::kForwarderAttemptsExhausted:
      return "forwarder.attempts_exhausted";
    case AuditCause::kForwarderNoUpstreams:
      return "forwarder.no_upstreams";
    case AuditCause::kResolverIngressRrl:
      return "resolver.ingress_rrl";
    case AuditCause::kResolverEgressRl:
      return "resolver.egress_rl";
    case AuditCause::kResolverDeadlineExceeded:
      return "resolver.deadline_exceeded";
    case AuditCause::kResolverUpstreamDead:
      return "resolver.upstream_dead";
    case AuditCause::kFaultActivated:
      return "fault.activated";
  }
  return "?";
}

bool AuditCauseFromName(std::string_view name, AuditCause* out) {
  for (int i = 0; i < kAuditCauseCount; ++i) {
    const AuditCause cause = static_cast<AuditCause>(i);
    if (name == AuditCauseName(cause)) {
      *out = cause;
      return true;
    }
  }
  return false;
}

void SetAuditQname(AuditRecord& record, std::string_view name) {
  const size_t n = std::min(name.size(), kAuditQnameCapacity - 1);
  for (size_t i = 0; i < n; ++i) {
    const char c = name[i];
    record.qname[i] =
        (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) ? '?'
                                                                        : c;
  }
  record.qname[n] = '\0';
}

DecisionAuditLog::DecisionAuditLog(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  // Reserve eagerly so Record() never allocates on the hot path.
  ring_.reserve(capacity_);
}

void DecisionAuditLog::Record(const AuditRecord& record) {
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_ % capacity_] = record;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_recorded_;
}

size_t DecisionAuditLog::size() const { return ring_.size(); }

uint64_t DecisionAuditLog::dropped() const {
  return total_recorded_ - static_cast<uint64_t>(ring_.size());
}

std::vector<AuditRecord> DecisionAuditLog::Records() const {
  std::vector<AuditRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // `next_` points at the oldest retained record once the ring wrapped.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<uint64_t> DecisionAuditLog::CauseHistogram() const {
  std::vector<uint64_t> histogram(kAuditCauseCount, 0);
  for (const AuditRecord& record : Records()) {
    const size_t ordinal = static_cast<size_t>(record.cause);
    if (ordinal < histogram.size()) {
      ++histogram[ordinal];
    }
  }
  return histogram;
}

std::string DecisionAuditLog::ExportJsonLines() const {
  std::string out;
  char buf[384];
  for (const AuditRecord& record : Records()) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"ts_us\":%" PRId64
        ",\"cause\":\"%s\",\"actor\":\"%s\",\"client\":\"%s\""
        ",\"channel\":\"%s\",\"trace_id\":\"%016" PRIx64
        "\",\"span_id\":%u,\"parent_span_id\":%u"
        ",\"observed\":%.6g,\"limit\":%.6g,\"qname\":\"%s\"}\n",
        record.at, AuditCauseName(record.cause),
        FormatAddress(record.actor).c_str(),
        FormatAddress(record.client).c_str(),
        FormatAddress(record.channel).c_str(), record.trace_id,
        record.span_id, record.parent_span_id, record.observed, record.limit,
        record.qname);
    out += buf;
  }
  return out;
}

}  // namespace telemetry
}  // namespace dcc
