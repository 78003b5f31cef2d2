#include "src/telemetry/audit.h"

#include <algorithm>
#include <cstring>

#include "src/common/ids.h"
#include "src/telemetry/line_writer.h"

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

DecisionAuditLog::DecisionAuditLog(size_t capacity) : ring_(capacity) {}

void DecisionAuditLog::Record(const AuditRecord& record) { ring_.Push(record); }

std::vector<AuditRecord> DecisionAuditLog::Records() const {
  std::vector<AuditRecord> out;
  out.reserve(ring_.size());
  ring_.ForEach([&](const AuditRecord& record) { out.push_back(record); });
  return out;
}

std::vector<uint64_t> DecisionAuditLog::CauseHistogram() const {
  std::vector<uint64_t> histogram(kAuditCauseCount, 0);
  ring_.ForEach([&](const AuditRecord& record) {
    const size_t ordinal = static_cast<size_t>(record.cause);
    if (ordinal < histogram.size()) {
      ++histogram[ordinal];
    }
  });
  return histogram;
}

// The audit line's fixed text: the line format with its fields left out.
constexpr std::string_view kAuditLineText =
    R"({"ts_us":,"cause":"","actor":"","client":"","channel":"")"
    R"(,"trace_id":"","span_id":,"parent_span_id":)"
    R"(,"observed":,"limit":,"qname":""})"
    "\n";
// The longest AuditCauseName, "forwarder.attempts_exhausted".
constexpr size_t kMaxCauseChars = 28;

const size_t DecisionAuditLog::kMaxLineBytes =
    kAuditLineText.size() + kMaxIntChars<Time> + kMaxCauseChars +
    3 * kMaxAddressChars + LineWriter::kHex16Chars +
    2 * kMaxIntChars<uint32_t> + 2 * LineWriter::kMaxDoubleChars +
    (kAuditQnameCapacity - 1);
static_assert(DecisionAuditLog::kMaxLineBytes <= LineWriter::kLineCapacity);

std::string DecisionAuditLog::ExportJsonLines() const {
  std::string out;
  // Reserved, not resized: zero-filling would touch every page.
  out.reserve(ring_.size() * kMaxLineBytes);
  LineWriter line(&out);
  ring_.ForEach([&](const AuditRecord& record) {
    line.Text(R"({"ts_us":)")
        .Int(record.at)
        .Text(R"(,"cause":")")
        .Text(AuditCauseName(record.cause))
        .Text(R"(","actor":")")
        .Address(record.actor)
        .Text(R"(","client":")")
        .Address(record.client)
        .Text(R"(","channel":")")
        .Address(record.channel)
        .Text(R"(","trace_id":")")
        .Hex16(record.trace_id)
        .Text(R"(","span_id":)")
        .Int(record.span_id)
        .Text(R"(,"parent_span_id":)")
        .Int(record.parent_span_id)
        .Text(R"(,"observed":)")
        .Double(record.observed)
        .Text(R"(,"limit":)")
        .Double(record.limit)
        .Text(R"(,"qname":")")
        .Text({record.qname, strnlen(record.qname, kAuditQnameCapacity)})
        .Text(R"("})")
        .End();
  });
  return out;
}

}  // namespace telemetry
}  // namespace dcc
