#include "src/telemetry/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "src/common/ids.h"
#include "src/common/json.h"

namespace dcc {
namespace telemetry {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStubSend:
      return "stub_send";
    case SpanKind::kResolverIngress:
      return "resolver_ingress";
    case SpanKind::kSubQuerySend:
      return "subquery_send";
    case SpanKind::kPolicerVerdict:
      return "policer_verdict";
    case SpanKind::kSchedulerEnqueue:
      return "scheduler_enqueue";
    case SpanKind::kSchedulerDequeue:
      return "scheduler_dequeue";
    case SpanKind::kEgress:
      return "egress";
    case SpanKind::kAuthResponse:
      return "auth_response";
    case SpanKind::kSubQueryDone:
      return "subquery_done";
    case SpanKind::kResolverResponse:
      return "resolver_response";
    case SpanKind::kClientReceive:
      return "client_receive";
  }
  return "?";
}

bool SpanKindFromName(std::string_view name, SpanKind* out) {
  for (int i = 0; i < kSpanKindCount; ++i) {
    const SpanKind kind = static_cast<SpanKind>(i);
    if (name == SpanKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* SubQueryCauseName(SubQueryCause cause) {
  switch (cause) {
    case SubQueryCause::kClient:
      return "client";
    case SubQueryCause::kInitial:
      return "initial";
    case SubQueryCause::kQmin:
      return "qmin";
    case SubQueryCause::kNs:
      return "ns";
    case SubQueryCause::kCname:
      return "cname";
    case SubQueryCause::kRetry:
      return "retry";
  }
  return "?";
}

QueryTracer::QueryTracer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  // Reserve eagerly so Record() never allocates on the hot path.
  ring_.reserve(capacity_);
}

void QueryTracer::Record(uint64_t trace_id, SpanKind kind, Time at,
                         uint32_t actor, int32_t detail, uint32_t span_id,
                         uint32_t parent_span_id, uint32_t peer) {
  SpanEvent event{trace_id, at,      actor,          kind,
                  detail,   span_id, parent_span_id, peer};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    last_evicted_at_ = std::max(last_evicted_at_, ring_[next_ % capacity_].at);
    ring_[next_ % capacity_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_recorded_;
}

size_t QueryTracer::size() const { return ring_.size(); }

uint64_t QueryTracer::dropped() const {
  return total_recorded_ - static_cast<uint64_t>(ring_.size());
}

std::vector<SpanEvent> QueryTracer::Events() const {
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // `next_` points at the oldest retained event once the ring wrapped.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<SpanEvent> QueryTracer::EventsFor(uint64_t trace_id) const {
  std::vector<SpanEvent> out;
  for (const SpanEvent& event : Events()) {
    if (event.trace_id == trace_id) {
      out.push_back(event);
    }
  }
  return out;
}

bool PossiblyTruncated(const RingState& ring, const SpanEvent* first) {
  if (ring.dropped == 0) {
    return false;
  }
  if (first == nullptr) {
    // Nothing retained: the trace is either entirely evicted or was never
    // recorded — indistinguishable once events have been dropped.
    return true;
  }
  // Every trace opens with the stub's send. Once evictions happened, a
  // retained window that starts mid-lifecycle cannot rule out a lost head,
  // while a window whose first event IS the stub send provably holds it.
  // The timestamp guard only matters for non-monotone recorders.
  return first->kind != SpanKind::kStubSend || first->at < ring.last_evicted_at;
}

bool QueryTracer::PossiblyTruncated(uint64_t trace_id) const {
  const std::vector<SpanEvent> events = EventsFor(trace_id);
  return telemetry::PossiblyTruncated(ring_state(),
                                      events.empty() ? nullptr : &events[0]);
}

std::vector<uint64_t> QueryTracer::CompleteTraceIds() const {
  std::unordered_set<uint64_t> sent;
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> out;
  for (const SpanEvent& event : Events()) {
    if (event.kind == SpanKind::kStubSend) {
      sent.insert(event.trace_id);
    } else if (event.kind == SpanKind::kClientReceive &&
               sent.contains(event.trace_id) &&
               seen.insert(event.trace_id).second) {
      out.push_back(event.trace_id);
    }
  }
  return out;
}

std::string QueryTracer::ExportJsonLines() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"ring\":{\"dropped\":%" PRIu64 ",\"last_evicted_us\":%" PRId64
                "}}\n",
                dropped(), last_evicted_at_);
  std::string out = buf;
  for (const SpanEvent& event : Events()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"trace_id\":\"%016" PRIx64 "\",\"ts_us\":%" PRId64
                  ",\"span\":\"%s\",\"actor\":\"%s\",\"detail\":%d"
                  ",\"span_id\":%u,\"parent_span_id\":%u,\"peer\":\"%s\"}\n",
                  event.trace_id, event.at, SpanKindName(event.kind),
                  FormatAddress(event.actor).c_str(), event.detail,
                  event.span_id, event.parent_span_id,
                  FormatAddress(event.peer).c_str());
    out += buf;
  }
  return out;
}

bool ParseRingStateLine(std::string_view line, RingState* out) {
  json::Value doc;
  if (!json::Parse(line, &doc) || !doc.is_object()) {
    return false;
  }
  const json::Value* ring = doc.Find("ring");
  if (ring == nullptr || !ring->is_object()) {
    return false;
  }
  out->dropped = static_cast<uint64_t>(ring->Number("dropped"));
  out->last_evicted_at = static_cast<Time>(ring->Number("last_evicted_us"));
  return true;
}

bool ParseSpanJsonLine(std::string_view line, SpanEvent* out,
                       std::string* error) {
  json::Value doc;
  if (!json::Parse(line, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "not a JSON object";
    return false;
  }
  const std::string id_hex = doc.String("trace_id");
  if (id_hex.empty()) {
    *error = "missing trace_id";
    return false;
  }
  if (!SpanKindFromName(doc.String("span"), &out->kind)) {
    *error = "unknown span kind '" + doc.String("span") + "'";
    return false;
  }
  out->trace_id = std::strtoull(id_hex.c_str(), nullptr, 16);
  out->at = static_cast<Time>(doc.Number("ts_us"));
  out->detail = static_cast<int32_t>(doc.Number("detail"));
  out->span_id = static_cast<uint32_t>(doc.Number("span_id", kClientSpanId));
  out->parent_span_id = static_cast<uint32_t>(doc.Number("parent_span_id"));
  HostAddress addr = kInvalidAddress;
  if (ParseAddress(doc.String("actor"), &addr)) {
    out->actor = addr;
  }
  addr = kInvalidAddress;
  if (ParseAddress(doc.String("peer"), &addr)) {
    out->peer = addr;
  }
  return true;
}

}  // namespace telemetry
}  // namespace dcc
