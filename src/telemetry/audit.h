// Decision audit trail: ring-buffered, virtual-clock records of every
// drop/throttle/SERVFAIL/conviction decision across the DCC stack.
//
// Metrics (src/telemetry/metrics.h) count *that* queries died and span
// traces (src/telemetry/trace.h) show *where*; the audit log records *why
// this one, here, under this state*: a typed cause, the actors involved,
// the span coordinates needed to join the PR-4 trace trees, and a compact
// snapshot of the deciding state (observed value vs the limit that tripped).
// `tools/dcc_why` turns the resulting JSONL into per-query death
// narratives, per-cause/per-client rollups and benign-vs-attacker
// collateral breakdowns.
//
// Design constraints mirror the tracer and the profiler:
//
//  1. Determinism is sacred. Recording reads state the decision site already
//     computed; it never touches virtual time, RNG streams, or scheduling,
//     so scenario outcomes are byte-identical with auditing off/on/off
//     (enforced by tests/audit_test.cc).
//  2. Zero cost when off. Decision sites emit through their component's
//     telemetry::Observer (src/telemetry/observer.h), which writes the
//     record; with observing off that handle is nullptr and the disabled
//     path is one pointer load and a predictable branch.
//  3. Bounded memory. Records are POD (fixed-width qname buffer, no
//     allocation after construction); a long simulation keeps the most
//     recent window; the observer exports `dropped()` as
//     `audit_records_dropped_total`.

#ifndef SRC_TELEMETRY_AUDIT_H_
#define SRC_TELEMETRY_AUDIT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/ring.h"

namespace dcc {
namespace telemetry {

// Typed cause taxonomy. One vocabulary shared by audit records, the
// `reason` label on drop/SERVFAIL metrics, and `dcc_why` rollups. Grouped
// by the component that owns the decision.
enum class AuditCause : uint8_t {
  // DCC pre-queue policer (src/dcc/policer.h).
  kPolicerRateExceeded = 0,  // Token bucket for an imposed rate ran dry.
  kPolicerBlocked,           // Client under an explicit block policy.
  // MOPI-FQ scheduler (src/dcc/mopi_fq.h) — EnqueueResult failures plus
  // make-room eviction of an already-queued query.
  kMopiChannelCongested,     // Per-output round budget exhausted.
  kMopiQueueFull,            // Per-output queue at max_poq_depth.
  kMopiClientOverspeed,      // Per-client fair-share bound exceeded.
  kMopiEvicted,              // Queued query evicted to make room.
  // Anomaly monitor (src/dcc/anomaly.h).
  kAnomalyAlarm,             // Window breached; strikes accumulate.
  kAnomalyConvicted,         // Strike threshold reached; policy imposed.
  // Upstream DCC signaling (src/dcc/dcc_node.cc ProcessUpstreamSignals).
  kSignalConvicted,          // Upstream countdown forced a local policy.
  // Capacity estimator (src/dcc/capacity_estimator.h).
  kCapacityShrunk,           // Channel estimate collapsed (outage/decay).
  // Fleet frontend (src/server/frontend.h).
  kFrontendBudgetDenied,     // Re-steer token bucket denied a failover.
  kFrontendAttemptsExhausted,// max_attempts member tries all failed.
  kFrontendNoMembers,        // No configured/eligible fleet member.
  // Forwarder (src/server/forwarder.h).
  kForwarderAttemptsExhausted,
  kForwarderNoUpstreams,
  // Recursive resolver (src/server/resolver.h).
  kResolverIngressRrl,       // Client-facing response rate limit.
  kResolverEgressRl,         // Upstream-facing egress rate limit.
  kResolverDeadlineExceeded, // request_deadline passed; stale serve failed.
  kResolverUpstreamDead,     // Upstream tracker entered hold-down.
  // Fault layer (src/fault/fault_injector.h).
  kFaultActivated,           // An injected fault switched on.
};

inline constexpr int kAuditCauseCount = 20;

// Dotted cause name, e.g. "mopi.queue_full". Stable: these strings are the
// audit JSONL schema and the metric `reason` label values.
const char* AuditCauseName(AuditCause cause);
// Inverse of AuditCauseName; false when `name` matches no cause. Used by
// the offline dcc_why CLI when validating JSONL dumps.
bool AuditCauseFromName(std::string_view name, AuditCause* out);

// Fixed-width presentation buffer for the query name; long names are
// truncated (the trace join recovers the full identity via trace_id).
inline constexpr size_t kAuditQnameCapacity = 48;

// One decision. POD: recording never allocates.
struct AuditRecord {
  Time at = 0;               // Virtual µs.
  AuditCause cause = AuditCause::kPolicerRateExceeded;
  uint32_t actor = 0;        // Host address of the deciding component.
  uint32_t client = 0;       // Attributed client host (0 = unknown).
  uint32_t channel = 0;      // Upstream/channel host involved (0 = none).
  // Span coordinates for joining trace trees: same trace_id encoding as
  // telemetry::MakeTraceId, span ids as stamped on the affected query.
  // trace_id 0 = decision not tied to one query (e.g. conviction).
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;
  // Compact deciding-state snapshot: the observed quantity and the limit it
  // was judged against (queue depth vs cap, rate vs bucket, strikes vs
  // threshold, estimate before vs after...). Semantics are per-cause and
  // documented in DESIGN.md §13.
  double observed = 0;
  double limit = 0;
  char qname[kAuditQnameCapacity] = {0};  // NUL-terminated, maybe truncated.
};

// Copies `name` into `record.qname`, truncating and sanitizing (quotes,
// backslashes and control bytes become '?') so ExportJsonLines can emit the
// buffer verbatim.
void SetAuditQname(AuditRecord& record, std::string_view name);

// Fixed-capacity ring of AuditRecords, oldest-evicted-first. Same shape as
// QueryTracer so the two JSONL streams join on equal footing.
class DecisionAuditLog {
 public:
  explicit DecisionAuditLog(size_t capacity = 1 << 16);

  void Record(const AuditRecord& record);

  // Records currently retained, oldest first.
  std::vector<AuditRecord> Records() const;

  size_t capacity() const { return ring_.capacity(); }
  size_t size() const { return ring_.size(); }
  uint64_t total_recorded() const { return ring_.total(); }
  uint64_t dropped() const { return ring_.dropped(); }

  // Retained-record count per cause ordinal (size kAuditCauseCount).
  std::vector<uint64_t> CauseHistogram() const;

  // One JSON object per record:
  //   {"ts_us":...,"cause":"mopi.queue_full","actor":"10.0.0.3",
  //    "client":"10.0.1.5","channel":"10.0.2.1",
  //    "trace_id":"00000a00000c0001","span_id":1,"parent_span_id":0,
  //    "observed":100,"limit":100,"qname":"a.target-domain."}
  // trace_id uses the tracer's %016x encoding so audit lines string-join
  // against trace JSONL. The output is reserved once, size() lines of
  // kMaxLineBytes.
  std::string ExportJsonLines() const;

  // The longest line ExportJsonLines writes: every field at its widest.
  static const size_t kMaxLineBytes;

 private:
  Ring<AuditRecord> ring_;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_AUDIT_H_
