// Query-lifecycle tracer: lightweight span events over the simulator's
// virtual clock.
//
// A *trace id* identifies one client request end to end. It is derived from
// the triple every hop already sees — the client's address, source port and
// DNS message id — which the DCC attribution option (src/dns/edns_options.h)
// carries on resolver-internal queries, so the stub, the resolver, the DCC
// shim and the upstream answer path all stamp events onto the same trace
// without any new wire format.
//
// Storage is a fixed-capacity ring buffer of POD events: recording never
// allocates, and a long simulation simply keeps the most recent window of
// spans (the bounded-memory property the §5.2 overhead claims require).
// ExportJsonLines writes that window, led by the ring's eviction state, for
// the offline reader `tools/dcc_why` (summary/top/tree/report/chrome).

#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/ring.h"

namespace dcc {
namespace telemetry {

// Stages of a query's life, in path order.
enum class SpanKind : uint8_t {
  kStubSend = 0,         // Stub hands the query to the network.
  kResolverIngress,      // Resolver accepts the client request (detail: 1 = cache hit).
  kSubQuerySend,         // Resolver issues an upstream sub-query (detail: SubQueryCause).
  kPolicerVerdict,       // DCC pre-queue policing (detail: 1 = allow, 0 = drop).
  kSchedulerEnqueue,     // MOPI-FQ enqueue (detail: EnqueueResult ordinal).
  kSchedulerDequeue,     // MOPI-FQ dequeue.
  kEgress,               // Query leaves the DCC node toward the upstream.
  kAuthResponse,         // Upstream/authoritative answer arrives back (detail: rcode).
  kSubQueryDone,         // Sub-query settled (detail: 1 = answered, 0 = timed out).
  kResolverResponse,     // Resolver emits the client-facing response (detail: rcode).
  kClientReceive,        // Stub matches the response (detail: 1 = success).
};

inline constexpr int kSpanKindCount = 11;

const char* SpanKindName(SpanKind kind);
// Inverse of SpanKindName; false when `name` matches no kind. Used by the
// offline dcc_why reader when re-reading JSONL dumps.
bool SpanKindFromName(std::string_view name, SpanKind* out);

// Why the resolver issued a sub-query (carried as kSubQuerySend's detail and
// as the `cause` label on resolver_subqueries_total).
enum class SubQueryCause : uint8_t {
  kClient = 0,  // The root client query itself (never a sub-query).
  kInitial,     // First upstream fetch for the client's own question.
  kQmin,        // QNAME-minimization descent probe.
  kNs,          // Glue-less NS address resolution (FF fan-out).
  kCname,       // CNAME-chase restart (CQ chains).
  kRetry,       // Retransmission of an unanswered sub-query.
};

inline constexpr int kSubQueryCauseCount = 6;

const char* SubQueryCauseName(SubQueryCause cause);

// The span id every root (client-side) event carries. Resolver-allocated
// sub-query spans start above it, so within one trace span ids are unique.
inline constexpr uint32_t kClientSpanId = 1;

struct SpanEvent {
  uint64_t trace_id = 0;
  Time at = 0;           // Virtual µs.
  uint32_t actor = 0;    // Host address of the component stamping the event.
  SpanKind kind = SpanKind::kStubSend;
  int32_t detail = 0;    // Kind-specific code (see SpanKind comments).
  // Causal linkage: which span of the trace this event belongs to and which
  // span caused that one. Root client events use kClientSpanId with parent 0.
  uint32_t span_id = kClientSpanId;
  uint32_t parent_span_id = 0;
  // The remote host this event concerns (e.g. the upstream server a
  // sub-query targets) — the "channel" axis of amplification attribution.
  uint32_t peer = 0;
};

// Composes the end-to-end correlation key. `client_addr` is the stub's host
// address, `client_port` its source port, `dns_id` the id of the query it
// sent (which the resolver echoes into the attribution option).
constexpr uint64_t MakeTraceId(uint32_t client_addr, uint16_t client_port,
                               uint16_t dns_id) {
  return (static_cast<uint64_t>(client_addr) << 32) |
         (static_cast<uint64_t>(client_port) << 16) | dns_id;
}

// Parses one span line of QueryTracer::ExportJsonLines back into a
// SpanEvent. False with a reason in `error` for malformed JSON, a missing
// trace id or an unknown span kind; missing causal fields fall back to the
// pre-span-tree defaults so old dumps still load.
bool ParseSpanJsonLine(std::string_view line, SpanEvent* out,
                       std::string* error);

// What the tracer's ring had evicted when its window was read. A JSONL dump
// opens with it, so offline readers flag truncation exactly as the live
// tracer does.
struct RingState {
  uint64_t dropped = 0;       // Events overwritten so far.
  Time last_evicted_at = 0;   // Timestamp of the newest overwritten event.
};

// Parses the leading ring-state line of ExportJsonLines; false for any other
// line (a dump without one reads as a ring that never evicted).
bool ParseRingStateLine(std::string_view line, RingState* out);

// True when ring eviction may have swallowed the head of a trace whose
// oldest retained event is `first` (nullptr: nothing retained): events were
// dropped and the retained window does not provably open with the trace's
// kStubSend. A trace with no retained events reports true once anything was
// dropped. False means the retained head is provably present (note: a trace
// recorded without stub instrumentation always reports true after the first
// eviction — indistinguishable from a lost head).
bool PossiblyTruncated(const RingState& ring, const SpanEvent* first);

class QueryTracer {
 public:
  explicit QueryTracer(size_t capacity = 1 << 16);

  void Record(uint64_t trace_id, SpanKind kind, Time at, uint32_t actor = 0,
              int32_t detail = 0, uint32_t span_id = kClientSpanId,
              uint32_t parent_span_id = 0, uint32_t peer = 0);

  // Events currently retained, oldest first. With a monotonic virtual clock
  // this is also timestamp order.
  std::vector<SpanEvent> Events() const;
  // The retained events of one trace, oldest first.
  std::vector<SpanEvent> EventsFor(uint64_t trace_id) const;
  // Trace ids with a complete client-observed lifecycle (a kStubSend and a
  // kClientReceive event) among the retained window.
  std::vector<uint64_t> CompleteTraceIds() const;

  size_t capacity() const { return ring_.capacity(); }
  // Events retained right now (<= capacity).
  size_t size() const { return ring_.size(); }
  // Events ever recorded, including overwritten ones.
  uint64_t total_recorded() const { return ring_.total(); }
  uint64_t dropped() const { return ring_.dropped(); }
  RingState ring_state() const { return {dropped(), last_evicted_at_}; }

  // The free PossiblyTruncated rule applied to `trace_id`'s retained window.
  bool PossiblyTruncated(uint64_t trace_id) const;

  // The ring state line (ParseRingStateLine reads it back), then one JSON
  // object per span event (ParseSpanJsonLine reads one back):
  //   {"ring":{"dropped":0,"last_evicted_us":0}}
  //   {"trace_id":"...","ts_us":...,"span":"stub_send","actor":"10.0.0.7",
  //    "detail":...,"span_id":...,"parent_span_id":...,"peer":"10.0.3.1"}
  // The output is reserved once, size() + 1 lines of kMaxLineBytes.
  std::string ExportJsonLines() const;

  // The longest line ExportJsonLines writes: every field at its widest.
  static const size_t kMaxLineBytes;

 private:
  Ring<SpanEvent> ring_;
  Time last_evicted_at_ = 0;  // Timestamp of the newest overwritten event.
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_TRACE_H_
