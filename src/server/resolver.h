// Recursive resolver.
//
// A full-service iterative resolver in the mold of BIND 9, implementing the
// behaviours the paper's attacks exploit:
//   * TTL-driven positive and negative caching (cache-bypass via random
//     names under a wildcard or nonexistent subtree),
//   * iterative resolution from configured authority hints, following
//     delegations and fetching glue-less nameserver addresses with child
//     resolutions (the FF / NXNS-style fan-out amplification),
//   * CNAME chasing (bounded) and QNAME minimization (RFC 9156), whose
//     combination yields the CQ compositional amplification,
//   * per-client ingress response rate limiting and optional per-server
//     egress rate limiting (the channel capacities of §2.2),
//   * bounded retries, per-request query budgets and deadlines.
//
// The resolver is written against the Transport seam, so a DCC shim can
// interpose on its traffic without any change here. Its only DCC-specific
// feature is optional emission of the attribution EDNS option on outgoing
// queries — mirroring the paper's one-line BIND instrumentation (§5).

#ifndef SRC_SERVER_RESOLVER_H_
#define SRC_SERVER_RESOLVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/common/token_bucket.h"
#include "src/dns/edns_options.h"
#include "src/dns/message.h"
#include "src/server/authoritative.h"  // For ResponseRateLimitConfig.
#include "src/server/cache.h"
#include "src/server/transport.h"
#include "src/server/upstream_tracker.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace dcc {

struct ResolverConfig {
  // Time to wait for an upstream answer before retrying / failing over.
  Duration upstream_timeout = Milliseconds(800);
  // Retransmissions per (query, server) after the initial send.
  int upstream_retries = 1;
  // Overall deadline for serving one client request.
  Duration request_deadline = Seconds(4);
  // Maximum CNAME chain length followed (BIND: 17).
  int max_cname_chain = 17;
  // Maximum nesting of NS-address child resolutions.
  int max_depth = 6;
  // Upper bound on upstream queries spent on one client request
  // (BIND max-recursion-queries); generous enough to let the FF pattern
  // amplify, as observed on real resolvers (§2.3.2).
  int max_fetches_per_request = 200;
  // NS names per delegation for which addresses are fetched.
  int max_ns_address_fetches = 10;
  bool qname_minimization = true;
  // RFC 8198 aggressive use of NSEC: cache denial intervals from signed
  // NXDOMAIN answers and synthesize NXDOMAIN for covered names without
  // querying upstream — the mitigation the paper notes against the NX
  // (pseudo-random subdomain) pattern (§2.3).
  bool aggressive_nsec = false;
  size_t cache_max_entries = 1 << 20;
  // Emit the DCC attribution option on outgoing queries (§5).
  bool attach_attribution = false;
  // Client-facing response rate limiting.
  ResponseRateLimitConfig ingress_rrl;
  // Server-facing egress rate limiting (drops excess queries).
  bool egress_rl_enabled = false;
  double egress_qps = 1000.0;
  double egress_burst = 20.0;
  // Per-request compute cost model.
  Duration processing_delay = Microseconds(50);
  // --- robustness / graceful degradation ----------------------------------
  // Adaptive upstream retry: per-server SRTT-based retransmission timeouts
  // (RFC 6298) with exponential backoff and jitter across attempts, plus
  // dead-server hold-down steering server selection. `upstream_timeout`
  // remains the timeout for servers without an RTT sample. When disabled the
  // classic fixed-timeout behaviour is preserved exactly.
  bool adaptive_retry = true;
  double retry_backoff_factor = 2.0;
  Duration retry_backoff_max = Seconds(6);
  double retry_jitter = 0.1;  // +/- fraction of the timeout.
  UpstreamTrackerConfig upstream;
  // RFC 8767 serve-stale: when resolution fails (all upstreams dead or the
  // request deadline fires), answer from expired cache entries up to
  // `max_stale` past expiry, capping record TTLs at `stale_answer_ttl`.
  bool serve_stale = false;
  Duration max_stale = Seconds(3600);
  uint32_t stale_answer_ttl = 30;
};

class RecursiveResolver : public DatagramHandler, public CrashResettable {
 public:
  RecursiveResolver(Transport& transport, ResolverConfig config, uint64_t seed = 1);

  // Registers a starting point for iteration: queries for names under `apex`
  // may be sent to `server` when nothing deeper is cached. Multiple servers
  // per apex are allowed (redundant authoritatives).
  void AddAuthorityHint(const Name& apex, HostAddress server);

  void HandleDatagram(const Datagram& dgram) override;
  // Pre-decoded delivery from an interposing carrier (the DCC shim);
  // skips the wire decode HandleDatagram pays.
  void HandleMessage(const Datagram& carrier, Message msg) override;

  // Primes the cache with an RRset (warm start / benchmarking). Records are
  // stored exactly as if learned from an authoritative answer at `now`.
  void SeedCache(const Name& name, RecordType type, RrSet records);

  // --- statistics / state introspection -----------------------------------
  uint64_t requests_received() const { return requests_received_; }
  uint64_t responses_sent() const { return responses_sent_; }
  uint64_t queries_sent() const { return queries_sent_; }
  uint64_t cache_hit_responses() const { return cache_hit_responses_; }
  uint64_t nsec_synthesized() const { return nsec_synthesized_; }
  uint64_t ingress_rate_limited() const { return ingress_rate_limited_; }
  uint64_t egress_rate_limited() const { return egress_rate_limited_; }
  uint64_t stale_responses() const { return stale_responses_; }
  size_t ActiveRequestCount() const { return requests_.size(); }
  size_t OutstandingQueryCount() const { return outstanding_.size(); }
  size_t CacheSize() const { return cache_.size(); }
  size_t MemoryFootprint() const;

  // Periodic maintenance (expired cache entries, stale RRL state).
  void Purge();

  // Wires cache/RRL/retry counters, state-depth gauges (incl. a
  // MemoryFootprint-backed gauge) and query-lifecycle spans into the sinks.
  // Either argument may be nullptr; passing both nullptr detaches.
  void AttachTelemetry(telemetry::MetricsRegistry* registry,
                       telemetry::QueryTracer* tracer);

  // Routes this resolver's drop decisions (ingress RRL, egress rate limit,
  // request-deadline SERVFAILs, upstream hold-downs) into `audit`. nullptr
  // detaches.
  void AttachAudit(telemetry::DecisionAuditLog* audit);

  const ResolverConfig& config() const { return config_; }

  // Per-upstream SRTT / loss / hold-down state (read-mostly; scenario code
  // wires its hold-down listener into the DCC capacity estimator).
  UpstreamTracker& upstream_tracker() { return tracker_; }

  // Simulated process crash: drops every client request, resolution task,
  // outstanding upstream query, and the (in-memory) cache, as a restart
  // would. Stale timers for the dropped state become no-ops.
  void CrashReset() override;

 private:
  // ---- internal state ------------------------------------------------------
  enum class TaskStatus { kAnswer, kNoData, kNxDomain, kFail };

  struct ClientRequest {
    uint64_t id = 0;
    Endpoint client;
    uint16_t local_port = kDnsPort;
    Message query;
    uint64_t root_task = 0;
    int fetches = 0;
    uint64_t deadline_generation = 0;
    bool done = false;
  };

  struct Task {
    uint64_t id = 0;
    uint64_t request_id = 0;
    uint64_t parent_task = 0;  // 0 = root (answers the client).
    // Causal-span linkage: the span that caused this task (the client span
    // for the root task, the parent task's triggering query for NS children)
    // and the most recent sub-query span issued by this task. Successive
    // queries of one task chain off each other (QMIN descent, CNAME chase).
    uint32_t origin_span = telemetry::kClientSpanId;
    uint32_t last_span = 0;
    int depth = 0;
    Name qname;                // Current target (advances over CNAMEs).
    RecordType qtype = RecordType::kA;
    RrSet cname_chain;         // CNAME records accumulated while chasing.
    int cname_count = 0;
    // Iteration state.
    Name zone_cut;
    std::vector<HostAddress> servers;
    std::vector<Name> unresolved_ns;
    size_t server_index = 0;
    size_t qmin_labels = 0;    // Labels of qname currently queried (QMIN).
    int pending_children = 0;
    std::vector<uint64_t> children;
    bool waiting_children = false;
    // Local port of the task's latest upstream query. A task has at most one
    // query in flight; the port is live only while outstanding_ maps it back
    // to this task (OwnsLiveQuery).
    uint16_t query_port = 0;
  };

  struct OutstandingQuery {
    uint64_t task_id = 0;
    uint16_t id = 0;
    HostAddress server = kInvalidAddress;
    Name qname;
    RecordType qtype = RecordType::kA;
    int retries_left = 0;
    uint64_t generation = 0;
    Time sent_at = 0;   // Last transmission time (feeds the SRTT sample).
    int attempt = 0;    // 0 = initial send; grows with each retransmission.
    bool sent = false;  // False when the egress rate limit dropped the send.
    // Span of the latest transmission and its cause; retransmissions open a
    // fresh span whose parent is the previous attempt's span.
    uint32_t span_id = 0;
    uint32_t parent_span_id = 0;
    // Cached encoding of the question, kept only when attribution is off —
    // span ids change per attempt, so attributed sends cannot share bytes.
    WireBytes wire;
    telemetry::SubQueryCause cause = telemetry::SubQueryCause::kInitial;
  };

  // ---- request / response plumbing ----------------------------------------
  void HandleClientRequest(const Datagram& dgram, Message query);
  void HandleUpstreamResponse(const Datagram& dgram, Message response);
  void RespondToClient(ClientRequest& request, Message response);

  // Serves (qname, qtype) fully from cache, following cached CNAMEs.
  // Returns nullopt when recursion is required.
  std::optional<Message> AnswerFromCache(const Message& query, Time now);

  // RFC 8767 fallback: like AnswerFromCache but willing to use entries up to
  // `max_stale` past expiry, with TTLs capped at `stale_answer_ttl`. Returns
  // nullopt when serve-stale is disabled or nothing usable is cached.
  std::optional<Message> StaleAnswer(const Message& query, Time now);
  // Serves `request` from stale cache if possible; returns true on success.
  bool TryServeStale(ClientRequest& request);

  // ---- task machinery ------------------------------------------------------
  uint64_t CreateTask(uint64_t request_id, uint64_t parent, int depth,
                      const Name& qname, RecordType qtype);
  void RunTask(uint64_t task_id);
  void SendQuery(uint64_t task_id);
  void OnQueryTimeout(uint16_t port, uint64_t generation);
  void TryNextServer(uint64_t task_id);
  void SpawnNsChildren(uint64_t task_id);
  void CompleteTask(uint64_t task_id, TaskStatus status, const RrSet& records);
  // Erases every descendant of `task_id` (not the task itself), then sweeps
  // the orphaned queries. A no-op when `task_id` is gone.
  void FailChildrenOf(uint64_t task_id);
  void EraseDescendants(uint64_t task_id);
  // Erases a task. If its query is still in flight, the outstanding entry
  // stays (a late answer still feeds the upstream tracker) and is listed in
  // orphans_ until the next SweepOrphans.
  void EraseTask(uint64_t task_id);
  // Erases the listed orphan queries still owned by their (erased) task.
  void SweepOrphans();
  bool OwnsLiveQuery(uint16_t port, uint64_t task_id) const;
  // Finds the deepest zone cut for `qname` known from hints and cache;
  // fills task.zone_cut / servers / unresolved_ns. Returns false when not
  // even a hint covers the name.
  bool EstablishZoneCut(Task& task);
  void ResetQminProgress(Task& task);
  // Best-server-first ordering of a freshly built server list (no-op unless
  // adaptive_retry).
  void RankTaskServers(Task& task);
  // Timeout for transmission number `attempt` (0-based) to `server`:
  // SRTT-based RTO (fallback upstream_timeout), exponential backoff, jitter.
  Duration AttemptTimeout(HostAddress server, int attempt);

  // RFC 8198: true when a cached NSEC interval proves `name` nonexistent.
  bool CoveredByNsec(const Name& name, Time now);
  void StoreNsec(const Message& response, Time now);

  bool PassesIngressRrl(HostAddress client, Rcode rcode);
  bool PassesEgressRl(HostAddress server);

  uint16_t AllocatePort();

  // ---- causal tracing / amplification attribution --------------------------
  // End-to-end trace id of `request` (same key the stub and shim derive).
  static uint64_t TraceIdFor(const ClientRequest& request);
  // Stamps a kSubQuerySend / kSubQueryDone span event for `oq` onto the
  // request's trace and bumps the matching cause counter on sends.
  void RecordSubQuerySend(const ClientRequest& request, const OutstandingQuery& oq);
  void RecordSubQueryDone(uint64_t request_id, const OutstandingQuery& oq,
                          bool answered);
  // Feeds the request's total upstream fetch count into the
  // `amplification_factor` histogram. Call once per tracked request teardown.
  void ObserveAmplification(const ClientRequest& request);

  Transport& transport_;
  ResolverConfig config_;
  Rng rng_;
  DnsCache cache_;
  UpstreamTracker tracker_;

  std::vector<std::pair<Name, HostAddress>> hints_;

  FlatMap<uint64_t, ClientRequest> requests_;
  FlatMap<uint64_t, Task> tasks_;
  FlatMap<uint16_t, OutstandingQuery> outstanding_;  // By local port.
  // (port, task id) of queries whose task was erased while they were in
  // flight; entries no longer owned by that task are skipped by the sweep.
  std::vector<std::pair<uint16_t, uint64_t>> orphans_;
  struct ClientRrl {
    TokenBucket noerror;
    TokenBucket nxdomain;
    Time last_active = 0;
    Time blocked_until = 0;
  };
  FlatMap<HostAddress, ClientRrl> ingress_rrl_state_;
  FlatMap<HostAddress, TokenBucket> egress_rl_state_;

  struct NsecInterval {
    Name next;
    Name zone_apex;
    Time expiry = 0;
  };
  std::map<Name, NsecInterval> nsec_cache_;  // Keyed by NSEC owner.

  uint64_t next_request_id_ = 1;
  uint64_t next_task_id_ = 1;
  uint64_t next_generation_ = 1;
  // Sub-query span ids; kClientSpanId is reserved for root client spans.
  uint32_t next_span_id_ = telemetry::kClientSpanId + 1;
  uint16_t next_port_ = 1024;

  uint64_t requests_received_ = 0;
  uint64_t responses_sent_ = 0;
  uint64_t queries_sent_ = 0;
  uint64_t cache_hit_responses_ = 0;
  uint64_t ingress_rate_limited_ = 0;
  uint64_t egress_rate_limited_ = 0;
  uint64_t nsec_synthesized_ = 0;
  uint64_t stale_responses_ = 0;

  // Telemetry (resolved once in AttachTelemetry; nullptr = disabled).
  telemetry::QueryTracer* tracer_ = nullptr;
  telemetry::DecisionAuditLog* audit_ = nullptr;
  telemetry::Counter* cache_hit_counter_ = nullptr;
  telemetry::Counter* cache_miss_counter_ = nullptr;
  telemetry::Counter* ingress_rl_counter_ = nullptr;
  telemetry::Counter* egress_rl_counter_ = nullptr;
  telemetry::Counter* retry_counter_ = nullptr;
  telemetry::Counter* upstream_query_counter_ = nullptr;
  telemetry::Counter* stale_counter_ = nullptr;
  // resolver_subqueries_total{cause=...}, indexed by SubQueryCause ordinal
  // (the kClient slot stays nullptr: the root query is not a sub-query).
  telemetry::Counter* subquery_cause_counters_[telemetry::kSubQueryCauseCount] = {};
  telemetry::HistogramMetric* amplification_hist_ = nullptr;
};

}  // namespace dcc

#endif  // SRC_SERVER_RESOLVER_H_
