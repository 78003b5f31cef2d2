// DCC-enabled resolver host (paper §3.2, Fig. 5).
//
// `DccNode` registers on the simulated network in place of the resolver host
// and wraps a vanilla resolver (or forwarder) by interposing on its I/O —
// the simulator equivalent of the paper's libnetfilter_queue interception:
//
//   client request  → (anomaly request accounting) → resolver  [fast path]
//   resolver query  → attribution extraction → pre-queue policing →
//                     MOPI-FQ scheduling → network; rejected queries get a
//                     synthesized SERVFAIL back into the resolver
//   upstream answer → per-request attribution lookup → signal processing /
//                     stripping → resolver
//   resolver reply  → signal attachment (anomaly / policing / congestion,
//                     upstream-preferred per type) → client
//
// The wrapped server only needs to emit the attribution EDNS option on its
// queries (ResolverConfig::attach_attribution / ForwarderConfig equivalent),
// mirroring the paper's one-line BIND change.

#ifndef SRC_DCC_DCC_NODE_H_
#define SRC_DCC_DCC_NODE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/slot_table.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/dns/message.h"
#include "src/dcc/anomaly.h"
#include "src/dcc/capacity_estimator.h"
#include "src/dcc/mopi_fq.h"
#include "src/dcc/policer.h"
#include "src/server/transport.h"
#include "src/telemetry/observer.h"

namespace dcc {

struct DccConfig {
  MopiFqConfig scheduler;
  AnomalyConfig anomaly;
  // Optional AIMD estimation of channel capacities from observed behavior
  // (§3.2.1 footnote: probing in lieu of operator-configured limits).
  CapacityEstimatorConfig capacity;
  // Master switch for the in-band signaling mechanism (§3.3); Fig. 9
  // compares runs with it off and on.
  bool signaling_enabled = true;
  // Received anomaly-signal countdown at or below which this instance
  // polices its own culprit immediately (§3.3.1; 5 in the evaluation).
  int countdown_police_threshold = 5;
  // Amount by which a relayed anomaly signal's countdown is lowered, to
  // stress downstream reaction (F1 in Fig. 6 uses 5).
  uint16_t countdown_relay_decrement = 0;
  // Policy for clients convicted with NXDOMAIN anomalies (§5.1: rate limit
  // 100 QPS for 20 s).
  double nx_policy_qps = 100.0;
  Duration nx_policy_duration = Seconds(20);
  // Policy for clients convicted with amplification anomalies (§5.1: block
  // for 30 s).
  Duration amp_policy_duration = Seconds(30);
  // Default policy applied on signal-triggered policing (§5.1: block).
  PolicyType signal_policy = PolicyType::kBlock;
  Duration signal_policy_duration = Seconds(30);
  // Also express policing/congestion outcomes as RFC 8914 Extended DNS
  // Errors so non-DCC clients get standardized diagnostics (§6).
  bool emit_extended_errors = true;
  // Aggregate client identities to a prefix for scheduling/monitoring, as
  // real deployments rate-limit per address *or prefix* (§2.2). 32 = exact
  // addresses (default); 24 groups clients per /24, etc.
  int client_prefix_bits = 32;
  // Housekeeping cadence and inactivity timeout (§5: 10 s).
  Duration purge_interval = Seconds(1);
  Duration state_idle_timeout = Seconds(10);
  Duration pending_query_ttl = Seconds(5);
};

class DccNode : public Node, public Transport {
 public:
  // With an observer, the node exports its enqueue/eviction/dequeue,
  // conviction and signaling tallies and its state sizes as `dcc_*` metrics,
  // stamps the policer-verdict through auth-response lifecycle spans, and
  // decides every drop and conviction (policer verdicts, MOPI-FQ failures
  // and evictions, anomaly alarms/convictions, signal-triggered policing,
  // capacity shrinkage).
  DccNode(Network& network, HostAddress addr, const DccConfig& config,
          telemetry::Observer* obs = nullptr);

  // The wrapped server (not owned); must be set before traffic flows.
  void SetServer(DatagramHandler* server) { server_ = server; }

  // Channel capacity of the logical channel to `server` (minimum of the two
  // ends' rate limits, §3.2.1; configured here in lieu of probing).
  void SetChannelCapacity(HostAddress server, double qps);
  // Client share for weighted fair queuing (§3.2.1).
  void SetClientShare(HostAddress client, double share);

  // Starts periodic window evaluation / state purging.
  void Start();

  // Hold-down transition from the wrapped server's upstream tracker
  // (UpstreamTracker::SetHoldDownListener). On `down` the channel's capacity
  // estimate collapses to the configured floor so MOPI-FQ stops feeding a
  // dead upstream; recovery is left to the AIMD loop (responses resume →
  // clean windows → additive increase), so `down == false` is a no-op.
  void OnUpstreamHoldDown(HostAddress server, bool down, Time now);

  // Node:
  void OnDatagram(Datagram dgram) override;

  // Transport (for the wrapped server). Reads and edits the message the
  // payload carries in place; nothing is encoded or decoded on the way.
  void Send(uint16_t src_port, Endpoint dst, WireBytes payload) override;
  Time now() const override { return Node::now(); }
  EventLoop& loop() override { return Node::loop(); }
  HostAddress local_address() const override { return address(); }

  // --- statistics ------------------------------------------------------------
  uint64_t queries_scheduled() const { return EnqueueCount(EnqueueResult::kSuccess); }
  uint64_t queries_sent() const { return queries_sent_; }
  uint64_t enqueue_congested() const {
    return EnqueueCount(EnqueueResult::kChannelCongested);
  }
  uint64_t enqueue_overflow() const { return EnqueueCount(EnqueueResult::kQueueOverflow); }
  uint64_t enqueue_overspeed() const {
    return EnqueueCount(EnqueueResult::kClientOverspeed);
  }
  uint64_t evictions() const { return evictions_; }
  uint64_t policed_drops() const { return policer_.total_dropped(); }
  uint64_t servfails_synthesized() const { return servfails_synthesized_; }
  uint64_t signals_attached() const { return signals_attached_; }
  uint64_t signals_processed() const;
  uint64_t convictions() const;

  const MopiFq& scheduler() const { return scheduler_; }
  const AnomalyMonitor& monitor() const { return monitor_; }
  const PreQueuePolicer& policer() const { return policer_; }
  const CapacityEstimator& capacity_estimator() const { return capacity_estimator_; }

  // Total DCC state bytes (Table 1 / Fig. 10): scheduler + monitor +
  // policer + per-request attribution entries.
  size_t MemoryFootprint() const;
  // Per-granularity state counts for the Table 1 report.
  size_t PerClientStateCount() const;
  size_t PerServerStateCount() const { return scheduler_.ActiveOutputCount(); }
  size_t PerRequestStateCount() const { return pending_.size(); }

 private:
  struct QueuedQuery {
    WireBytes payload;  // Carries the query, attribution already stripped.
    const Message& query() const { return *payload.Carried<Message>(); }
    uint16_t src_port = 0;
    Endpoint dst;
    Attribution attribution;
    bool has_attribution = false;
  };

  // Per-client signaling / drop-accounting state (Table 1 per-client row).
  struct ClientSignalState {
    std::optional<AnomalySignal> relay_anomaly;
    std::optional<PolicingSignal> relay_policing;
    std::optional<CongestionSignal> relay_congestion;
    uint64_t congestion_drops = 0;
    OutputId last_drop_output = 0;
    Time last_active = 0;
  };

  // Per outgoing (in-flight) resolver query.
  struct PendingInfo {
    Attribution attribution;
    bool has_attribution = false;
    Time created = 0;
    OutputId output = 0;
  };

  // Indexes of the per-label tallies behind dcc_convictions_total{policy}
  // and dcc_signals_processed_total{type}, in label-name order.
  enum ConvictionPolicy { kRateLimitPolicy, kBlockPolicy, kSignalPolicy };
  enum SignalType { kPolicingSignal, kAnomalySignal, kCongestionSignal };

  uint64_t EnqueueCount(EnqueueResult result) const {
    return enqueue_results_[static_cast<int>(result)];
  }

  static uint64_t PendingKey(uint16_t port, uint16_t id) {
    return (static_cast<uint64_t>(port) << 16) | id;
  }

  // Each takes a payload that carries a message (Get<Message>() succeeded).
  // The answer is processed and stripped in place, then passed on.
  void HandleIncomingAnswer(Datagram& dgram);
  void HandleOutgoingQuery(uint16_t src_port, Endpoint dst, WireBytes payload);
  void HandleOutgoingResponse(uint16_t src_port, Endpoint dst, WireBytes payload);

  void ProcessUpstreamSignals(const Message& answer, SourceId culprit);
  void AttachSignals(Message& response, SourceId client, uint16_t client_port);
  SourceId AttributionSource(const Message& query, Attribution* attribution,
                             bool* has_attribution) const;
  SourceId AggregateClient(SourceId client) const;
  // Synthesizes the SERVFAIL for `queued` and decides the drop under
  // `cause`; `observed`/`limit` snapshot the deciding state (queue depth vs
  // cap, policed rate vs bucket, ...).
  void FailQuery(const QueuedQuery& queued, telemetry::AuditCause cause,
                 double observed, double limit);
  // Decides a channel-capacity shrink from `before` to `after` qps.
  void DecideCapacityShrunk(HostAddress channel, double after, double before,
                            std::string_view why);
  void Drain();
  void ScheduleDrainAt(Time t);
  void PeriodicMaintenance();
  ClientSignalState& SignalStateFor(SourceId client);

  DccConfig config_;
  DatagramHandler* server_ = nullptr;

  MopiFq scheduler_;
  AnomalyMonitor monitor_;
  PreQueuePolicer policer_;
  CapacityEstimator capacity_estimator_;

  SlotTable<QueuedQuery> queued_;  // By scheduler cookie (the slot id).
  std::unordered_map<uint64_t, PendingInfo> pending_;  // By (port, id).
  std::unordered_map<SourceId, ClientSignalState> client_signals_;

  Time drain_scheduled_for_ = kTimeInfinity;

  // Tallies; each is also the source of its metric (never reset).
  uint64_t enqueue_results_[4] = {};  // By EnqueueResult ordinal.
  uint64_t queries_sent_ = 0;
  uint64_t evictions_ = 0;
  uint64_t servfails_synthesized_ = 0;
  uint64_t signals_attached_ = 0;
  uint64_t signals_processed_[3] = {};  // By SignalType.
  uint64_t convictions_[3] = {};        // By ConvictionPolicy.
  uint64_t capacity_updates_ = 0;

  telemetry::Observer* obs_;
  // Last capacity seen per channel, kept only while observing: tells AIMD
  // shrinkage from growth for the decision stream (never read by the
  // control loop).
  std::unordered_map<OutputId, double> observed_capacity_;
};

}  // namespace dcc

#endif  // SRC_DCC_DCC_NODE_H_
