// End-to-end tests for the DCC shim (§3.2/§3.3): fair channel sharing under
// adversarial congestion, SERVFAIL synthesis, anomaly conviction + policing,
// and signal propagation along a forwarder -> resolver path.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/attack/patterns.h"
#include "src/dns/codec.h"
#include "src/attack/testbed.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

DccConfig FastDcc(double channel_qps) {
  DccConfig config;
  config.scheduler.default_channel_qps = channel_qps;
  config.scheduler.channel_burst = 8;
  // Size the queue to the channel so that worst-case queueing delay stays
  // well below the resolver's retransmit timeout (the paper's evaluation
  // pairs depth-100 queues with 1000-QPS channels, i.e. <= 100 ms).
  config.scheduler.max_poq_depth =
      std::max(10, static_cast<int>(channel_qps * 0.1));
  config.anomaly.window = Seconds(2);
  config.anomaly.alarms_to_convict = 3;
  config.anomaly.suspicion_period = Seconds(60);
  config.purge_interval = Milliseconds(500);
  return config;
}

struct DccDeployment {
  explicit DccDeployment(double channel_qps, ResolverConfig resolver_config = {}) {
    auth_addr = bed.NextAddress();
    resolver_addr = bed.NextAddress();
    auth = &bed.AddAuthoritative(auth_addr);
    auth->AddZone(MakeTargetZone(TargetApex(), auth_addr));
    auto [shim_ref, resolver_ref] =
        bed.AddDccResolver(resolver_addr, FastDcc(channel_qps), resolver_config);
    shim = &shim_ref;
    resolver = &resolver_ref;
    resolver->AddAuthorityHint(TargetApex(), auth_addr);
    shim->SetChannelCapacity(auth_addr, channel_qps);
  }

  StubClient& AddClient(StubConfig config, QuestionGenerator generator) {
    StubClient& stub = bed.AddStub(bed.NextAddress(), config, std::move(generator));
    stub.AddResolver(resolver_addr);
    return stub;
  }

  Testbed bed;
  HostAddress auth_addr = 0;
  HostAddress resolver_addr = 0;
  AuthoritativeServer* auth = nullptr;
  DccNode* shim = nullptr;
  RecursiveResolver* resolver = nullptr;
};

StubConfig Rate(double qps, Time start, Time stop, Duration timeout = Seconds(2)) {
  StubConfig config;
  config.start = start;
  config.stop = stop;
  config.qps = qps;
  config.timeout = timeout;
  return config;
}

TEST(DccNodeTest, PassthroughResolutionWorks) {
  DccDeployment d(1000);
  StubClient& stub = d.AddClient(Rate(10, 0, Seconds(2)), MakeWcGenerator(TargetApex(), 1));
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_GT(stub.SuccessRatio(), 0.95);
  EXPECT_GT(d.shim->queries_sent(), 0u);
  EXPECT_EQ(d.shim->queries_scheduled(), d.shim->queries_sent());
}

TEST(DccNodeTest, AttributionStrippedBeforeUpstream) {
  // The authoritative server must never see the attribution option; verify
  // indirectly: resolution succeeds and the shim tracked per-request state.
  DccDeployment d(1000);
  StubClient& stub = d.AddClient(Rate(5, 0, Seconds(1)), MakeWcGenerator(TargetApex(), 2));
  stub.Start();
  d.bed.RunFor(Seconds(3));
  EXPECT_GT(stub.succeeded(), 0u);
  EXPECT_GT(d.shim->queries_sent(), 0u);
}

TEST(DccNodeTest, FairSharingUnderAggressiveClient) {
  // Channel 100 QPS; a 400-QPS aggressor and a 40-QPS benign client (both
  // cache-bypassing WC): the benign client must keep ~its demand where a
  // vanilla resolver would let the aggressor crowd it out.
  DccDeployment d(100);
  StubClient& attacker =
      d.AddClient(Rate(400, 0, Seconds(20), Milliseconds(900)),
                  MakeWcGenerator(TargetApex(), 3));
  StubClient& benign =
      d.AddClient(Rate(40, 0, Seconds(20), Milliseconds(900)),
                  MakeWcGenerator(TargetApex(), 4));
  attacker.Start();
  benign.Start();
  d.bed.RunFor(Seconds(25));
  // WC resolution needs ~1 upstream query per request once the subtree NS
  // walk is cached; fair share for the benign client is min(40, 100/2) = 40.
  EXPECT_GT(benign.SuccessRatio(), 0.8);
  // The aggressor is clamped near the remaining capacity (~60 QPS of 400).
  EXPECT_LT(attacker.SuccessRatio(), 0.35);
  EXPECT_GT(d.shim->servfails_synthesized(), 0u);
}

TEST(DccNodeTest, VanillaComparisonShowsCongestion) {
  // Same workload through a vanilla resolver with a 100-QPS-rate-limited
  // authoritative: the benign client suffers.
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeConfig auth_config;
  auth_config.rrl.enabled = true;
  auth_config.rrl.noerror_qps = 100;
  auth_config.rrl.nxdomain_qps = 100;
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr, auth_config);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  const HostAddress resolver_addr = bed.NextAddress();
  ResolverConfig rc;
  rc.upstream_timeout = Milliseconds(400);
  rc.upstream_retries = 0;
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, rc);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  StubClient& attacker = bed.AddStub(bed.NextAddress(),
                                     Rate(400, 0, Seconds(20), Milliseconds(900)),
                                     MakeWcGenerator(TargetApex(), 3));
  attacker.AddResolver(resolver_addr);
  StubClient& benign = bed.AddStub(bed.NextAddress(),
                                   Rate(40, 0, Seconds(20), Milliseconds(900)),
                                   MakeWcGenerator(TargetApex(), 4));
  benign.AddResolver(resolver_addr);
  attacker.Start();
  benign.Start();
  bed.RunFor(Seconds(25));
  // Without DCC the benign client's success collapses towards the
  // proportional share 100/440.
  EXPECT_LT(benign.SuccessRatio(), 0.5);
}

TEST(DccNodeTest, NxAnomalyConvictionRateLimitsAttacker) {
  DccDeployment d(1000);
  StubClient& attacker = d.AddClient(Rate(300, 0, Seconds(30), Milliseconds(900)),
                                     MakeNxGenerator(TargetApex(), 5));
  StubClient& benign = d.AddClient(Rate(50, 0, Seconds(30), Milliseconds(900)),
                                   MakeWcGenerator(TargetApex(), 6));
  attacker.Start();
  benign.Start();
  d.bed.RunFor(Seconds(35));
  EXPECT_GT(d.shim->convictions(), 0u);
  EXPECT_GT(d.shim->policed_drops(), 0u);
  EXPECT_GT(benign.SuccessRatio(), 0.9);
  // The attacker is rate limited to ~100 QPS after conviction.
  EXPECT_LT(attacker.SuccessRatio(), 0.75);
}

TEST(DccNodeTest, SuspicionGeneratesAnomalySignals) {
  DccDeployment d(1000);
  StubConfig attacker_config = Rate(300, 0, Seconds(10), Milliseconds(900));
  attacker_config.dcc_aware = true;
  StubClient& attacker = d.AddClient(attacker_config, MakeNxGenerator(TargetApex(), 7));
  attacker.Start();
  d.bed.RunFor(Seconds(12));
  EXPECT_GT(d.shim->signals_attached(), 0u);
  EXPECT_GT(attacker.anomaly_signals_seen() + attacker.policing_signals_seen(), 0u);
}

TEST(DccNodeTest, CongestionSignalReachesDccAwareClient) {
  DccDeployment d(50);  // Tight channel.
  StubConfig config = Rate(300, 0, Seconds(10), Milliseconds(900));
  config.dcc_aware = true;
  StubClient& client = d.AddClient(config, MakeWcGenerator(TargetApex(), 8));
  client.Start();
  d.bed.RunFor(Seconds(12));
  EXPECT_GT(client.congestion_signals_seen(), 0u);
}

TEST(DccNodeTest, StatePurgedAfterIdle) {
  DccDeployment d(1000);
  StubClient& stub = d.AddClient(Rate(50, 0, Seconds(2)), MakeWcGenerator(TargetApex(), 9));
  stub.Start();
  d.bed.RunFor(Seconds(30));  // 28 s of idleness > 10 s timeout.
  EXPECT_EQ(d.shim->PerRequestStateCount(), 0u);
  EXPECT_EQ(d.shim->monitor().TrackedClients(), 0u);
}

TEST(DccNodeTest, MemoryFootprintReported) {
  DccDeployment d(1000);
  StubClient& stub = d.AddClient(Rate(100, 0, Seconds(2)), MakeWcGenerator(TargetApex(), 10));
  stub.Start();
  d.bed.RunFor(Seconds(3));
  EXPECT_GT(d.shim->MemoryFootprint(), 0u);
  EXPECT_GT(d.shim->PerClientStateCount(), 0u);
}

TEST(DccNodeTest, WeightedClientSharesRespected) {
  // Client A pays for a 3x share: under overload it gets ~3x client B's
  // goodput (§3.2.1 client share allocation).
  DccDeployment d(200);
  StubClient& a = d.AddClient(Rate(400, 0, Seconds(20), Milliseconds(900)),
                              MakeWcGenerator(TargetApex(), 21));
  StubClient& b = d.AddClient(Rate(400, 0, Seconds(20), Milliseconds(900)),
                              MakeWcGenerator(TargetApex(), 22));
  // Addresses are allocated sequentially: auth, resolver, then the stubs.
  const HostAddress a_addr = d.resolver_addr + 1;
  const HostAddress b_addr = d.resolver_addr + 2;
  d.shim->SetClientShare(a_addr, 3.0);
  d.shim->SetClientShare(b_addr, 1.0);
  a.Start();
  b.Start();
  d.bed.RunFor(Seconds(25));
  const double ratio =
      static_cast<double>(a.succeeded()) / std::max<uint64_t>(1, b.succeeded());
  EXPECT_NEAR(ratio, 3.0, 0.8);
}

TEST(DccNodeTest, CountdownRelayDecrementLowersCountdown) {
  // Unit-ish check through the wire: a shim with a relay decrement re-emits
  // anomaly signals with a smaller countdown (Fig. 6's F1 behavior). Covered
  // end-to-end by the signaling tests; here just assert the config plumbs.
  DccConfig config;
  config.countdown_relay_decrement = 5;
  EXPECT_EQ(config.countdown_relay_decrement, 5);
}

TEST(DccNodeTest, DccAwareClientSwitchesResolverOnCongestion) {
  // Client has two resolvers: one behind a congested channel (DCC signals
  // congestion), one healthy. A DCC-aware client migrates.
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));

  const HostAddress congested_addr = bed.NextAddress();
  auto [congested_shim, congested_resolver] =
      bed.AddDccResolver(congested_addr, FastDcc(30));  // Tiny channel.
  congested_resolver.AddAuthorityHint(TargetApex(), auth_addr);
  congested_shim.SetChannelCapacity(auth_addr, 30);

  const HostAddress healthy_addr = bed.NextAddress();
  auto [healthy_shim, healthy_resolver] =
      bed.AddDccResolver(healthy_addr, FastDcc(5000));
  healthy_resolver.AddAuthorityHint(TargetApex(), auth_addr);
  healthy_shim.SetChannelCapacity(auth_addr, 5000);

  StubConfig config = Rate(200, 0, Seconds(20), Milliseconds(900));
  config.dcc_aware = true;
  StubClient& client =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 23));
  client.AddResolver(congested_addr);  // Preferred initially.
  client.AddResolver(healthy_addr);
  client.Start();
  bed.RunFor(Seconds(25));
  EXPECT_GT(client.congestion_signals_seen(), 0u);
  // After migrating, the bulk of traffic succeeds via the healthy resolver.
  EXPECT_GT(client.SuccessRatio(), 0.8);
  EXPECT_GT(healthy_resolver.requests_received(), 2000u);
}

TEST(DccNodeTest, EvictionSynthesizesServfailForVictim) {
  // A source that runs far ahead gets its latest-round message evicted when
  // slower sources join a full queue; the shim reports it as a SERVFAIL.
  DccDeployment d(50);
  StubClient& fast = d.AddClient(Rate(500, 0, Seconds(10), Milliseconds(900)),
                                 MakeWcGenerator(TargetApex(), 24));
  StubClient& slow = d.AddClient(Rate(20, Seconds(2), Seconds(10), Milliseconds(900)),
                                 MakeWcGenerator(TargetApex(), 25));
  fast.Start();
  slow.Start();
  d.bed.RunFor(Seconds(14));
  // Fast client rejected heavily; slow client protected.
  EXPECT_GT(d.shim->servfails_synthesized(), 100u);
  EXPECT_GT(slow.SuccessRatio(), 0.8);
}

// --- signaling along a resolution path (Fig. 6 / §5.1 "Efficacy of
// Signaling") ---------------------------------------------------------------

struct PathDeployment {
  explicit PathDeployment(bool signaling,
                          telemetry::TelemetrySink* sink = nullptr)
      : bed(sink) {
    auth_addr = bed.NextAddress();
    resolver_addr = bed.NextAddress();
    forwarder_addr = bed.NextAddress();
    auth = &bed.AddAuthoritative(auth_addr);
    auth->AddZone(MakeTargetZone(TargetApex(), auth_addr));

    DccConfig resolver_dcc = FastDcc(1000);
    resolver_dcc.signaling_enabled = signaling;
    auto [rshim, rref] = bed.AddDccResolver(resolver_addr, resolver_dcc);
    resolver_shim = &rshim;
    resolver = &rref;
    resolver->AddAuthorityHint(TargetApex(), auth_addr);
    resolver_shim->SetChannelCapacity(auth_addr, 1000);

    DccConfig fwd_dcc = FastDcc(1000);
    fwd_dcc.signaling_enabled = signaling;
    fwd_dcc.countdown_police_threshold = 5;
    // Disable the forwarder's *local* anomaly detection so the tests
    // isolate the signaling mechanism (a forwarder typically lacks the
    // resolver operator's anomaly definitions, §3.2.2).
    fwd_dcc.anomaly.nx_ratio_threshold = 10.0;
    fwd_dcc.anomaly.amplification_threshold = 1e9;
    ForwarderConfig fwd_config;
    fwd_config.cache_enabled = true;
    auto [fshim, fref] = bed.AddDccForwarder(forwarder_addr, fwd_dcc, fwd_config);
    forwarder_shim = &fshim;
    forwarder = &fref;
    forwarder->AddUpstream(resolver_addr);
    forwarder_shim->SetChannelCapacity(resolver_addr, 1000);
  }

  StubClient& AddForwarderClient(StubConfig config, QuestionGenerator generator) {
    StubClient& stub = bed.AddStub(bed.NextAddress(), config, std::move(generator));
    stub.AddResolver(forwarder_addr);
    return stub;
  }

  Testbed bed;
  HostAddress auth_addr = 0;
  HostAddress resolver_addr = 0;
  HostAddress forwarder_addr = 0;
  AuthoritativeServer* auth = nullptr;
  DccNode* resolver_shim = nullptr;
  DccNode* forwarder_shim = nullptr;
  RecursiveResolver* resolver = nullptr;
  Forwarder* forwarder = nullptr;
};

TEST(DccSignalingTest, ForwarderPolicesCulpritOnSignal) {
  PathDeployment d(/*signaling=*/true);
  // Attacker floods NX through the forwarder; resolver's anomaly monitor
  // fires on the forwarder (its direct client), signals flow downstream, and
  // the forwarder polices the attacker before the resolver polices the
  // forwarder.
  StubClient& attacker = d.AddForwarderClient(Rate(300, 0, Seconds(30), Milliseconds(900)),
                                              MakeNxGenerator(TargetApex(), 11));
  StubClient& benign = d.AddForwarderClient(Rate(30, 0, Seconds(30), Milliseconds(900)),
                                            MakeWcGenerator(TargetApex(), 12));
  attacker.Start();
  benign.Start();
  d.bed.RunFor(Seconds(35));
  // The forwarder convicted its own client from the upstream signal.
  EXPECT_GT(d.forwarder_shim->policed_drops(), 0u);
  // The benign client rides out the attack.
  EXPECT_GT(benign.SuccessRatio(), 0.85);
}

TEST(DccSignalingTest, WithoutSignalingForwarderIsPunished) {
  PathDeployment d(/*signaling=*/false);
  StubClient& attacker = d.AddForwarderClient(Rate(300, 0, Seconds(30), Milliseconds(900)),
                                              MakeNxGenerator(TargetApex(), 11));
  StubClient& benign = d.AddForwarderClient(Rate(30, 0, Seconds(30), Milliseconds(900)),
                                            MakeWcGenerator(TargetApex(), 12));
  attacker.Start();
  benign.Start();
  d.bed.RunFor(Seconds(35));
  // The resolver's DCC convicts the *forwarder* (its only visible client):
  // collateral damage hits the benign client too.
  EXPECT_GT(d.resolver_shim->convictions(), 0u);
  EXPECT_GT(d.resolver_shim->policed_drops(), 0u);
  EXPECT_EQ(d.forwarder_shim->policed_drops(), 0u);
  EXPECT_LT(benign.SuccessRatio(), 0.8);
}

// Regression: the shim's unlabelled state gauges used to keep only the
// last-registered node's callback, so a run with a DCC forwarder and a DCC
// resolver exported the forwarder's state alone. Several sources of one
// instrument now report their sum, like the shared dcc_*_total counters.
TEST(DccSignalingTest, StateGaugesSumOverEveryShim) {
  telemetry::TelemetrySink sink;
  PathDeployment d(/*signaling=*/true, &sink);
  StubClient& client = d.AddForwarderClient(Rate(200, 0, Seconds(3)),
                                            MakeWcGenerator(TargetApex(), 5));
  client.Start();
  d.bed.RunFor(Seconds(2));
  const telemetry::MetricsSnapshot snapshot = sink.metrics.Snapshot();
  const DccNode& fwd = *d.forwarder_shim;
  const DccNode& res = *d.resolver_shim;
  ASSERT_GT(fwd.MemoryFootprint(), 0u);
  ASSERT_GT(res.MemoryFootprint(), 0u);
  EXPECT_EQ(snapshot.Value("dcc_memory_bytes", {}),
            static_cast<double>(fwd.MemoryFootprint() + res.MemoryFootprint()));
  EXPECT_EQ(snapshot.Value("dcc_per_client_state", {}),
            static_cast<double>(fwd.PerClientStateCount() +
                                res.PerClientStateCount()));
  EXPECT_EQ(snapshot.Value("dcc_pending_queries", {}),
            static_cast<double>(fwd.PerRequestStateCount() +
                                res.PerRequestStateCount()));
  EXPECT_EQ(snapshot.Value("dcc_scheduler_dequeue_total", {}),
            static_cast<double>(fwd.queries_sent() + res.queries_sent()));
}

// Answers every query with NOERROR and a DCC policing option, as a DCC
// resolver that polices its client does.
class PolicingUpstream : public Node {
 public:
  void OnDatagram(Datagram dgram) override {
    const Message* query = dgram.payload.Get<Message>();
    if (query == nullptr || !query->IsQuery()) {
      return;
    }
    Message answer = MakeResponse(*query, Rcode::kNoError);
    SetOption(answer, EncodePolicingSignal({PolicyType::kRateLimit, 5000}));
    ++answered;
    SendDatagram(dgram.dst.port, dgram.src, WireBytes(std::move(answer)));
  }

  uint64_t answered = 0;
};

TEST(DccNodeTest, ForwarderStripsUpstreamDccOptions) {
  // A forwarder relays the upstream message, EDNS options included, so only
  // the shim's strip keeps an upstream's DCC signals from its clients. With
  // signaling off the shim attaches none of its own either.
  PolicingUpstream upstream;
  Testbed bed;
  const HostAddress upstream_addr = bed.NextAddress();
  const HostAddress forwarder_addr = bed.NextAddress();
  bed.network().RegisterNode(&upstream, upstream_addr);
  DccConfig dcc = FastDcc(1000);
  dcc.signaling_enabled = false;
  auto [shim, forwarder] = bed.AddDccForwarder(forwarder_addr, dcc);
  forwarder.AddUpstream(upstream_addr);
  shim.SetChannelCapacity(upstream_addr, 1000);
  StubConfig config = Rate(20, 0, Seconds(1));
  config.dcc_aware = true;
  StubClient& stub = bed.AddStub(bed.NextAddress(), config,
                                 MakeWcGenerator(TargetApex(), 7));
  stub.AddResolver(forwarder_addr);
  stub.Start();
  bed.RunFor(Seconds(3));
  EXPECT_GT(upstream.answered, 0u);
  EXPECT_GT(stub.succeeded(), 0u);
  EXPECT_EQ(stub.policing_signals_seen(), 0u);
}

TEST(DccNodeTest, PolicedClientReceivesExtendedDnsError) {
  // A client whose queries are policed learns why via the standard RFC 8914
  // Extended DNS Error on its failed responses (§6), independent of the
  // DCC-private signal options.
  DccDeployment d(1000);
  StubClient& attacker = d.AddClient(Rate(300, 0, Seconds(30), Milliseconds(900)),
                                     MakeNxGenerator(TargetApex(), 61));
  attacker.Start();
  d.bed.RunFor(Seconds(35));
  EXPECT_GT(d.shim->convictions(), 0u);
  EXPECT_GT(attacker.extended_errors_seen(), 0u);
}

TEST(DccNodeTest, PrefixAggregationSharesOneAllocation) {
  // Two attackers in the same /24 with prefix aggregation enabled share one
  // scheduling identity: together they get one fair share, not two.
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  DccConfig dcc = FastDcc(100);
  dcc.client_prefix_bits = 24;
  const HostAddress resolver_addr = bed.NextAddress();
  auto [shim, resolver] = bed.AddDccResolver(resolver_addr, dcc);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  shim.SetChannelCapacity(auth_addr, 100);

  // Two attackers share 10.9.9.0/24; the benign client sits elsewhere.
  auto add_client = [&](HostAddress addr, double qps, uint64_t seed) -> StubClient& {
    StubConfig config = Rate(qps, 0, Seconds(20), Milliseconds(900));
    StubClient& stub = bed.AddStub(addr, config, MakeWcGenerator(TargetApex(), seed));
    stub.AddResolver(resolver_addr);
    stub.Start();
    return stub;
  };
  StubClient& atk1 = add_client(0x0a090901, 200, 51);
  StubClient& atk2 = add_client(0x0a090902, 200, 52);
  StubClient& benign = add_client(0x0a770001, 40, 53);
  bed.RunFor(Seconds(25));

  // Benign keeps its demand (fair share 50 > 40); the /24 pair splits the
  // remaining ~60 QPS between them (one aggregated identity).
  EXPECT_GT(benign.SuccessRatio(), 0.8);
  const double pair_qps =
      static_cast<double>(atk1.succeeded() + atk2.succeeded()) / 20.0;
  EXPECT_LT(pair_qps, 85);  // Far below the 2x share they'd get unaggregated.
}

// --- Fig. 6: three-hop relay with countdown decrement ----------------------

TEST(DccSignalingTest, ThreeHopRelayPolicesAtTheEdge) {
  // host -> F1 (DCC) -> F2 (DCC) -> R (DCC) -> ANS. R detects the anomaly on
  // its client (F2); the anomaly signal relays down through F2 (which lowers
  // the countdown like Fig. 6's F1) to F1, which polices the end host. The
  // policing must land at the edge (F1), not on F2 or the forwarder chain.
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));

  DccConfig r_dcc = FastDcc(2000);
  r_dcc.anomaly.alarms_to_convict = 12;  // Slow conviction at the resolver...
  r_dcc.countdown_police_threshold = 2;
  const HostAddress r_addr = bed.NextAddress();
  auto [r_shim, resolver] = bed.AddDccResolver(r_addr, r_dcc);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);

  DccConfig f2_dcc = FastDcc(2000);
  f2_dcc.anomaly.nx_ratio_threshold = 10.0;  // No local detection.
  f2_dcc.countdown_police_threshold = 2;     // Prefers relaying...
  f2_dcc.countdown_relay_decrement = 6;      // ...with a lowered countdown.
  const HostAddress f2_addr = bed.NextAddress();
  auto [f2_shim, f2] = bed.AddDccForwarder(f2_addr, f2_dcc);
  f2.AddUpstream(r_addr);

  DccConfig f1_dcc = FastDcc(2000);
  f1_dcc.anomaly.nx_ratio_threshold = 10.0;
  f1_dcc.countdown_police_threshold = 6;  // Triggered by the lowered value.
  const HostAddress f1_addr = bed.NextAddress();
  auto [f1_shim, f1] = bed.AddDccForwarder(f1_addr, f1_dcc);
  f1.AddUpstream(f2_addr);

  StubClient& attacker = bed.AddStub(bed.NextAddress(),
                                     Rate(300, 0, Seconds(30), Milliseconds(900)),
                                     MakeNxGenerator(TargetApex(), 41));
  attacker.AddResolver(f1_addr);
  StubClient& benign = bed.AddStub(bed.NextAddress(),
                                   Rate(30, 0, Seconds(30), Milliseconds(900)),
                                   MakeWcGenerator(TargetApex(), 42));
  benign.AddResolver(f1_addr);
  attacker.Start();
  benign.Start();
  bed.RunFor(Seconds(35));

  // The edge forwarder policed the end-host attacker.
  EXPECT_GT(f1_shim.policed_drops(), 0u);
  EXPECT_GT(f1_shim.signals_processed(), 0u);
  // F2 relayed (it saw signals) and the chain itself stayed un-policed at R.
  EXPECT_GT(f2_shim.signals_processed(), 0u);
  EXPECT_LT(attacker.SuccessRatio(), 0.6);
  EXPECT_GT(benign.SuccessRatio(), 0.9);
}

// --- §3.3.4: co-existence of signal types ----------------------------------

TEST(DccSignalingTest, ResponseCarriesOneSignalPerType) {
  // A response can carry one signal of each type simultaneously; build one
  // and verify wire round-trip keeps all three (the co-existence format).
  Message response = MakeResponse(
      MakeQuery(5, *Name::Parse("multi.wc.target-domain"), RecordType::kA),
      Rcode::kServFail);
  SetOption(response, EncodeAnomalySignal(
                          {AnomalyReason::kNxDomainRatio, PolicyType::kRateLimit,
                           30000, 4}));
  SetOption(response, EncodePolicingSignal({PolicyType::kBlock, 20000}));
  SetOption(response, EncodeCongestionSignal({17, 250}));
  // Re-setting a type replaces rather than duplicates (upstream preference).
  SetOption(response, EncodeAnomalySignal(
                          {AnomalyReason::kUpstreamSignal, PolicyType::kBlock,
                           10000, 2}));
  ASSERT_TRUE(response.edns.has_value());
  EXPECT_EQ(response.edns->options.size(), 3u);
  const auto wire = EncodeMessage(response);
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  const auto anomaly = GetAnomalySignal(*decoded);
  ASSERT_TRUE(anomaly.has_value());
  EXPECT_EQ(anomaly->reason, AnomalyReason::kUpstreamSignal);
  EXPECT_EQ(anomaly->countdown, 2);
  EXPECT_TRUE(GetPolicingSignal(*decoded).has_value());
  EXPECT_TRUE(GetCongestionSignal(*decoded).has_value());
}

}  // namespace
}  // namespace dcc
