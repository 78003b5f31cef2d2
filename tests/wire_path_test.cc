// Wire path vs direct path: a datagram carries its sender's Message, and the
// codec runs only where bytes are read. A NetworkFaultHook that calls
// payload.Mutable() on every datagram turns each one into bytes, so every
// hop encodes and its receiver decodes, as on a real network. Three
// topologies (a DCC resolver under a WC flood, a vanilla resolver under FF
// amplification, a fleet behind a frontend with a member blackout and a
// loss window) must end with the same outcomes, counters and event counts
// either way.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/telemetry/profiler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

// Rewrites every datagram into its wire bytes.
class WireEveryHop : public NetworkFaultHook {
 public:
  Verdict OnDatagram(const Endpoint&, const Endpoint&, WireBytes& payload) override {
    payload.Mutable();
    ++hops;
    return {};
  }
  uint64_t hops = 0;
};

StubConfig Rate(double qps, Time stop, Duration timeout = Seconds(2)) {
  StubConfig config;
  config.qps = qps;
  config.stop = stop;
  config.timeout = timeout;
  return config;
}

void AddStub(std::vector<StubClient*>& stubs, StubClient& stub, HostAddress resolver) {
  stub.AddResolver(resolver);
  stub.Start();
  stubs.push_back(&stub);
}

// Everything a run is compared on, plus what the codec did during it.
struct Run {
  std::vector<uint64_t> fingerprint;
  prof::CopyCounters copies;
};

// Builds a topology on `bed` (with `hook` installed first), runs it, and
// returns its fingerprint: the executed event count, then the counters the
// builder's `collect` appends.
using Topology =
    std::function<std::function<void(std::vector<uint64_t>&)>(Testbed& bed)>;

Run RunTopology(const Topology& build, NetworkFaultHook* hook, Duration horizon) {
  Run run;
  prof::Reset();
  prof::Enable();
  {
    Testbed bed;
    bed.network().SetFaultHook(hook);
    const auto collect = build(bed);
    run.fingerprint.push_back(bed.RunFor(horizon));
    collect(run.fingerprint);
  }
  prof::Disable();
  run.copies = prof::Snapshot().copies;
  prof::Reset();
  return run;
}

void AppendStubs(const std::vector<StubClient*>& stubs, std::vector<uint64_t>& out) {
  for (const StubClient* stub : stubs) {
    out.insert(out.end(), {stub->requests_sent(), stub->succeeded(), stub->failed(),
                           stub->congestion_signals_seen(), stub->policing_signals_seen(),
                           stub->anomaly_signals_seen(), stub->extended_errors_seen()});
  }
}

void AppendResolver(const RecursiveResolver& r, std::vector<uint64_t>& out) {
  out.insert(out.end(), {r.requests_received(), r.responses_sent(), r.queries_sent(),
                         r.cache_hit_responses(), r.egress_rate_limited(),
                         r.stale_responses()});
}

// Fig. 8a: a WC flood four times the channel against a DCC resolver.
std::function<void(std::vector<uint64_t>&)> DccWcFlood(Testbed& bed) {
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  DccConfig dcc;
  dcc.scheduler.default_channel_qps = 500;
  dcc.scheduler.max_poq_depth = 50;
  dcc.anomaly.window = Seconds(2);
  dcc.anomaly.alarms_to_convict = 2;
  auto [shim, resolver] = bed.AddDccResolver(resolver_addr, dcc);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  shim.SetChannelCapacity(auth_addr, 500);
  std::vector<StubClient*> stubs;
  AddStub(stubs, bed.AddStub(bed.NextAddress(), Rate(100, Seconds(8)),
                             MakeWcGenerator(TargetApex(), 1)),
          resolver_addr);
  AddStub(stubs, bed.AddStub(bed.NextAddress(), Rate(2000, Seconds(8)),
                             MakeWcGenerator(TargetApex(), 2)),
          resolver_addr);
  return [&shim, &resolver, &auth, stubs](std::vector<uint64_t>& out) {
    EXPECT_GT(shim.servfails_synthesized(), 0u) << "the channel must congest";
    AppendStubs(stubs, out);
    AppendResolver(resolver, out);
    out.insert(out.end(), {shim.queries_scheduled(), shim.queries_sent(),
                           shim.enqueue_congested(), shim.enqueue_overflow(),
                           shim.enqueue_overspeed(), shim.evictions(), shim.policed_drops(),
                           shim.servfails_synthesized(), shim.signals_attached(),
                           shim.signals_processed(), shim.convictions(),
                           shim.PerRequestStateCount(), shim.PerClientStateCount(),
                           shim.MemoryFootprint(), auth.queries_received()});
  };
}

// Fig. 8c: FF amplification against a vanilla resolver whose target
// authority rate-limits it, so retransmissions resend cached payloads.
std::function<void(std::vector<uint64_t>&)> VanillaFfAmplification(Testbed& bed) {
  const HostAddress target_addr = bed.NextAddress();
  const HostAddress attacker_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeConfig target_config;
  target_config.rrl.enabled = true;
  target_config.rrl.noerror_qps = 400;
  target_config.rrl.nxdomain_qps = 400;
  AuthoritativeServer& target = bed.AddAuthoritative(target_addr, target_config);
  target.AddZone(MakeTargetZone(TargetApex(), target_addr));
  const Name attacker_apex = *Name::Parse("attacker-com");
  AttackerZoneOptions fanout;
  fanout.instances = 200;
  AuthoritativeServer& attacker = bed.AddAuthoritative(attacker_addr);
  attacker.AddZone(MakeAttackerZone(attacker_apex, TargetApex(), fanout));
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr);
  resolver.AddAuthorityHint(TargetApex(), target_addr);
  resolver.AddAuthorityHint(attacker_apex, attacker_addr);
  std::vector<StubClient*> stubs;
  AddStub(stubs, bed.AddStub(bed.NextAddress(), Rate(100, Seconds(6)),
                             MakeWcGenerator(TargetApex(), 3)),
          resolver_addr);
  AddStub(stubs, bed.AddStub(bed.NextAddress(), Rate(40, Seconds(6)),
                             MakeFfGenerator(attacker_apex, fanout.instances)),
          resolver_addr);
  return [&resolver, &target, &attacker, stubs](std::vector<uint64_t>& out) {
    EXPECT_GT(target.rate_limited(), 0u) << "the target must rate-limit";
    AppendStubs(stubs, out);
    AppendResolver(resolver, out);
    out.insert(out.end(), {target.queries_received(), target.rate_limited(),
                           attacker.queries_received()});
  };
}

// A cache-hit-heavy fleet of three resolvers behind a frontend; one member
// is blacked out, then every link loses 5% of datagrams for two seconds.
std::function<void(std::vector<uint64_t>&)> FleetFailover(Testbed& bed) {
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  std::vector<HostAddress> members;
  std::vector<RecursiveResolver*> resolvers;
  for (int i = 0; i < 3; ++i) {
    members.push_back(bed.NextAddress());
    ResolverConfig config;
    config.upstream_timeout = Milliseconds(300);
    resolvers.push_back(&bed.AddResolver(members.back(), config));
    resolvers.back()->AddAuthorityHint(TargetApex(), auth_addr);
  }
  const HostAddress frontend_addr = bed.NextAddress();
  FrontendConfig config;
  config.probe_name = "ans.target-domain";
  config.query_timeout = Milliseconds(300);
  FleetFrontend& frontend = bed.AddFrontend(frontend_addr, config);
  for (HostAddress member : members) {
    frontend.AddMember(member);
  }
  frontend.Start();
  std::vector<StubClient*> stubs;
  for (uint64_t seed = 10; seed < 13; ++seed) {
    AddStub(stubs, bed.AddStub(bed.NextAddress(), Rate(300, Seconds(9)),
                               MakeWcGenerator(TargetApex(), seed, /*unique_names=*/40)),
            frontend_addr);
  }
  Network& net = bed.network();
  const HostAddress victim = members[1];
  bed.loop().ScheduleAt(Seconds(2), [&net, victim] { net.SetHostDown(victim, true); });
  bed.loop().ScheduleAt(Seconds(5), [&net, victim] { net.SetHostDown(victim, false); });
  bed.loop().ScheduleAt(Seconds(6), [&net] { net.SetLossProbability(0.05, 7); });
  bed.loop().ScheduleAt(Seconds(8), [&net] { net.SetLossProbability(0, 7); });
  return [&frontend, &auth, resolvers, stubs](std::vector<uint64_t>& out) {
    EXPECT_GT(frontend.resteers(), 0u) << "the blackout must force re-steers";
    AppendStubs(stubs, out);
    for (const RecursiveResolver* resolver : resolvers) {
      AppendResolver(*resolver, out);
    }
    out.insert(out.end(), {frontend.requests_received(), frontend.responses_sent(),
                           frontend.queries_sent(), frontend.resteers(),
                           frontend.resteer_denied(), frontend.probes_sent(),
                           frontend.probe_timeouts(), frontend.servfails_sent(),
                           auth.queries_received()});
  };
}

void ExpectWirePathMatchesDirectPath(const Topology& build, Duration horizon) {
  const Run direct = RunTopology(build, nullptr, horizon);
  WireEveryHop wire;
  const Run rewired = RunTopology(build, &wire, horizon);

  EXPECT_EQ(rewired.fingerprint, direct.fingerprint);
  // The direct path runs no codec at all. The wire path encodes each hooked
  // datagram (a shared retransmit payload once for all its sends) and
  // decodes each one that reaches a host.
  EXPECT_EQ(direct.copies.encode_calls, 0u);
  EXPECT_EQ(direct.copies.decode_calls, 0u);
  EXPECT_GT(wire.hops, 1000u);
  EXPECT_GT(rewired.copies.encode_calls, wire.hops / 2);
  EXPECT_LE(rewired.copies.encode_calls, wire.hops);
  EXPECT_GT(rewired.copies.decode_calls, wire.hops / 2);
  EXPECT_LE(rewired.copies.decode_calls, wire.hops);
}

TEST(WirePathTest, DccWcFloodMatchesDirectPath) {
  ExpectWirePathMatchesDirectPath(DccWcFlood, Seconds(10));
}

TEST(WirePathTest, VanillaFfAmplificationMatchesDirectPath) {
  ExpectWirePathMatchesDirectPath(VanillaFfAmplification, Seconds(8));
}

TEST(WirePathTest, FleetFailoverMatchesDirectPath) {
  ExpectWirePathMatchesDirectPath(FleetFailover, Seconds(10));
}

}  // namespace
}  // namespace dcc
