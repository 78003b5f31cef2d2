// Integration tests for src/server over the simulated network: the
// authoritative server, the recursive resolver's full iteration machinery
// (cache, CNAME chase, QMIN, delegation fan-out, rate limits, failure
// handling), the forwarder, and the stub client.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/dns/codec.h"
#include "src/telemetry/sampler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

// The default target zone with `extra` records added.
Zone TargetZoneWith(HostAddress ans_addr, std::vector<ResourceRecord> extra) {
  const Zone base = MakeTargetZone(TargetApex(), ans_addr);
  std::vector<ResourceRecord> records;
  for (const ResourceRecord& rr : base.records()) {
    if (rr.type != RecordType::kSoa) {  // The rebuilt zone adds its own.
      records.push_back(rr);
    }
  }
  records.insert(records.end(), extra.begin(), extra.end());
  return Zone(base.apex(), base.SoaRecord().soa(), std::move(records),
              {.default_ttl = base.default_ttl()});
}

// Ticks `sampler` every second of virtual time for `horizon`.
void StartSampling(Testbed& bed, telemetry::TimeSeriesSampler& sampler,
                   Time horizon) {
  EventLoop& loop = bed.loop();
  loop.SchedulePeriodic(
      sampler.interval(),
      [&sampler, &loop]() { sampler.SampleNow(loop.now()); }, horizon);
}

// Standard deployment: one authoritative server for the target zone, one
// recursive resolver hinted at it, one stub client.
struct Deployment {
  explicit Deployment(TargetZoneOptions zone_options = {},
                      ResolverConfig resolver_config = {},
                      AuthoritativeConfig auth_config = {}) {
    auth_addr = bed.NextAddress();
    resolver_addr = bed.NextAddress();
    client_addr = bed.NextAddress();
    auth = &bed.AddAuthoritative(auth_addr, auth_config);
    auth->AddZone(MakeTargetZone(TargetApex(), auth_addr, zone_options));
    resolver = &bed.AddResolver(resolver_addr, resolver_config);
    resolver->AddAuthorityHint(TargetApex(), auth_addr);
  }

  StubClient& AddClient(StubConfig config, QuestionGenerator generator) {
    StubClient& stub = bed.AddStub(client_addr, config, std::move(generator));
    stub.AddResolver(resolver_addr);
    return stub;
  }

  Testbed bed;
  HostAddress auth_addr = 0;
  HostAddress resolver_addr = 0;
  HostAddress client_addr = 0;
  AuthoritativeServer* auth = nullptr;
  RecursiveResolver* resolver = nullptr;
};

StubConfig OneShot(int count = 1, double qps = 100.0) {
  StubConfig config;
  config.start = 0;
  config.stop = static_cast<Time>(static_cast<double>(count) / qps * kSecond);
  config.qps = qps;
  config.timeout = Seconds(5);
  return config;
}

TEST(AuthoritativeTest, AnswersWildcardQuery) {
  Deployment d;
  StubClient& stub = d.AddClient(OneShot(1), MakeWcGenerator(TargetApex(), 1));
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(stub.failed(), 0u);
  EXPECT_GE(d.auth->queries_received(), 1u);
}

TEST(AuthoritativeTest, RefusesOutOfZoneQueries) {
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress client_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubClient& stub = bed.AddStub(client_addr, OneShot(1), [](uint64_t) {
    return Question{*Name::Parse("elsewhere.net"), RecordType::kA};
  });
  stub.AddResolver(auth_addr);  // Query the authoritative directly.
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_EQ(stub.failed(), 1u);  // REFUSED counts as failure.
}

TEST(AuthoritativeTest, RrlDropsExcessResponses) {
  AuthoritativeConfig auth_config;
  auth_config.rrl.enabled = true;
  auth_config.rrl.noerror_qps = 50;
  auth_config.rrl.nxdomain_qps = 50;
  auth_config.rrl.burst = 5;
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress client_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr, auth_config);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubConfig config = OneShot(400, 200.0);  // 200 QPS for 2 s.
  config.timeout = Milliseconds(500);
  StubClient& stub = bed.AddStub(client_addr, config, MakeWcGenerator(TargetApex(), 2));
  stub.AddResolver(auth_addr);
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_GT(auth.rate_limited(), 100u);
  // Roughly 50/200 of requests succeed.
  EXPECT_NEAR(stub.SuccessRatio(), 0.25, 0.1);
}

TEST(AuthoritativeTest, SeparateNxdomainLimit) {
  AuthoritativeConfig auth_config;
  auth_config.rrl.enabled = true;
  auth_config.rrl.noerror_qps = 1000;
  auth_config.rrl.nxdomain_qps = 20;  // Tight NX limit only.
  auth_config.rrl.burst = 2;
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr, auth_config);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubConfig config = OneShot(200, 100.0);
  config.timeout = Milliseconds(500);
  StubClient& wc_stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 3));
  wc_stub.AddResolver(auth_addr);
  StubClient& nx_stub =
      bed.AddStub(bed.NextAddress(), config, MakeNxGenerator(TargetApex(), 4));
  nx_stub.AddResolver(auth_addr);
  wc_stub.Start();
  nx_stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_GT(wc_stub.SuccessRatio(), 0.95);  // NOERROR limit not hit.
  EXPECT_LT(nx_stub.SuccessRatio(), 0.5);   // NXDOMAIN responses dropped.
}

// --- RRL decides before the answer is rendered ----------------------------
//
// The authoritative asks RRL on the zone match's response code and renders
// only what RRL admits. Before, it built every answer in full and then asked
// RRL. OldOrderAuthoritative keeps that order as the reference: the whole
// response from Zone::Lookup first, then the per-client token buckets, with
// the server's own configuration. A seeded burst over every match kind must
// send the same datagrams and count the same queries and suppressions.

struct SentDatagram {
  Time at = 0;
  uint16_t src_port = 0;
  Endpoint dst;
  Message message;
  friend bool operator==(const SentDatagram&, const SentDatagram&) = default;
};

// Logs every datagram sent, with its virtual send time.
class SendLogTransport : public Transport {
 public:
  SendLogTransport(EventLoop& loop, HostAddress addr) : loop_(loop), addr_(addr) {}

  void Send(uint16_t src_port, Endpoint dst, WireBytes payload) override {
    sent.push_back({loop_.now(), src_port, dst, *payload.Get<Message>()});
  }
  Time now() const override { return loop_.now(); }
  EventLoop& loop() override { return loop_; }
  HostAddress local_address() const override { return addr_; }

  std::vector<SentDatagram> sent;

 private:
  EventLoop& loop_;
  HostAddress addr_;
};

class OldOrderAuthoritative {
 public:
  OldOrderAuthoritative(const Zone& zone, AuthoritativeConfig config)
      : zone_(zone), config_(config) {}

  // The response sent for `query` from `client` at `now`; nullopt if dropped.
  std::optional<Message> Answer(const Message& query, HostAddress client, Time now) {
    ++queries_received;
    const Question& q = query.Q();
    Message response = MakeResponse(query, Rcode::kNoError);
    if (query.edns.has_value()) {
      response.EnsureEdns();
    }
    if (!q.qname.IsSubdomainOf(zone_.apex())) {
      response.header.rcode = Rcode::kRefused;
      return response;  // No zone: refused before RRL.
    }
    LookupResult result = zone_.Lookup(q.qname, q.qtype);
    switch (result.status) {
      case LookupStatus::kSuccess:
      case LookupStatus::kCname:
        response.header.aa = true;
        response.answers = std::move(result.records);
        break;
      case LookupStatus::kNoData:
      case LookupStatus::kNxDomain:
        response.header.aa = true;
        if (result.status == LookupStatus::kNxDomain) {
          response.header.rcode = Rcode::kNxDomain;
        }
        response.authority.push_back(std::move(*result.soa));
        if (result.nsec.has_value()) {
          response.authority.push_back(std::move(*result.nsec));
        }
        break;
      case LookupStatus::kDelegation:
        response.authority = std::move(result.records);
        response.additional = std::move(result.glue);
        break;
      case LookupStatus::kNotInZone:
        response.header.rcode = Rcode::kRefused;
        break;
    }
    if (PassesRrl(client, response.header.rcode, now)) {
      return response;
    }
    ++rate_limited;
    switch (config_.rrl.action) {
      case RateLimitAction::kDrop:
        return std::nullopt;
      case RateLimitAction::kServFail:
        return MakeResponse(query, Rcode::kServFail);
      case RateLimitAction::kRefused:
        return MakeResponse(query, Rcode::kRefused);
    }
    return std::nullopt;
  }

  uint64_t queries_received = 0;
  uint64_t rate_limited = 0;

 private:
  struct Buckets {
    TokenBucket noerror;
    TokenBucket nxdomain;
    Time blocked_until = 0;
  };

  bool PassesRrl(HostAddress client, Rcode rcode, Time now) {
    const ResponseRateLimitConfig& rrl = config_.rrl;
    auto [it, inserted] = buckets_.try_emplace(
        client, Buckets{TokenBucket(rrl.noerror_qps, rrl.burst, now),
                        TokenBucket(rrl.nxdomain_qps, rrl.burst, now), 0});
    Buckets& state = it->second;
    if (state.blocked_until > now) {
      return false;
    }
    TokenBucket& bucket =
        rrl.per_class && rcode == Rcode::kNxDomain ? state.nxdomain : state.noerror;
    if (bucket.TryConsume(now)) {
      return true;
    }
    if (rrl.penalty > 0) {
      state.blocked_until = now + rrl.penalty;
    }
    return false;
  }

  const Zone& zone_;
  AuthoritativeConfig config_;
  std::map<HostAddress, Buckets> buckets_;
};

// Every match kind: answer, CNAME, wildcard answer / CNAME / NODATA,
// delegation with glue, empty non-terminal, NXDOMAIN with NSEC.
std::shared_ptr<const Zone> MakeBurstZone() {
  const Name apex = *Name::Parse("burst.test");
  SoaData soa;
  soa.mname = *apex.Prepend("ns1");
  soa.minimum = 120;
  std::vector<ResourceRecord> records = {
      MakeNs(apex, 600, *apex.Prepend("ns1")),
      MakeA(*apex.Prepend("ns1"), 600, 0x0a000001),
      MakeA(*apex.Prepend("www"), 600, 0x0a000002),
      MakeCname(*apex.Prepend("alias"), 600, *apex.Prepend("www")),
      MakeTxt(*Name::Parse("deep.sub.burst.test"), 600, {"anchor"}),
      MakeA(*Name::Parse("*.wild.burst.test"), 600, 0x0a0000ff),
      MakeCname(*Name::Parse("*.wc.burst.test"), 600, *apex.Prepend("www")),
      MakeNs(*Name::Parse("child.burst.test"), 600, *Name::Parse("ns.child.burst.test")),
      MakeA(*Name::Parse("ns.child.burst.test"), 600, 0x0a000003),
  };
  return std::make_shared<const Zone>(apex, soa, std::move(records),
                                      ZoneOptions{.default_ttl = 600, .nsec = true});
}

TEST(AuthoritativeRrlOrderTest, RenderAfterRrlSendsWhatTheOldOrderSent) {
  const std::shared_ptr<const Zone> zone = MakeBurstZone();
  const std::vector<std::string> fixed = {
      "www.burst.test",      "alias.burst.test",    "child.burst.test",
      "x.child.burst.test",  "sub.burst.test",      "deep.sub.burst.test",
      "burst.test",          "elsewhere.net",
  };
  for (const RateLimitAction action :
       {RateLimitAction::kDrop, RateLimitAction::kServFail, RateLimitAction::kRefused}) {
    for (const Duration penalty : {Duration{0}, Milliseconds(150)}) {
      SCOPED_TRACE(testing::Message() << "action " << static_cast<int>(action)
                                      << " penalty " << penalty);
      AuthoritativeConfig config;
      config.rrl.enabled = true;
      config.rrl.noerror_qps = 150;
      config.rrl.nxdomain_qps = 60;
      config.rrl.burst = 5;
      config.rrl.action = action;
      config.rrl.penalty = penalty;
      const HostAddress auth_addr = 0x0a000035;
      EventLoop loop;
      SendLogTransport transport(loop, auth_addr);
      AuthoritativeServer auth(transport, config);
      auth.AddZone(zone);
      OldOrderAuthoritative reference(*zone, config);
      std::vector<SentDatagram> expected;

      Rng rng(27);
      Time at = 0;
      for (uint16_t id = 0; id < 2000; ++id) {
        at += static_cast<Time>(rng.NextBelow(2000));  // ~1,000 queries/s.
        const Endpoint client{0x0a000100 + static_cast<HostAddress>(rng.NextBelow(3)),
                              static_cast<uint16_t>(1024 + rng.NextBelow(100))};
        Name qname;
        switch (rng.NextBelow(4)) {
          case 0:
            qname = *Name::Parse(rng.NextLabel(6) + ".wild.burst.test");
            break;
          case 1:
            qname = *Name::Parse(rng.NextLabel(6) + ".wc.burst.test");
            break;
          case 2:
            qname = *Name::Parse(rng.NextLabel(6) + ".burst.test");  // NXDOMAIN.
            break;
          default:
            qname = *Name::Parse(fixed[rng.NextBelow(fixed.size())]);
            break;
        }
        const RecordType qtype = rng.NextBelow(4) == 0 ? RecordType::kTxt : RecordType::kA;
        Message query = MakeQuery(id, qname, qtype, /*rd=*/false);
        if (rng.NextBelow(2) == 0) {
          query.EnsureEdns();
        }
        loop.ScheduleAt(at, "test.query", [&, client, query = std::move(query)]() {
          if (std::optional<Message> answer = reference.Answer(query, client.addr, loop.now())) {
            expected.push_back({loop.now() + config.processing_delay, kDnsPort, client,
                                std::move(*answer)});
          }
          auth.HandleDatagram(
              Datagram{client, Endpoint{auth_addr, kDnsPort}, WireBytes(Message(query))});
        });
      }
      loop.Run(at + Seconds(1));

      EXPECT_GT(reference.rate_limited, 100u);  // The burst trips RRL...
      EXPECT_GT(expected.size(), 500u);         // ...and still gets answers out.
      EXPECT_EQ(auth.queries_received(), reference.queries_received);
      EXPECT_EQ(auth.rate_limited(), reference.rate_limited);
      EXPECT_EQ(auth.responses_sent(), expected.size());
      ASSERT_EQ(transport.sent.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(transport.sent[i] == expected[i]) << "datagram " << i;
      }
    }
  }
}

TEST(ResolverTest, ResolvesViaHintAndCaches) {
  Deployment d;
  // Two identical queries for one name: second must be a cache hit.
  const Name qname = *Name::Parse("fixed.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(2, 100.0), [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 2u);
  EXPECT_EQ(d.resolver->cache_hit_responses(), 1u);
  // Wildcard answer resolved through the authoritative.
  EXPECT_GE(d.resolver->queries_sent(), 1u);
}

TEST(ResolverTest, NegativeCachingForNxDomain) {
  Deployment d;
  const Name qname = *Name::Parse("ghost.nx.target-domain");
  StubClient& stub = d.AddClient(OneShot(3, 100.0), [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  // NXDOMAIN counts as a successful (answered) response.
  EXPECT_EQ(stub.succeeded(), 3u);
  EXPECT_GE(d.resolver->cache_hit_responses(), 2u);
}

TEST(ResolverTest, FollowsCnameChains) {
  TargetZoneOptions zone_options;
  zone_options.cq_instances = 1;
  zone_options.cq_chain_length = 4;
  zone_options.cq_labels = 2;
  Deployment d(zone_options);
  const Name head = CqChainHead(TargetApex(), 1, 1, 2);
  StubClient& stub = d.AddClient(OneShot(1), [head](uint64_t) {
    return Question{head, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  // The resolver followed 3 CNAMEs to the terminal A record.
  EXPECT_GE(d.resolver->queries_sent(), 4u);
}

TEST(ResolverTest, QminWalksLabels) {
  ResolverConfig with_qmin;
  with_qmin.qname_minimization = true;
  Deployment d(TargetZoneOptions{}, with_qmin);
  const Name deep = *Name::Parse("a.b.c.d.e.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  // QMIN probes each label below the apex: wc, e, d, c, b, a => >= 6 queries.
  EXPECT_GE(d.auth->queries_received(), 6u);
}

TEST(ResolverTest, QminFastForwardsThroughCachedLevels) {
  // After one resolution under "wc.<apex>", further lookups of different
  // names under the same subtree must not re-walk the intermediate labels:
  // each costs a single upstream query.
  Deployment d;
  StubClient& stub = d.AddClient(OneShot(20, 50.0), MakeWcGenerator(TargetApex(), 20));
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 20u);
  // First request pays the NS probe for "wc.<apex>"; the remaining 19 pay
  // one A query each.
  EXPECT_LE(d.auth->queries_received(), 22u);
  EXPECT_GE(d.auth->queries_received(), 20u);
}

TEST(ResolverTest, NxDomainAtIntermediateLabelShortCircuits) {
  // QMIN probes an intermediate label that does not exist: the resolver
  // must conclude NXDOMAIN for the full name without further queries.
  Deployment d;
  const Name deep = *Name::Parse("a.b.ghost.nx.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);  // NXDOMAIN counts as answered.
  // QMIN: nx (NODATA), ghost.nx (NXDOMAIN) -> stop. At most 3 queries.
  EXPECT_LE(d.auth->queries_received(), 3u);
}

TEST(ResolverTest, SeedCachePrimesAnswers) {
  Deployment d;
  const Name hot = *Name::Parse("pre.wc.target-domain");
  d.resolver->SeedCache(hot, RecordType::kA, {MakeA(hot, 600, 0x01020304)});
  StubClient& stub = d.AddClient(OneShot(1), [hot](uint64_t) {
    return Question{hot, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(2));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(d.resolver->queries_sent(), 0u);  // Served entirely from cache.
}

TEST(ResolverTest, NoQminIsSingleQuery) {
  ResolverConfig no_qmin;
  no_qmin.qname_minimization = false;
  Deployment d(TargetZoneOptions{}, no_qmin);
  const Name deep = *Name::Parse("a.b.c.d.e.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(d.auth->queries_received(), 1u);
}

TEST(ResolverTest, FollowsDelegationWithGlue) {
  Deployment d;
  // Add a delegated child zone served by a second authoritative.
  const HostAddress child_ans = d.bed.NextAddress();
  AuthoritativeServer& child_auth = d.bed.AddAuthoritative(child_ans);
  const Name child_apex = *Name::Parse("child.target-domain");
  SoaData soa;
  soa.mname = *child_apex.Prepend("ns");
  soa.minimum = 300;
  child_auth.AddZone(
      Zone(child_apex, soa, {MakeA(*child_apex.Prepend("www"), 600, 0x0a0000aa)}));
  // Parent zone: delegation with glue. Rebuild target zone with extra RRs.
  // (The deployment's auth already has the target zone; add a second zone
  // overrides - instead add delegation records into a fresh target zone.)
  Zone parent = TargetZoneWith(d.auth_addr,
                               {MakeNs(child_apex, 600, *child_apex.Prepend("ns")),
                                MakeA(*child_apex.Prepend("ns"), 600, child_ans)});
  d.auth->AddZone(std::move(parent));  // Deeper apex wins for lookups? Same apex:
  // FindZone picks by longest apex; two zones with equal apex — the first
  // registered (without delegation) would tie. Use the child-aware zone by
  // querying a name only resolvable through delegation and accepting either.
  StubClient& stub = d.AddClient(OneShot(1), [child_apex](uint64_t) {
    return Question{*child_apex.Prepend("www"), RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_GE(child_auth.queries_received() + stub.succeeded(), 1u);
}

TEST(ResolverTest, FfPatternAmplifies) {
  // The FF zone: resolving one attacker name floods the target's server.
  Deployment d;
  const HostAddress attacker_ans = d.bed.NextAddress();
  AuthoritativeServer& atk_auth = d.bed.AddAuthoritative(attacker_ans);
  const Name attacker_apex = *Name::Parse("attacker-com");
  AttackerZoneOptions attack_options;
  attack_options.instances = 3;
  attack_options.fanout_a = 5;
  attack_options.fanout_t = 5;
  atk_auth.AddZone(MakeAttackerZone(attacker_apex, TargetApex(), attack_options));
  d.resolver->AddAuthorityHint(attacker_apex, attacker_ans);

  StubConfig config = OneShot(1);
  config.timeout = Seconds(8);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeFfGenerator(attacker_apex, 3));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(10));
  // One request must have elicited on the order of fanout_a x fanout_t
  // queries to the target server (message amplification, §2.3.2).
  EXPECT_GE(d.auth->queries_received(), 15u);
  EXPECT_GE(d.resolver->queries_sent(), 25u);
}

// An FF deployment whose two authoritatives serve the zones they are
// given: the target zone must name its server at the testbed's first address.
constexpr HostAddress kFirstAddress = 0x0a000001;

struct FfDeployment {
  struct Outcome {
    uint64_t target_queries = 0;
    uint64_t target_rate_limited = 0;
    uint64_t attacker_queries = 0;
    uint64_t resolver_queries = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    size_t events = 0;
    friend bool operator==(const Outcome&, const Outcome&) = default;
  };

  FfDeployment(std::shared_ptr<const Zone> target, std::shared_ptr<const Zone> attacker) {
    const HostAddress target_ans = bed.NextAddress();
    EXPECT_EQ(target_ans, kFirstAddress);
    const HostAddress attacker_ans = bed.NextAddress();
    const HostAddress resolver_addr = bed.NextAddress();
    AuthoritativeConfig rrl;  // Per-client RRL state lives in the server.
    rrl.rrl.enabled = true;
    rrl.rrl.noerror_qps = 200;
    target_auth = &bed.AddAuthoritative(target_ans, rrl);
    target_auth->AddZone(std::move(target));
    attacker_auth = &bed.AddAuthoritative(attacker_ans);
    attacker_auth->AddZone(attacker);
    resolver = &bed.AddResolver(resolver_addr);
    resolver->AddAuthorityHint(TargetApex(), target_ans);
    resolver->AddAuthorityHint(attacker->apex(), attacker_ans);
    StubConfig config;
    config.qps = 20;
    config.stop = Seconds(4);
    config.timeout = Seconds(2);
    stub = &bed.AddStub(bed.NextAddress(), config, MakeFfGenerator(attacker->apex(), 30));
    stub->AddResolver(resolver_addr);
    stub->Start();
  }

  Outcome Observed() const {
    return {target_auth->queries_received(), target_auth->rate_limited(),
            attacker_auth->queries_received(), resolver->queries_sent(),
            stub->succeeded(), stub->failed(), events};
  }

  Testbed bed;
  AuthoritativeServer* target_auth = nullptr;
  AuthoritativeServer* attacker_auth = nullptr;
  RecursiveResolver* resolver = nullptr;
  StubClient* stub = nullptr;
  size_t events = 0;
};

TEST(ZoneSharingTest, TestbedsSharingZonesMatchSeparateBuilds) {
  const auto build_target = [] {
    return std::make_shared<const Zone>(MakeTargetZone(TargetApex(), kFirstAddress));
  };
  const auto build_attacker = [] {
    AttackerZoneOptions options;
    options.instances = 30;
    options.fanout_a = 4;
    options.fanout_t = 4;
    return std::make_shared<const Zone>(
        MakeAttackerZone(*Name::Parse("attacker-com"), TargetApex(), options));
  };
  const auto run_chunk = [](FfDeployment& d) { d.events += d.bed.RunFor(Seconds(1)); };

  // Two runs, each on zones of its own.
  FfDeployment separate_a(build_target(), build_attacker());
  FfDeployment separate_b(build_target(), build_attacker());
  // Two runs alive at once, interleaved, sharing one build of each zone.
  const auto target = build_target();
  const auto attacker = build_attacker();
  FfDeployment shared_a(target, attacker);
  FfDeployment shared_b(target, attacker);
  for (int second = 0; second < 8; ++second) {
    run_chunk(separate_a);
    run_chunk(separate_b);
    run_chunk(shared_a);
    run_chunk(shared_b);
  }
  const FfDeployment::Outcome expected = separate_a.Observed();
  EXPECT_GT(expected.target_queries, 100u);
  EXPECT_GT(expected.succeeded + expected.failed, 50u);
  EXPECT_EQ(separate_b.Observed(), expected);
  EXPECT_EQ(shared_a.Observed(), expected);
  EXPECT_EQ(shared_b.Observed(), expected);
}

TEST(ResolverTest, FetchBudgetCapsAmplification) {
  ResolverConfig tight;
  tight.max_fetches_per_request = 10;
  Deployment d(TargetZoneOptions{}, tight);
  const HostAddress attacker_ans = d.bed.NextAddress();
  AuthoritativeServer& atk_auth = d.bed.AddAuthoritative(attacker_ans);
  const Name attacker_apex = *Name::Parse("attacker-com");
  atk_auth.AddZone(MakeAttackerZone(attacker_apex, TargetApex(), {}));
  d.resolver->AddAuthorityHint(attacker_apex, attacker_ans);
  StubClient& stub = d.AddClient(OneShot(1), MakeFfGenerator(attacker_apex, 1));
  stub.Start();
  d.bed.RunFor(Seconds(10));
  EXPECT_LE(d.resolver->queries_sent(), 12u);
}

TEST(ResolverTest, ServfailWhenAuthoritativeDown) {
  ResolverConfig quick;
  quick.upstream_timeout = Milliseconds(200);
  quick.upstream_retries = 1;
  quick.request_deadline = Seconds(2);
  Deployment d(TargetZoneOptions{}, quick);
  d.bed.network().SetHostDown(d.auth_addr, true);
  StubConfig config = OneShot(1);
  config.timeout = Seconds(4);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 5));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(6));
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_EQ(stub.failed(), 1u);
  // The resolver answered (SERVFAIL) rather than leaving the client hanging.
  EXPECT_EQ(d.resolver->responses_sent(), 1u);
  // All per-request state was reclaimed.
  EXPECT_EQ(d.resolver->ActiveRequestCount(), 0u);
}

TEST(ResolverTest, RecoversAfterPacketLoss) {
  ResolverConfig retry_config;
  retry_config.upstream_timeout = Milliseconds(300);
  retry_config.upstream_retries = 3;
  Deployment d(TargetZoneOptions{}, retry_config);
  d.bed.network().SetLossProbability(0.3, /*seed=*/11);
  StubConfig config = OneShot(40, 20.0);
  config.timeout = Milliseconds(1800);
  config.retries = 3;  // Loss also hits the client<->resolver legs.
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 6));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(15));
  // Resolver and stub retransmissions recover most requests despite 30%
  // loss on every link.
  EXPECT_GT(stub.SuccessRatio(), 0.75);
}

TEST(ResolverTest, IngressRrlCapsClientThroughput) {
  ResolverConfig limited;
  limited.ingress_rrl.enabled = true;
  limited.ingress_rrl.noerror_qps = 50;
  limited.ingress_rrl.nxdomain_qps = 50;
  limited.ingress_rrl.burst = 5;
  limited.ingress_rrl.action = RateLimitAction::kDrop;
  Deployment d(TargetZoneOptions{}, limited);
  StubConfig config = OneShot(600, 200.0);  // 200 QPS for 3 s.
  config.timeout = Milliseconds(500);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 7));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(6));
  EXPECT_NEAR(stub.SuccessRatio(), 0.25, 0.12);
  EXPECT_GT(d.resolver->ingress_rate_limited(), 300u);
}

TEST(ResolverTest, EgressRlLimitsUpstreamQueries) {
  ResolverConfig limited;
  limited.egress_rl_enabled = true;
  limited.egress_qps = 30;
  limited.egress_burst = 3;
  limited.upstream_timeout = Milliseconds(300);
  limited.upstream_retries = 0;
  Deployment d(TargetZoneOptions{}, limited);
  telemetry::TimeSeriesSampler sampler;
  sampler.AddCounterProbe("ans_qps", {}, [&d]() {
    return static_cast<double>(d.auth->queries_received());
  });
  StartSampling(d.bed, sampler, Seconds(10));
  StubConfig config = OneShot(300, 100.0);  // All cache misses (random WC).
  config.timeout = Seconds(2);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 8));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(8));
  // The 30-QPS egress limit caps every per-second rate at the ANS (modulo
  // the 3-token burst).
  for (double v : sampler.Values("ans_qps")) {
    EXPECT_LE(v, 45.0);
  }
  EXPECT_GT(d.resolver->egress_rate_limited(), 50u);
}

TEST(ResolverTest, CnameLoopTerminates) {
  Deployment d;
  // Inject a CNAME loop into the target zone via a second zone object.
  const Name a = *Name::Parse("loop-a.target-domain");
  const Name b = *Name::Parse("loop-b.target-domain");
  Zone looped = TargetZoneWith(d.auth_addr, {MakeCname(a, 600, b), MakeCname(b, 600, a)});
  d.auth->AddZone(std::move(looped));
  ResolverConfig config;  // (Defaults; loop bound = max_cname_chain.)
  (void)config;
  StubClient& stub = d.AddClient(OneShot(1), [a](uint64_t) {
    return Question{a, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(8));
  // The request concludes (SERVFAIL) instead of looping forever, and the
  // resolver spent a bounded number of queries on it.
  EXPECT_EQ(stub.failed() + stub.succeeded(), 1u);
  EXPECT_LE(d.resolver->queries_sent(), 40u);
  EXPECT_EQ(d.resolver->ActiveRequestCount(), 0u);
}

TEST(ForwarderTest, ForwardsAndCaches) {
  Deployment d;
  const HostAddress fwd_addr = d.bed.NextAddress();
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr);
  forwarder.AddUpstream(d.resolver_addr);
  const Name qname = *Name::Parse("fwd.wc.target-domain");
  StubConfig config = OneShot(3, 50.0);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 3u);
  EXPECT_EQ(forwarder.requests_received(), 3u);
  EXPECT_EQ(forwarder.cache_hit_responses(), 2u);
  EXPECT_EQ(forwarder.queries_sent(), 1u);
  EXPECT_EQ(forwarder.PendingCount(), 0u);
}

TEST(ForwarderTest, FailsOverToSecondUpstream) {
  Deployment d;
  const HostAddress dead_resolver = d.bed.NextAddress();
  const HostAddress fwd_addr = d.bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(300);
  fwd_config.upstream_attempts = 2;
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(dead_resolver);  // Nothing listens here.
  forwarder.AddUpstream(d.resolver_addr);
  StubConfig config = OneShot(1);
  config.timeout = Seconds(3);
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 9));
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
}

TEST(ForwarderTest, ServfailWhenAllUpstreamsDead) {
  Testbed bed;
  const HostAddress fwd_addr = bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(200);
  fwd_config.upstream_attempts = 2;
  Forwarder& forwarder = bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(bed.NextAddress());
  StubConfig config = OneShot(1);
  config.timeout = Seconds(3);
  StubClient& stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 10));
  stub.AddResolver(fwd_addr);
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.failed(), 1u);
  EXPECT_EQ(forwarder.PendingCount(), 0u);
}

TEST(ForwarderTest, HoldDownSkipsDeadUpstreamOnLaterRequests) {
  // Upstreams alternate round-robin per request. Once the dead one has
  // accumulated enough timeouts to enter hold-down, later requests that
  // would start there go straight to the live upstream instead of burning
  // another timeout.
  Deployment d;
  const HostAddress dead_resolver = d.bed.NextAddress();
  const HostAddress fwd_addr = d.bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(200);
  fwd_config.upstream_attempts = 2;
  fwd_config.upstream.holddown_after = 2;
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(dead_resolver);  // Nothing listens here.
  forwarder.AddUpstream(d.resolver_addr);
  StubConfig config = OneShot(6, 1.0);  // One request per second.
  config.timeout = Seconds(3);
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 21));
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(10));

  EXPECT_EQ(stub.succeeded(), 6u);
  // Requests 0 and 2 start at the dead upstream and time out (entering
  // hold-down on the second timeout); request 4, arriving inside the
  // hold-down window, skips it without a timeout.
  EXPECT_EQ(forwarder.upstream_tracker().timeouts_observed(), 2u);
  EXPECT_EQ(forwarder.upstream_tracker().holddowns_entered(), 1u);
  // 6 requests + 2 retransmissions; a third timeout would have made 9.
  EXPECT_EQ(forwarder.queries_sent(), 8u);
}

TEST(StubTest, RetriesSwitchResolver) {
  Deployment d;
  const HostAddress dead = d.bed.NextAddress();
  StubConfig config = OneShot(1);
  config.timeout = Milliseconds(400);
  config.retries = 1;
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 11));
  stub.AddResolver(dead);              // First attempt times out.
  stub.AddResolver(d.resolver_addr);   // Retry lands here.
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
}

TEST(StubTest, TracksPerSecondSeries) {
  Deployment d;
  StubConfig config;
  config.start = Seconds(1);
  config.stop = Seconds(3);
  config.qps = 50;
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 12));
  stub.AddResolver(d.resolver_addr);
  telemetry::TimeSeriesSampler sampler;
  sampler.AddCounterProbe("client_success_qps", {}, [&stub]() {
    return static_cast<double>(stub.succeeded());
  });
  StartSampling(d.bed, sampler, Seconds(6));
  stub.Start();
  d.bed.RunFor(Seconds(6));
  const std::vector<double> rates = sampler.Values("client_success_qps");
  ASSERT_GE(rates.size(), 6u);
  EXPECT_NEAR(rates[1], 50, 10);  // Tick 1 covers virtual second (1 s, 2 s].
  EXPECT_NEAR(rates[2], 50, 10);
  EXPECT_DOUBLE_EQ(rates[5], 0);
  EXPECT_GT(stub.latency().count(), 0);
  // Latency ~ network RTT + processing (>= 1 ms in simulator microseconds).
  EXPECT_GT(stub.latency().mean(), 500.0);
}

// A transport that answers nothing and logs every query the stub sends:
// its virtual send time and DNS id (the stub numbers requests in launch
// order).
class RecordingTransport : public Transport {
 public:
  explicit RecordingTransport(EventLoop& loop) : loop_(loop) {}

  void Send(uint16_t, Endpoint, WireBytes payload) override {
    const std::optional<Message> query = DecodeMessage(payload);
    ASSERT_TRUE(query.has_value());
    log.push_back("send " + std::to_string(loop_.now()) + " id " +
                  std::to_string(query->header.id));
  }
  Time now() const override { return loop_.now(); }
  EventLoop& loop() override { return loop_; }
  HostAddress local_address() const override { return 0x0a000009; }

  std::vector<std::string> log;

 private:
  EventLoop& loop_;
};

// Trace replay with unsorted and duplicate times, some already past when
// replay starts, against other events at the same timestamps scheduled
// before and after it. With `one_by_one`, every time is replayed as its own
// one-launch schedule, which is exactly how launches were scheduled before
// a replay became one series.
std::vector<std::string> ReplayLog(bool one_by_one) {
  EventLoop loop;
  RecordingTransport transport(loop);
  StubConfig config;
  config.timeout = Seconds(30);  // No timeout fires inside the log.
  StubClient stub(transport, config,
                  [](uint64_t) { return Question{TargetApex(), RecordType::kA}; });
  stub.AddResolver(0x0a000001);
  loop.Run(Seconds(1));
  auto probe = [&](const char* name, Time at) {
    loop.ScheduleAt(at, "test.probe", [&transport, &loop, name]() {
      transport.log.push_back(name);
    });
  };
  probe("before@1s", Seconds(1));
  probe("before@2s", Seconds(2));
  const std::vector<Time> times = {Seconds(3), Milliseconds(500), Seconds(2),
                                   Seconds(1), Seconds(2), Milliseconds(200)};
  if (one_by_one) {
    for (Time t : times) {
      stub.StartWithSchedule({t});
    }
  } else {
    stub.StartWithSchedule(times);
  }
  probe("after@1s", Seconds(1));
  probe("after@2s", Seconds(2));
  loop.Run(Seconds(10));
  return transport.log;
}

TEST(StubTest, ReplayOfUnsortedTimesKeepsTheOneByOneOrder) {
  const std::vector<std::string> series = ReplayLog(/*one_by_one=*/false);
  EXPECT_EQ(series, ReplayLog(/*one_by_one=*/true));
  // Past times clamp to the replay's start (1 s); launches at one time run
  // after the events scheduled before the replay and before those after it.
  const std::vector<std::string> expected = {
      "before@1s",          "send 1000000 id 0", "send 1000000 id 1",
      "send 1000000 id 2",  "after@1s",          "before@2s",
      "send 2000000 id 3",  "send 2000000 id 4", "after@2s",
      "send 3000000 id 5"};
  EXPECT_EQ(series, expected);
}

TEST(StubTest, PacedStartKeepsOneLaunchPending) {
  EventLoop loop;
  RecordingTransport transport(loop);
  StubConfig config;
  config.start = Milliseconds(100);
  config.stop = Seconds(2);
  config.qps = 1000;
  config.timeout = Milliseconds(10);  // Failures; nothing is resent.
  StubClient stub(transport, config,
                  [](uint64_t) { return Question{TargetApex(), RecordType::kA}; });
  stub.AddResolver(0x0a000001);
  stub.Start();
  EXPECT_EQ(loop.pending(), 1u) << "1900 launches, one pending";
  loop.Run(Seconds(2));
  ASSERT_EQ(transport.log.size(), 1900u);
  EXPECT_EQ(transport.log.front(), "send 100000 id 0");
  EXPECT_EQ(transport.log[1], "send 101000 id 1");
  EXPECT_EQ(transport.log.back(), "send 1999000 id 1899");
  // Pending: the next launch plus the timeouts of the requests sent in the
  // last 10 ms, not the 1900 launches of the whole run.
  EXPECT_LE(loop.max_pending(), 12u);
  EXPECT_EQ(stub.failed(), 1891u);  // Sent by 1.990 s: timed out by 2 s.
}

// --- timers after a teardown -----------------------------------------------
//
// A timeout captures only its entry's key (a local port), so a timer left
// behind by a finished or crash-dropped entry would act on whatever entry
// holds that port next. Every path that drops an entry cancels its timer;
// these tests drop an entry, cycle the port allocator until the same port
// is handed out again, and run past the old timer's time.

// Records every send with its local port; sends nothing anywhere.
class PortLogTransport : public Transport {
 public:
  PortLogTransport(EventLoop& loop, HostAddress address)
      : loop_(loop), address_(address) {}

  struct Sent {
    uint16_t port;
    Endpoint dst;
    WireBytes payload;
  };

  void Send(uint16_t src_port, Endpoint dst, WireBytes payload) override {
    sent.push_back(Sent{src_port, dst, std::move(payload)});
  }
  Time now() const override { return loop_.now(); }
  EventLoop& loop() override { return loop_; }
  HostAddress local_address() const override { return address_; }

  size_t SentFrom(uint16_t port) const {
    size_t n = 0;
    for (const Sent& s : sent) {
      n += s.port == port ? 1 : 0;
    }
    return n;
  }

  std::vector<Sent> sent;

 private:
  EventLoop& loop_;
  HostAddress address_;
};

TEST(TimerTeardownTest, ResolverCrashCancelsTimersBeforeItsPortsAreReused) {
  constexpr HostAddress kResolver = 0x0a000002;
  constexpr HostAddress kAuth = 0x0a000001;
  constexpr HostAddress kClient = 0x0a000003;
  EventLoop loop;
  PortLogTransport transport(loop, kResolver);
  ResolverConfig config;
  config.qname_minimization = false;  // One upstream query per request.
  config.adaptive_retry = false;      // Fixed 1 s upstream timeout.
  config.upstream_timeout = Seconds(1);
  config.upstream_retries = 1;
  config.request_deadline = Seconds(60);
  RecursiveResolver resolver(transport, config);
  resolver.AddAuthorityHint(TargetApex(), kAuth);
  uint16_t next_client_port = 0;
  auto ask = [&](uint64_t i) {
    const Name qname = *Name::Parse("q" + std::to_string(i) + ".target-domain");
    resolver.HandleDatagram(
        Datagram{{kClient, static_cast<uint16_t>(2000 + next_client_port++ % 50000)},
                 {kResolver, kDnsPort},
                 WireBytes(MakeQuery(static_cast<uint16_t>(i), qname, RecordType::kA))});
  };

  ask(0);
  ASSERT_EQ(transport.sent.size(), 1u);
  const uint16_t port = transport.sent[0].port;
  EXPECT_EQ(loop.pending(), 2u) << "the upstream timeout and the deadline";
  loop.Run(Milliseconds(100));
  resolver.CrashReset();
  EXPECT_EQ(loop.pending(), 0u) << "a crash must cancel the dropped state's timers";

  // The restarted resolver hands out every other port once, then `port`
  // again; none is answered, so all stay outstanding.
  loop.Run(Milliseconds(200));
  uint64_t asked = 1;
  do {
    ask(asked++);
    ASSERT_LT(asked, 70000u) << "the port allocator never came back to " << port;
  } while (transport.sent.back().port != port);
  EXPECT_EQ(resolver.OutstandingQueryCount(), asked - 1);
  EXPECT_EQ(transport.SentFrom(port), 2u);

  // Every port is now in use: the next request's sub-query has no port to
  // go out on, so it fails like an unanswerable one and the client gets
  // SERVFAIL at once. No query in flight is overwritten.
  const size_t sent_before = transport.sent.size();
  ask(asked++);
  loop.Run(Milliseconds(201));  // Past the resolver's processing delay.
  ASSERT_EQ(transport.sent.size(), sent_before + 1);
  EXPECT_EQ(transport.sent.back().dst.addr, kClient);
  EXPECT_EQ(DecodeMessage(transport.sent.back().payload)->header.rcode, Rcode::kServFail);
  EXPECT_EQ(resolver.OutstandingQueryCount(), asked - 2);
  EXPECT_EQ(loop.pending(), 2 * (asked - 2)) << "each query's timeout and deadline";

  // The pre-crash timeout was due at 1 s. Had it survived, it would have
  // timed out the new query on `port` there and retransmitted it.
  loop.Run(Milliseconds(1100));
  EXPECT_EQ(transport.SentFrom(port), 2u);
  EXPECT_EQ(resolver.upstream_tracker().timeouts_observed(), 0u);
  EXPECT_EQ(resolver.queries_sent(), asked - 1);
  // At 1.2 s the query on `port` times out and is retransmitted once.
  loop.Run(Milliseconds(1300));
  EXPECT_EQ(transport.SentFrom(port), 3u);
}

TEST(TimerTeardownTest, StubAnswerCancelsItsTimeoutBeforeThePortIsReused) {
  constexpr HostAddress kResolver = 0x0a000001;
  EventLoop loop;
  PortLogTransport transport(loop, 0x0a000009);
  StubConfig config;
  config.timeout = Seconds(1);
  StubClient stub(transport, config,
                  [](uint64_t) { return Question{TargetApex(), RecordType::kA}; });
  stub.AddResolver(kResolver);
  // Request 0 at 0; then one launch per microsecond from 1 ms, enough to
  // hand out every stub port once and then request 0's port again.
  constexpr uint64_t kLaunches = 65536 - 10000 + 1;
  std::vector<Time> times(kLaunches);
  for (uint64_t i = 1; i < kLaunches; ++i) {
    times[i] = Milliseconds(1) + static_cast<Duration>(i);
  }
  stub.StartWithSchedule(times);

  loop.Run(0);
  ASSERT_EQ(transport.sent.size(), 1u);
  const uint16_t port = transport.sent[0].port;
  EXPECT_EQ(loop.pending(), 2u) << "the next launch and request 0's timeout";
  const Message query = *DecodeMessage(transport.sent[0].payload);
  stub.HandleDatagram(Datagram{{kResolver, kDnsPort},
                               {transport.local_address(), port},
                               EncodeMessage(MakeResponse(query, Rcode::kNoError))});
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(loop.pending(), 1u) << "the answer must cancel its timeout";

  loop.Run(Milliseconds(500));
  ASSERT_EQ(transport.sent.size(), kLaunches);
  EXPECT_EQ(transport.sent.back().port, port) << "the last launch reuses the port";
  // Request 0's timeout was due at 1 s. Had it survived, it would have
  // failed the last request there.
  loop.Run(Seconds(1));
  EXPECT_EQ(stub.failed(), 0u);
  loop.Run(Seconds(3));
  EXPECT_EQ(stub.failed(), kLaunches - 1);
  EXPECT_EQ(stub.succeeded(), 1u);
}

// --- port exhaustion -------------------------------------------------------
//
// A node that has every local port waiting on an answer cannot send a new
// query. Each component fails the new query visibly instead of reusing a
// busy port, which would silently drop the query already waiting there.

TEST(PortExhaustionTest, StubCountsTheQueryItCannotSendAsFailed) {
  EventLoop loop;
  PortLogTransport transport(loop, 0x0a000009);
  StubConfig config;
  config.timeout = Seconds(1);
  StubClient stub(transport, config,
                  [](uint64_t) { return Question{TargetApex(), RecordType::kA}; });
  stub.AddResolver(0x0a000001);
  // One launch per microsecond; the stub's 55,536 ports (10000 and up)
  // run out two launches before the end.
  constexpr uint64_t kPorts = 65536 - 10000;
  constexpr uint64_t kLaunches = kPorts + 2;
  std::vector<Time> times(kLaunches);
  for (uint64_t i = 0; i < kLaunches; ++i) {
    times[i] = static_cast<Duration>(i);
  }
  stub.StartWithSchedule(times);
  loop.Run(Milliseconds(500));
  EXPECT_EQ(transport.sent.size(), kPorts);
  EXPECT_EQ(stub.failed(), 2u) << "the two launches that found no free port";
  loop.Run(Seconds(3));
  EXPECT_EQ(stub.failed(), kLaunches) << "every query ends exactly once";
  EXPECT_EQ(stub.succeeded(), 0u);
}

// Sends `count` distinct client queries to `node` and returns the response
// (if any) that the last one got straight away.
template <class Node>
std::optional<Message> FloodWithQueries(Node& node, PortLogTransport& transport,
                                        HostAddress client, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    const Name qname = *Name::Parse("q" + std::to_string(i) + ".target-domain");
    const size_t before = transport.sent.size();
    node.HandleDatagram(Datagram{{client, static_cast<uint16_t>(1024 + i % 60000)},
                                 {transport.local_address(), kDnsPort},
                                 EncodeMessage(MakeQuery(static_cast<uint16_t>(i), qname,
                                                         RecordType::kA))});
    if (i + 1 == count && transport.sent.size() > before &&
        transport.sent.back().dst.addr == client) {
      return DecodeMessage(transport.sent.back().payload);
    }
  }
  return std::nullopt;
}

TEST(PortExhaustionTest, ResolverFailsTheSubQueryItCannotSend) {
  constexpr HostAddress kClient = 0x0a000003;
  EventLoop loop;
  PortLogTransport transport(loop, 0x0a000002);
  ResolverConfig config;
  config.qname_minimization = false;  // One upstream query per request.
  config.processing_delay = 0;
  RecursiveResolver resolver(transport, config);
  resolver.AddAuthorityHint(TargetApex(), 0x0a000001);
  constexpr uint64_t kPorts = 65536 - 1024;  // 1024 and up.
  const std::optional<Message> reply =
      FloodWithQueries(resolver, transport, kClient, kPorts + 1);
  ASSERT_TRUE(reply.has_value()) << "the query beyond the port space got no answer";
  EXPECT_EQ(reply->header.rcode, Rcode::kServFail);
  EXPECT_EQ(reply->header.id, static_cast<uint16_t>(kPorts));
  EXPECT_EQ(resolver.OutstandingQueryCount(), kPorts) << "no query in flight was dropped";
  EXPECT_EQ(resolver.queries_sent(), kPorts);
}

TEST(PortExhaustionTest, ForwarderAnswersServfailWhenNoPortIsFree) {
  constexpr HostAddress kClient = 0x0a000003;
  EventLoop loop;
  PortLogTransport transport(loop, 0x0a000002);
  ForwarderConfig config;
  config.cache_enabled = false;
  config.processing_delay = 0;
  Forwarder forwarder(transport, config);
  forwarder.AddUpstream(0x0a000001);
  constexpr uint64_t kPorts = 65536 - 2048;  // 2048 and up.
  const std::optional<Message> reply =
      FloodWithQueries(forwarder, transport, kClient, kPorts + 1);
  ASSERT_TRUE(reply.has_value()) << "the query beyond the port space got no answer";
  EXPECT_EQ(reply->header.rcode, Rcode::kServFail);
  EXPECT_EQ(reply->header.id, static_cast<uint16_t>(kPorts));
  EXPECT_EQ(forwarder.PendingCount(), kPorts) << "no query in flight was dropped";
}

TEST(PortExhaustionTest, FrontendAnswersServfailWhenNoPortIsFree) {
  constexpr HostAddress kClient = 0x0a000003;
  EventLoop loop;
  PortLogTransport transport(loop, 0x0a000002);
  FrontendConfig config;
  config.processing_delay = 0;
  FleetFrontend frontend(transport, config);
  frontend.AddMember(0x0a000001);
  constexpr uint64_t kPorts = 65536 - 2048;  // 2048 and up.
  const std::optional<Message> reply =
      FloodWithQueries(frontend, transport, kClient, kPorts + 1);
  ASSERT_TRUE(reply.has_value()) << "the query beyond the port space got no answer";
  EXPECT_EQ(reply->header.rcode, Rcode::kServFail);
  EXPECT_EQ(reply->header.id, static_cast<uint16_t>(kPorts));
  EXPECT_EQ(frontend.PendingCount(), kPorts) << "no query in flight was dropped";
  EXPECT_EQ(frontend.servfails_sent(), 1u);
}

}  // namespace
}  // namespace dcc
