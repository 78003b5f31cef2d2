// Tests for NSEC denial-of-existence generation (zone side) and RFC 8198
// aggressive NSEC caching (resolver side) — the paper's suggested mitigation
// against the NX / pseudo-random-subdomain pattern (§2.3).

#include <gtest/gtest.h>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/dns/codec.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

TEST(ZoneNsecTest, NxDomainCarriesCoveringInterval) {
  const Zone zone = MakeTargetZone(TargetApex(), 0x0a000001, {.nsec = true});
  const Name missing = *Name::Parse("ghost.nx.target-domain");
  const auto result = zone.Lookup(missing, RecordType::kA);
  ASSERT_EQ(result.status, LookupStatus::kNxDomain);
  ASSERT_TRUE(result.nsec.has_value());
  const ResourceRecord& nsec = *result.nsec;
  EXPECT_EQ(nsec.type, RecordType::kNsec);
  // The denied name lies inside (owner, next) in canonical order.
  EXPECT_TRUE(nsec.name < missing);
  // `next` either follows the name or wraps to the apex.
  EXPECT_TRUE(missing < nsec.target() || nsec.target() == TargetApex());
}

TEST(ZoneNsecTest, DisabledByDefault) {
  const Zone zone = MakeTargetZone(TargetApex(), 0x0a000001);
  const auto result =
      zone.Lookup(*Name::Parse("ghost.nx.target-domain"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  EXPECT_FALSE(result.nsec.has_value());
}

TEST(ZoneNsecTest, IntervalNeverCoversExistingNames) {
  const Zone zone = MakeTargetZone(TargetApex(), 0x0a000001, {.nsec = true});
  const auto result =
      zone.Lookup(*Name::Parse("ghost.nx.target-domain"), RecordType::kA);
  ASSERT_TRUE(result.nsec.has_value());
  // The anchor node "nx.target-domain" exists and must be an interval
  // endpoint, not strictly inside it.
  const Name anchor = *Name::Parse("nx.target-domain");
  const Name& owner = result.nsec->name;
  const Name& next = result.nsec->target();
  const bool strictly_inside = owner < anchor && anchor < next;
  EXPECT_FALSE(strictly_inside);
}

TEST(NsecCodecTest, NsecRoundTripsOnTheWire) {
  Message msg = MakeResponse(
      MakeQuery(7, *Name::Parse("gone.example"), RecordType::kA), Rcode::kNxDomain);
  msg.authority.push_back(
      MakeNsec(*Name::Parse("alpha.example"), 300, *Name::Parse("beta.example")));
  const auto wire = EncodeMessage(msg);
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->authority.size(), 1u);
  EXPECT_EQ(decoded->authority[0].type, RecordType::kNsec);
  EXPECT_EQ(decoded->authority[0].target(), *Name::Parse("beta.example"));
}

struct NsecDeployment {
  explicit NsecDeployment(bool aggressive) {
    ans_addr = bed.NextAddress();
    resolver_addr = bed.NextAddress();
    AuthoritativeServer& ans = bed.AddAuthoritative(ans_addr);
    ans.AddZone(MakeTargetZone(TargetApex(), ans_addr, {.nsec = true}));
    auth = &ans;
    ResolverConfig config;
    config.aggressive_nsec = aggressive;
    resolver = &bed.AddResolver(resolver_addr, config);
    resolver->AddAuthorityHint(TargetApex(), ans_addr);
  }

  Testbed bed;
  HostAddress ans_addr = 0;
  HostAddress resolver_addr = 0;
  AuthoritativeServer* auth = nullptr;
  RecursiveResolver* resolver = nullptr;
};

TEST(AggressiveNsecTest, SuppressesRepeatNxQueries) {
  NsecDeployment d(/*aggressive=*/true);
  StubConfig config;
  config.qps = 100;
  config.stop = Seconds(5);
  StubClient& stub =
      d.bed.AddStub(d.bed.NextAddress(), config, MakeNxGenerator(TargetApex(), 1));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(8));
  // Every request is answered NXDOMAIN (counts as success)...
  EXPECT_GT(stub.SuccessRatio(), 0.99);
  // ...but after the first NSEC covering the nx subtree is cached, no
  // further upstream queries are needed: 500 random names, ~2 queries.
  EXPECT_LE(d.resolver->queries_sent(), 6u);
  EXPECT_GT(d.resolver->nsec_synthesized(), 450u);
}

TEST(AggressiveNsecTest, WithoutItEveryNxNameCostsAQuery) {
  NsecDeployment d(/*aggressive=*/false);
  StubConfig config;
  config.qps = 100;
  config.stop = Seconds(5);
  StubClient& stub =
      d.bed.AddStub(d.bed.NextAddress(), config, MakeNxGenerator(TargetApex(), 1));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(8));
  EXPECT_GE(d.resolver->queries_sent(), 450u);
  EXPECT_EQ(d.resolver->nsec_synthesized(), 0u);
}

TEST(AggressiveNsecTest, DoesNotDenyExistingNames) {
  NsecDeployment d(/*aggressive=*/true);
  // Mix NX queries (to populate the NSEC cache) with WC queries (which must
  // keep resolving positively).
  StubConfig nx_config;
  nx_config.qps = 50;
  nx_config.stop = Seconds(4);
  StubClient& nx_stub =
      d.bed.AddStub(d.bed.NextAddress(), nx_config, MakeNxGenerator(TargetApex(), 2));
  nx_stub.AddResolver(d.resolver_addr);
  nx_stub.Start();
  StubConfig wc_config = nx_config;
  wc_config.start = Seconds(1);
  StubClient& wc_stub =
      d.bed.AddStub(d.bed.NextAddress(), wc_config, MakeWcGenerator(TargetApex(), 3));
  wc_stub.AddResolver(d.resolver_addr);
  wc_stub.Start();
  d.bed.RunFor(Seconds(8));
  EXPECT_GT(wc_stub.SuccessRatio(), 0.99);
  // WC answers must be genuine NOERROR resolutions, not synthesized denials:
  // wc queries continue to reach the authoritative server.
  EXPECT_GT(d.auth->queries_received(), 100u);
}

TEST(AggressiveNsecTest, EntriesExpireWithTtl) {
  NsecDeployment d(/*aggressive=*/true);
  // Two different NX names, the second asked long after the first's NSEC
  // (600 s zone TTL) has expired: it must trigger a fresh upstream query.
  StubConfig first;
  first.qps = 1;
  first.stop = Seconds(1);
  StubClient& stub1 = d.bed.AddStub(
      d.bed.NextAddress(), first, MakeNxGenerator(TargetApex(), 9));
  stub1.AddResolver(d.resolver_addr);
  stub1.Start();
  d.bed.RunFor(Seconds(5));
  const uint64_t before = d.resolver->queries_sent();
  EXPECT_GE(before, 1u);

  StubConfig second = first;
  second.start = Seconds(700);  // Far past the TTL.
  second.stop = Seconds(701);
  StubClient& stub2 = d.bed.AddStub(
      d.bed.NextAddress(), second, MakeNxGenerator(TargetApex(), 10));
  stub2.AddResolver(d.resolver_addr);
  stub2.Start();
  d.bed.RunFor(Seconds(700));
  EXPECT_EQ(stub2.succeeded(), 1u);
  // The expired interval could not synthesize the answer.
  EXPECT_GT(d.resolver->queries_sent(), before);
}

}  // namespace
}  // namespace dcc
