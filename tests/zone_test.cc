// Unit tests for src/zone: RFC 1034/4592 lookup semantics and the Appendix A
// experiment zones.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

#include "src/zone/experiment_zones.h"
#include "src/zone/zone.h"

namespace dcc {
namespace {

// A small zone covering every lookup case, plus `extra` records.
Zone MakeTestZone(std::vector<ResourceRecord> extra = {}) {
  const Name apex = *Name::Parse("example.com");
  SoaData soa;
  soa.mname = *apex.Prepend("ns1");
  soa.rname = *apex.Prepend("hostmaster");
  soa.minimum = 300;
  std::vector<ResourceRecord> records = {
      MakeNs(apex, 600, *apex.Prepend("ns1")),
      MakeA(*apex.Prepend("ns1"), 600, 0x0a000001),
      MakeA(*apex.Prepend("www"), 600, 0x0a000002),
      MakeCname(*apex.Prepend("alias"), 600, *apex.Prepend("www")),
      MakeTxt(*Name::Parse("deep.sub.example.com"), 600, {"anchor"}),
      // Wildcard under "wild".
      MakeA(*Name::Parse("*.wild.example.com"), 600, 0x0a0000ff),
      // Delegation: child.example.com -> ns.child.example.com (with glue).
      MakeNs(*Name::Parse("child.example.com"), 600, *Name::Parse("ns.child.example.com")),
      MakeA(*Name::Parse("ns.child.example.com"), 600, 0x0a000003),
  };
  records.insert(records.end(), extra.begin(), extra.end());
  return Zone(apex, soa, std::move(records), {.default_ttl = 600});
}

TEST(ZoneTest, ExactMatch) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("www.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].address(), 0x0a000002u);
  EXPECT_FALSE(result.wildcard);
}

TEST(ZoneTest, NoDataForMissingType) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("www.example.com"), RecordType::kTxt);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
  ASSERT_TRUE(result.soa.has_value());
  EXPECT_EQ(result.soa->type, RecordType::kSoa);
}

TEST(ZoneTest, NxDomainWithSoa) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("missing.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  ASSERT_TRUE(result.soa.has_value());
  EXPECT_EQ(result.soa->soa().minimum, 300u);
}

TEST(ZoneTest, NegativeAnswersShareOneSoaBlock) {
  // default_ttl 600 > minimum 300 in the test zone, so the negative SOA
  // takes the minimum as its TTL (RFC 2308 §3).
  const Zone zone = MakeTestZone();
  const auto nxdomain = zone.Lookup(*Name::Parse("missing.example.com"), RecordType::kA);
  const auto nodata = zone.Lookup(*Name::Parse("www.example.com"), RecordType::kTxt);
  ASSERT_TRUE(nxdomain.soa.has_value());
  ASSERT_TRUE(nodata.soa.has_value());
  const ResourceRecord apex_soa = zone.SoaRecord();
  EXPECT_EQ(&nxdomain.soa->soa(), &nodata.soa->soa());
  EXPECT_EQ(&nxdomain.soa->soa(), &apex_soa.soa());
  const SoaData& soa = apex_soa.soa();
  EXPECT_EQ(*nxdomain.soa,
            MakeSoa(zone.apex(), std::min(zone.default_ttl(), soa.minimum), soa));
  EXPECT_EQ(nxdomain.soa->ttl, 300u);
  EXPECT_EQ(*nodata.soa, *nxdomain.soa);
}

TEST(ZoneTest, CnameReturnedForOtherTypes) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("alias.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kCname);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].target(), *Name::Parse("www.example.com"));
}

TEST(ZoneTest, CnameQueryReturnsCnameItself) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("alias.example.com"), RecordType::kCname);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST(ZoneTest, EmptyNonTerminalIsNoData) {
  const Zone zone = MakeTestZone();
  // "sub.example.com" exists only as an ancestor of deep.sub.example.com.
  const auto result = zone.Lookup(*Name::Parse("sub.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST(ZoneTest, WildcardSynthesis) {
  const Zone zone = MakeTestZone();
  const auto result =
      zone.Lookup(*Name::Parse("anything.wild.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  EXPECT_TRUE(result.wildcard);
  ASSERT_EQ(result.records.size(), 1u);
  // Owner is rewritten to the query name.
  EXPECT_EQ(result.records[0].name, *Name::Parse("anything.wild.example.com"));
  EXPECT_EQ(result.records[0].address(), 0x0a0000ffu);
}

TEST(ZoneTest, WildcardDoesNotMatchExistingSibling) {
  const Zone zone = MakeTestZone({MakeA(*Name::Parse("real.wild.example.com"), 600, 0x0a000042)});
  const auto exact = zone.Lookup(*Name::Parse("real.wild.example.com"), RecordType::kA);
  EXPECT_EQ(exact.status, LookupStatus::kSuccess);
  EXPECT_FALSE(exact.wildcard);
  EXPECT_EQ(exact.records[0].address(), 0x0a000042u);
}

TEST(ZoneTest, WildcardNoDataForMissingType) {
  const Zone zone = MakeTestZone();
  const auto result =
      zone.Lookup(*Name::Parse("anything.wild.example.com"), RecordType::kTxt);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
  EXPECT_TRUE(result.wildcard);
}

TEST(ZoneTest, DelegationReturnsReferralWithGlue) {
  const Zone zone = MakeTestZone();
  const auto result =
      zone.Lookup(*Name::Parse("x.child.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RecordType::kNs);
  ASSERT_EQ(result.glue.size(), 1u);
  EXPECT_EQ(result.glue[0].address(), 0x0a000003u);
}

TEST(ZoneTest, DelegationAppliesAtCutItself) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("child.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
}

TEST(ZoneTest, ApexNsIsAnswerNotReferral) {
  const Zone zone = MakeTestZone();
  const auto result = zone.Lookup(*Name::Parse("example.com"), RecordType::kNs);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST(ZoneTest, OutOfZoneRejected) {
  const Zone zone = MakeTestZone({MakeA(*Name::Parse("other.net"), 60, 1)});
  const auto result = zone.Lookup(*Name::Parse("other.net"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNotInZone);
  EXPECT_EQ(zone.rejected(), 1u);
  EXPECT_EQ(zone.RrSetCount(), MakeTestZone().RrSetCount());
}

TEST(ZoneTest, RrSetCountCountsTypes) {
  const size_t before = MakeTestZone().RrSetCount();
  const ResourceRecord same_rrset = MakeA(*Name::Parse("www.example.com"), 600, 0x0a000009);
  EXPECT_EQ(MakeTestZone({same_rrset}).RrSetCount(), before);
  const ResourceRecord new_type = MakeTxt(*Name::Parse("www.example.com"), 600, {"new type"});
  EXPECT_EQ(MakeTestZone({same_rrset, new_type}).RrSetCount(), before + 1);
}

// --- Find, then render -------------------------------------------------------
//
// An authoritative server asks RRL on the match's status before it copies a
// record, so Find must settle everything the response code depends on and
// Render must produce exactly what the one-step lookup produced. The
// expected results below are the one-step lookup's, field for field.

LookupResult FindThenRender(const Zone& zone, const char* qname, RecordType qtype) {
  const Name name = *Name::Parse(qname);
  return zone.Render(zone.Find(name, qtype), name);
}

void ExpectSameResult(const char* label, const LookupResult& actual,
                      const LookupResult& expected) {
  EXPECT_EQ(actual.status, expected.status) << label;
  EXPECT_EQ(actual.records, expected.records) << label;
  EXPECT_EQ(actual.glue, expected.glue) << label;
  EXPECT_EQ(actual.soa, expected.soa) << label;
  EXPECT_EQ(actual.nsec, expected.nsec) << label;
  EXPECT_EQ(actual.wildcard, expected.wildcard) << label;
}

// MakeTestZone plus a wildcard CNAME, NSEC on or off.
Zone MakeRenderZone(bool nsec) {
  const Name apex = *Name::Parse("example.com");
  const Zone base = MakeTestZone();
  std::vector<ResourceRecord> records;
  for (const ResourceRecord& rr : base.records()) {
    if (rr.type != RecordType::kSoa) {  // The rebuilt zone adds its own.
      records.push_back(rr);
    }
  }
  records.push_back(MakeCname(*Name::Parse("*.wc.example.com"), 600, *apex.Prepend("www")));
  return Zone(apex, base.SoaRecord().soa(), std::move(records),
              {.default_ttl = 600, .nsec = nsec});
}

TEST(ZoneRenderTest, FindThenRenderEqualsOneStepLookup) {
  for (const bool nsec : {false, true}) {
    SCOPED_TRACE(nsec ? "nsec on" : "nsec off");
    const Zone zone = MakeRenderZone(nsec);
    const Name apex = *Name::Parse("example.com");
    // Negative answers carry the SOA at min(default TTL, SOA minimum).
    const ResourceRecord negative_soa = MakeSoa(apex, 300, zone.SoaRecord().soa());
    auto expect = [](LookupStatus status, RrSet records = {}, bool wildcard = false) {
      LookupResult result;
      result.status = status;
      result.records = std::move(records);
      result.wildcard = wildcard;
      return result;
    };
    auto negative = [&](LookupStatus status, bool wildcard = false) {
      LookupResult result = expect(status, {}, wildcard);
      result.soa = negative_soa;
      return result;
    };
    const Name www = *apex.Prepend("www");

    ExpectSameResult("exact answer", FindThenRender(zone, "www.example.com", RecordType::kA),
                     expect(LookupStatus::kSuccess, {MakeA(www, 600, 0x0a000002)}));
    ExpectSameResult(
        "CNAME", FindThenRender(zone, "alias.example.com", RecordType::kA),
        expect(LookupStatus::kCname, {MakeCname(*apex.Prepend("alias"), 600, www)}));
    ExpectSameResult(
        "wildcard answer", FindThenRender(zone, "x.wild.example.com", RecordType::kA),
        expect(LookupStatus::kSuccess,
               {MakeA(*Name::Parse("x.wild.example.com"), 600, 0x0a0000ff)}, true));
    ExpectSameResult(
        "wildcard CNAME", FindThenRender(zone, "y.wc.example.com", RecordType::kA),
        expect(LookupStatus::kCname, {MakeCname(*Name::Parse("y.wc.example.com"), 600, www)},
               true));
    ExpectSameResult("wildcard NODATA",
                     FindThenRender(zone, "x.wild.example.com", RecordType::kTxt),
                     negative(LookupStatus::kNoData, true));
    const Name child = *Name::Parse("child.example.com");
    const Name child_ns = *Name::Parse("ns.child.example.com");
    LookupResult referral = expect(LookupStatus::kDelegation, {MakeNs(child, 600, child_ns)});
    referral.glue = {MakeA(child_ns, 600, 0x0a000003)};
    ExpectSameResult("delegation with glue",
                     FindThenRender(zone, "x.child.example.com", RecordType::kA), referral);
    ExpectSameResult("empty non-terminal",
                     FindThenRender(zone, "sub.example.com", RecordType::kA),
                     negative(LookupStatus::kNoData));
    LookupResult denied = negative(LookupStatus::kNxDomain);
    if (nsec) {
      // Canonically, "missing" sorts after the child subtree and before
      // "ns1".
      denied.nsec = MakeNsec(child_ns, 300, *apex.Prepend("ns1"));
    }
    ExpectSameResult("NXDOMAIN", FindThenRender(zone, "missing.example.com", RecordType::kA),
                     denied);
    ExpectSameResult("not in zone", FindThenRender(zone, "other.net", RecordType::kA),
                     expect(LookupStatus::kNotInZone));
  }
}

TEST(ZoneRenderTest, FindCopiesNothingAndRangesIntoTheRecordArray) {
  const Zone zone = MakeRenderZone(/*nsec=*/false);
  const ZoneMatch match = zone.Find(*Name::Parse("x.child.example.com"), RecordType::kA);
  EXPECT_EQ(match.status, LookupStatus::kDelegation);
  ASSERT_EQ(match.end - match.begin, 1u);
  const ResourceRecord& ns = zone.records()[match.begin];
  EXPECT_EQ(ns.type, RecordType::kNs);
  EXPECT_EQ(ns.name, *Name::Parse("child.example.com"));
  // A wildcard match ranges over the "*" owner's records; only a render
  // renames them.
  const ZoneMatch wild = zone.Find(*Name::Parse("x.wild.example.com"), RecordType::kA);
  EXPECT_TRUE(wild.wildcard);
  EXPECT_EQ(zone.records()[wild.begin].name, *Name::Parse("*.wild.example.com"));
}

// --- experiment zones -------------------------------------------------------

TEST(ExperimentZoneTest, TargetZoneWildcardAnswersRandomNames) {
  const Name apex = *Name::Parse("target-domain");
  const Zone zone = MakeTargetZone(apex, 0x0a000001);
  const auto result =
      zone.Lookup(*Name::Parse("abc123.wc.target-domain"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  EXPECT_TRUE(result.wildcard);
}

TEST(ExperimentZoneTest, TargetZoneNxSubtreeYieldsNxDomain) {
  const Name apex = *Name::Parse("target-domain");
  const Zone zone = MakeTargetZone(apex, 0x0a000001);
  const auto result =
      zone.Lookup(*Name::Parse("random.nx.target-domain"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
}

TEST(ExperimentZoneTest, CqChainLinksAndTerminates) {
  const Name apex = *Name::Parse("target-domain");
  TargetZoneOptions options;
  options.cq_instances = 2;
  options.cq_chain_length = 4;
  options.cq_labels = 3;
  const Zone zone = MakeTargetZone(apex, 0x0a000001, options);

  Name current = CqChainHead(apex, /*instance=*/1, /*chain_index=*/1, options.cq_labels);
  int hops = 0;
  while (true) {
    const auto result = zone.Lookup(current, RecordType::kA);
    if (result.status == LookupStatus::kSuccess) {
      break;
    }
    ASSERT_EQ(result.status, LookupStatus::kCname) << current.ToString();
    current = result.records[0].target();
    ++hops;
    ASSERT_LE(hops, options.cq_chain_length);
  }
  EXPECT_EQ(hops, options.cq_chain_length - 1);
}

TEST(ExperimentZoneTest, CqNamesCarryManyLabels) {
  const Name head = CqChainHead(*Name::Parse("t"), 1, 1, 15);
  // 15 numeric labels + rK-i + "cq" + apex.
  EXPECT_EQ(head.LabelCount(), 15u + 1 + 1 + 1);
}

TEST(ExperimentZoneTest, FfDelegationsFanOut) {
  const Name attacker = *Name::Parse("attacker-com");
  const Name target = *Name::Parse("target-domain");
  AttackerZoneOptions options;
  options.instances = 3;
  options.fanout_a = 4;
  options.fanout_t = 5;
  const Zone zone = MakeAttackerZone(attacker, target, options);

  const auto level1 = zone.Lookup(FfQueryName(attacker, 1), RecordType::kA);
  ASSERT_EQ(level1.status, LookupStatus::kDelegation);
  EXPECT_EQ(level1.records.size(), 4u);
  EXPECT_TRUE(level1.glue.empty());  // Glue-less by design.

  // Each first-level NS name delegates to fanout_t names under the target.
  const Name ns_a = level1.records[0].target();
  const auto level2 = zone.Lookup(ns_a, RecordType::kA);
  ASSERT_EQ(level2.status, LookupStatus::kDelegation);
  EXPECT_EQ(level2.records.size(), 5u);
  for (const auto& ns : level2.records) {
    EXPECT_TRUE(ns.target().IsSubdomainOf(*target.Prepend(kWildcardSubtree)));
  }
}

TEST(ExperimentZoneTest, FfInstancesAreIndependent) {
  const Name attacker = *Name::Parse("attacker-com");
  const Name target = *Name::Parse("target-domain");
  AttackerZoneOptions options;
  options.instances = 2;
  options.fanout_a = 2;
  options.fanout_t = 2;
  const Zone zone = MakeAttackerZone(attacker, target, options);
  const auto i1 = zone.Lookup(FfQueryName(attacker, 1), RecordType::kA);
  const auto i2 = zone.Lookup(FfQueryName(attacker, 2), RecordType::kA);
  ASSERT_EQ(i1.status, LookupStatus::kDelegation);
  ASSERT_EQ(i2.status, LookupStatus::kDelegation);
  EXPECT_NE(i1.records[0].target(), i2.records[0].target());
}

// ---------------------------------------------------------------------------
// Property sweep: randomized zones checked against a reference model.
// ---------------------------------------------------------------------------

class ZonePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZonePropertyTest, LookupMatchesReferenceSemantics) {
  Rng rng(GetParam());
  const Name apex = *Name::Parse("prop.test");
  SoaData soa;
  soa.mname = *apex.Prepend("ns");
  soa.minimum = 60;

  // Random flat A records (no delegations/wildcards in this model).
  std::vector<Name> stored;
  std::vector<ResourceRecord> records;
  for (int i = 0; i < 40; ++i) {
    Name name = apex;
    const int depth = 1 + static_cast<int>(rng.NextBelow(3));
    for (int d = 0; d < depth; ++d) {
      name = *name.Prepend(rng.NextLabel(1 + static_cast<int>(rng.NextBelow(4))));
    }
    records.push_back(MakeA(name, 300, static_cast<HostAddress>(i + 1)));
    stored.push_back(name);
  }
  const Zone zone(apex, soa, records, {.default_ttl = 300});
  ASSERT_EQ(zone.rejected(), 0u);

  // Every stored name answers with exactly its records.
  for (const Name& name : stored) {
    const auto result = zone.Lookup(name, RecordType::kA);
    ASSERT_EQ(result.status, LookupStatus::kSuccess) << name.ToString();
    for (const auto& rr : result.records) {
      EXPECT_EQ(rr.name, name);
    }
    // Wrong type at an existing name is NODATA, never NXDOMAIN.
    const auto nodata = zone.Lookup(name, RecordType::kTxt);
    EXPECT_EQ(nodata.status, LookupStatus::kNoData) << name.ToString();
  }

  // Strict ancestors of stored names are NODATA (empty non-terminals) or
  // themselves stored; fresh random names are NXDOMAIN.
  for (const Name& name : stored) {
    Name ancestor = name.Parent();
    if (ancestor.LabelCount() > apex.LabelCount()) {
      const auto result = zone.Lookup(ancestor, RecordType::kA);
      EXPECT_TRUE(result.status == LookupStatus::kSuccess ||
                  result.status == LookupStatus::kNoData)
          << ancestor.ToString();
    }
  }
  for (int i = 0; i < 30; ++i) {
    const Name ghost = *apex.Prepend("zz" + rng.NextLabel(10));
    const auto result = zone.Lookup(ghost, RecordType::kA);
    EXPECT_EQ(result.status, LookupStatus::kNxDomain) << ghost.ToString();
    ASSERT_TRUE(result.soa.has_value());
  }

  // With NSEC enabled, every NXDOMAIN proof covers the denied name and
  // never an existing one.
  const Zone signed_zone(apex, soa, std::move(records), {.default_ttl = 300, .nsec = true});
  for (int i = 0; i < 30; ++i) {
    const Name ghost = *apex.Prepend("zz" + rng.NextLabel(10));
    const auto result = signed_zone.Lookup(ghost, RecordType::kA);
    if (result.status != LookupStatus::kNxDomain) {
      continue;
    }
    ASSERT_TRUE(result.nsec.has_value());
    const Name& owner = result.nsec->name;
    const Name& next = result.nsec->target();
    EXPECT_TRUE(owner < ghost);
    for (const Name& name : stored) {
      const bool strictly_inside =
          owner < name && (next == apex ? true : name < next);
      EXPECT_FALSE(strictly_inside)
          << "NSEC (" << owner.ToString() << ", " << next.ToString()
          << ") covers existing " << name.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomZones, ZonePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dcc
