// Differential test of the immutable Zone (one grouped record array behind a
// hash index) against a reference model: the map-and-set zone it replaced,
// which kept a std::map of RRsets per owner and an ordered std::set of owner
// names, and grew one record at a time. Seeded random zones mix wildcards,
// empty non-terminals, delegations with and without glue, CNAMEs, duplicate
// records, names differing only in case and out-of-zone records; every
// lookup, NSEC on and off, must return an identical LookupResult, RRset
// order included.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/zone/zone.h"

namespace dcc {
namespace {
namespace reference {

class Zone {
 public:
  Zone(Name apex, SoaData soa, uint32_t default_ttl)
      : apex_(std::move(apex)), soa_(std::move(soa)), default_ttl_(default_ttl) {
    nodes_[apex_][RecordType::kSoa] = {MakeSoa(apex_, default_ttl_, soa_)};
    names_.insert(apex_);
  }

  bool Add(ResourceRecord rr) {
    if (!rr.name.IsSubdomainOf(apex_)) {
      return false;
    }
    auto [node, inserted] = nodes_.try_emplace(rr.name);
    if (inserted) {
      names_.insert(rr.name);
    }
    node->second[rr.type].push_back(std::move(rr));
    return true;
  }

  void EnableNsec() { nsec_enabled_ = true; }

  size_t RrSetCount() const {
    size_t count = 0;
    for (const auto& [name, types] : nodes_) {
      count += types.size();
    }
    return count;
  }

  LookupResult Lookup(const Name& qname, RecordType qtype) const {
    if (!qname.IsSubdomainOf(apex_)) {
      return LookupResult{};
    }
    if (const auto cut = FindDelegation(qname); cut.has_value()) {
      LookupResult result;
      result.status = LookupStatus::kDelegation;
      result.records = FindNode(*cut)->at(RecordType::kNs);
      for (const auto& ns : result.records) {
        const TypeMap* glue_node = FindNode(ns.target());
        if (glue_node != nullptr) {
          auto it = glue_node->find(RecordType::kA);
          if (it != glue_node->end()) {
            result.glue.insert(result.glue.end(), it->second.begin(), it->second.end());
          }
        }
      }
      return result;
    }
    if (const TypeMap* node = FindNode(qname); node != nullptr) {
      return Answer(*node, qtype, nullptr);
    }
    if (HasDescendants(qname)) {
      return MakeNegative(LookupStatus::kNoData);
    }
    Name closest = qname;
    while (closest.LabelCount() > apex_.LabelCount()) {
      closest = closest.Parent();
      if (FindNode(closest) != nullptr || HasDescendants(closest)) {
        break;
      }
    }
    const auto wildcard_name = closest.Prepend("*");
    const TypeMap* wild = wildcard_name.has_value() ? FindNode(*wildcard_name) : nullptr;
    if (wild != nullptr) {
      LookupResult result = Answer(*wild, qtype, &qname);
      result.wildcard = true;
      return result;
    }
    LookupResult negative = MakeNegative(LookupStatus::kNxDomain);
    if (nsec_enabled_) {
      auto successor = names_.upper_bound(qname);
      const Name& next = successor != names_.end() ? *successor : apex_;
      const Name& owner = successor != names_.begin() ? *std::prev(successor) : apex_;
      negative.nsec = MakeNsec(owner, std::min(default_ttl_, soa_.minimum), next);
    }
    return negative;
  }

 private:
  using TypeMap = std::map<RecordType, RrSet>;

  const TypeMap* FindNode(const Name& name) const {
    auto it = nodes_.find(name);
    return it != nodes_.end() ? &it->second : nullptr;
  }

  bool HasDescendants(const Name& name) const {
    auto it = names_.upper_bound(name);
    return it != names_.end() && it->IsSubdomainOf(name);
  }

  std::optional<Name> FindDelegation(const Name& qname) const {
    for (size_t count = apex_.LabelCount() + 1; count <= qname.LabelCount(); ++count) {
      const Name candidate = qname.Suffix(count);
      const TypeMap* node = FindNode(candidate);
      if (node != nullptr && node->count(RecordType::kNs) > 0) {
        return candidate;
      }
    }
    return std::nullopt;
  }

  // The answer at an existing (or wildcard) node; `synthesized_owner`
  // rewrites the owner of wildcard answers.
  LookupResult Answer(const TypeMap& node, RecordType qtype,
                      const Name* synthesized_owner) const {
    auto rrset = [&](const RrSet& rrs) {
      RrSet out = rrs;
      if (synthesized_owner != nullptr) {
        for (auto& rr : out) {
          rr.name = *synthesized_owner;
        }
      }
      return out;
    };
    LookupResult result;
    if (auto it = node.find(qtype); it != node.end()) {
      result.status = LookupStatus::kSuccess;
      result.records = rrset(it->second);
      return result;
    }
    if (qtype != RecordType::kCname) {
      if (auto it = node.find(RecordType::kCname); it != node.end()) {
        result.status = LookupStatus::kCname;
        result.records = rrset(it->second);
        return result;
      }
    }
    return MakeNegative(LookupStatus::kNoData);
  }

  LookupResult MakeNegative(LookupStatus status) const {
    LookupResult result;
    result.status = status;
    result.soa = MakeSoa(apex_, std::min(default_ttl_, soa_.minimum), soa_);
    return result;
  }

  Name apex_;
  SoaData soa_;
  uint32_t default_ttl_;
  bool nsec_enabled_ = false;
  FlatMap<Name, TypeMap, NameHash> nodes_;
  std::set<Name> names_;
};

}  // namespace reference

// Short labels from a small alphabet, so random names share ancestors,
// collide, and differ only in case.
std::string RandomLabel(Rng& rng) {
  static const char* kLabels[] = {"a", "b", "c", "ns", "www", "x", "A", "B", "Ns"};
  return kLabels[rng.NextBelow(std::size(kLabels))];
}

Name RandomNameBelow(Rng& rng, const Name& base, int max_depth) {
  Name name = base;
  const int depth = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(max_depth)));
  for (int d = 0; d < depth; ++d) {
    name = *name.Prepend(RandomLabel(rng));
  }
  return name;
}

Name UpperCase(const Name& name) {
  std::string text = name.ToString();
  for (char& c : text) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return *Name::Parse(text);
}

struct RandomZone {
  Name apex;
  SoaData soa;
  uint32_t default_ttl = 0;
  std::vector<ResourceRecord> records;
  std::vector<Name> queries;
};

RandomZone MakeRandomZone(uint64_t seed) {
  Rng rng(seed);
  RandomZone z;
  static const char* kApexes[] = {"diff.test", "Sub.Diff.Test", ""};
  z.apex = *Name::Parse(kApexes[seed % std::size(kApexes)]);
  z.soa.mname = *Name::Parse("ns.diff.test");
  z.soa.rname = *Name::Parse("hostmaster.diff.test");
  z.soa.minimum = static_cast<uint32_t>(30 + rng.NextBelow(600));
  z.default_ttl = static_cast<uint32_t>(30 + rng.NextBelow(600));
  const Name outside = *Name::Parse("other.example");

  std::vector<Name> owners;
  const int count = 20 + static_cast<int>(rng.NextBelow(60));
  for (int i = 0; i < count; ++i) {
    Name owner = RandomNameBelow(rng, z.apex, 4);
    const uint64_t shape = rng.NextBelow(20);
    if (shape == 0 && !z.apex.IsRoot()) {
      owner = RandomNameBelow(rng, outside, 2);  // Must be rejected.
    } else if (shape < 3) {
      owner = *owner.Prepend("*");  // Wildcard.
    } else if (shape == 3) {
      owner = rng.NextBool(0.5) ? z.apex : UpperCase(z.apex);
    } else if (shape < 6 && !owners.empty()) {
      owner = owners[rng.NextBelow(owners.size())];  // Another RRset or record.
    }
    const uint32_t ttl = z.default_ttl;
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2:
        z.records.push_back(MakeA(owner, ttl, static_cast<HostAddress>(rng.NextBelow(1000))));
        break;
      case 3:
        z.records.push_back(MakeTxt(owner, ttl, {rng.NextLabel(4)}));
        break;
      case 4: {
        // A delegation, with glue under the apex about half the time.
        const bool glued = rng.NextBool(0.5);
        const Name ns = glued ? RandomNameBelow(rng, z.apex, 3) : RandomNameBelow(rng, outside, 2);
        z.records.push_back(MakeNs(owner, ttl, ns));
        if (glued) {
          z.records.push_back(MakeA(ns, ttl, static_cast<HostAddress>(rng.NextBelow(1000))));
        }
        break;
      }
      case 5:
      case 6:
        z.records.push_back(MakeCname(owner, ttl, RandomNameBelow(rng, z.apex, 3)));
        break;
      default:
        // An SOA, often at the apex next to the zone's own.
        SoaData soa = z.soa;
        soa.serial = static_cast<uint32_t>(i + 1);  // Tells it apart from the zone's.
        z.records.push_back(MakeSoa(rng.NextBool(0.5) ? z.apex : owner, ttl, soa));
        break;
    }
    if (rng.NextBool(0.1)) {
      z.records.push_back(z.records.back());  // Duplicate record.
    }
    owners.push_back(owner);
  }

  // Queries: every owner and its ancestors, names below owners (under cuts
  // and wildcards), fresh random names, and names outside the zone.
  for (const Name& owner : owners) {
    for (Name name = owner; !name.IsRoot(); name = name.Parent()) {
      z.queries.push_back(name);
    }
    if (auto below = owner.Prepend(RandomLabel(rng)); below.has_value()) {
      z.queries.push_back(*below);
    }
    if (auto below = owner.Prepend("q" + rng.NextLabel(3)); below.has_value()) {
      z.queries.push_back(*below);
    }
  }
  for (int i = 0; i < 40; ++i) {
    z.queries.push_back(RandomNameBelow(rng, z.apex, 5));
    z.queries.push_back(RandomNameBelow(rng, outside, 2));
  }
  // The first and last names in canonical order, whose NSEC proofs end at
  // the apex.
  z.queries.push_back(z.apex);
  z.queries.push_back(*z.apex.Prepend("0"));
  z.queries.push_back(*z.apex.Prepend("zzz"));
  return z;
}

// Name comparison ignores case; the rendering keeps it, so a result naming
// an owner in another case than the model does is caught.
std::string Render(const LookupResult& result) {
  std::string out = "status " + std::to_string(static_cast<int>(result.status)) +
                    (result.wildcard ? " wildcard" : "") + "\n";
  auto add = [&out](const char* section, const ResourceRecord& rr) {
    out += section;
    out += rr.ToString() + "\n";
  };
  for (const ResourceRecord& rr : result.records) {
    add("record ", rr);
  }
  for (const ResourceRecord& rr : result.glue) {
    add("glue ", rr);
  }
  if (result.soa.has_value()) {
    add("soa ", *result.soa);
  }
  if (result.nsec.has_value()) {
    add("nsec ", *result.nsec);
  }
  return out;
}

class ZoneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZoneDifferentialTest, LookupMatchesReferenceModel) {
  const RandomZone z = MakeRandomZone(GetParam());
  for (const bool nsec : {false, true}) {
    reference::Zone model(z.apex, z.soa, z.default_ttl);
    size_t model_rejected = 0;
    for (const ResourceRecord& rr : z.records) {
      model_rejected += model.Add(rr) ? 0 : 1;
    }
    if (nsec) {
      model.EnableNsec();
    }
    const Zone zone(z.apex, z.soa, z.records, {.default_ttl = z.default_ttl, .nsec = nsec});

    EXPECT_EQ(zone.rejected(), model_rejected);
    EXPECT_EQ(zone.RrSetCount(), model.RrSetCount());
    EXPECT_EQ(zone.nsec_enabled(), nsec);
    for (const Name& qname : z.queries) {
      for (const RecordType qtype : {RecordType::kA, RecordType::kNs, RecordType::kCname,
                                     RecordType::kSoa, RecordType::kTxt, RecordType::kAaaa}) {
        ASSERT_EQ(Render(zone.Lookup(qname, qtype)), Render(model.Lookup(qname, qtype)))
            << "seed " << GetParam() << " nsec " << nsec << ": " << qname.ToString() << " "
            << RecordTypeName(qtype);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomZones, ZoneDifferentialTest, ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace dcc
