#include "src/zone/zone.h"

#include <algorithm>

namespace dcc {

Zone::Zone(Name apex, SoaData soa, uint32_t default_ttl)
    : apex_(std::move(apex)), soa_(std::move(soa)), default_ttl_(default_ttl) {
  nodes_[apex_][RecordType::kSoa] = {MakeSoa(apex_, default_ttl_, soa_)};
  names_.insert(apex_);
}

bool Zone::Add(ResourceRecord rr) {
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

bool Zone::AddA(const Name& name, HostAddress addr) {
  return Add(MakeA(name, default_ttl_, addr));
}

bool Zone::AddNs(const Name& name, const Name& nsdname) {
  return Add(MakeNs(name, default_ttl_, nsdname));
}

bool Zone::AddCname(const Name& name, const Name& target) {
  return Add(MakeCname(name, default_ttl_, target));
}

bool Zone::AddTxt(const Name& name, std::vector<std::string> strings) {
  return Add(MakeTxt(name, default_ttl_, std::move(strings)));
}

const Zone::TypeMap* Zone::FindNode(const Name& name) const {
  auto it = nodes_.find(name);
  return it != nodes_.end() ? &it->second : nullptr;
}

bool Zone::HasDescendants(const Name& name) const {
  // Names sort suffix-first, so strict descendants of `name` immediately
  // follow it in the ordered name set.
  auto it = names_.upper_bound(name);
  return it != names_.end() && it->IsSubdomainOf(name);
}

std::optional<Name> Zone::FindDelegation(const Name& qname) const {
  // Walk from just below the apex towards qname, returning the first
  // (highest) delegation cut encountered. A cut at the apex itself is the
  // zone's own NS RRset, not a delegation.
  const size_t apex_count = apex_.LabelCount();
  for (size_t count = apex_count + 1; count <= qname.LabelCount(); ++count) {
    const Name candidate = qname.Suffix(count);
    const TypeMap* node = FindNode(candidate);
    if (node != nullptr && node->count(RecordType::kNs) > 0) {
      return candidate;
    }
  }
  return std::nullopt;
}

LookupResult Zone::MakeNegative(LookupStatus status) const {
  LookupResult result;
  result.status = status;
  result.soa = MakeSoa(apex_, std::min(default_ttl_, soa_.minimum), soa_);
  return result;
}

LookupResult Zone::Lookup(const Name& qname, RecordType qtype) const {
  if (!qname.IsSubdomainOf(apex_)) {
    LookupResult result;
    result.status = LookupStatus::kNotInZone;
    return result;
  }

  // Delegations take precedence over everything below the cut.
  if (const auto cut = FindDelegation(qname); cut.has_value()) {
    // A query for the NS RRset exactly at the cut would be answered by the
    // child zone; the parent serves a referral either way.
    LookupResult result;
    result.status = LookupStatus::kDelegation;
    const TypeMap* node = FindNode(*cut);
    result.records = node->at(RecordType::kNs);
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

  const TypeMap* node = FindNode(qname);
  if (node != nullptr) {
    if (auto it = node->find(qtype); it != node->end()) {
      LookupResult result;
      result.status = LookupStatus::kSuccess;
      result.records = it->second;
      return result;
    }
    if (qtype != RecordType::kCname) {
      if (auto it = node->find(RecordType::kCname); it != node->end()) {
        LookupResult result;
        result.status = LookupStatus::kCname;
        result.records = it->second;
        return result;
      }
    }
    return MakeNegative(LookupStatus::kNoData);
  }

  // Empty non-terminal: the name has descendants but no RRsets => NODATA.
  if (HasDescendants(qname)) {
    return MakeNegative(LookupStatus::kNoData);
  }

  // Wildcard synthesis (RFC 4592): find the closest encloser, then look for
  // the "*" child directly below it.
  Name closest = qname;
  while (closest.LabelCount() > apex_.LabelCount()) {
    closest = closest.Parent();
    if (FindNode(closest) != nullptr || HasDescendants(closest)) {
      break;
    }
  }
  const auto wildcard_name = closest.Prepend("*");
  const TypeMap* wild = wildcard_name.has_value() ? FindNode(*wildcard_name) : nullptr;
  // The wildcard only matches names that are not covered by an existing
  // sibling subtree; `closest` is the closest encloser by construction, so a
  // match at "*.closest" is valid unless the next label towards qname exists.
  if (wild != nullptr) {
    auto synthesize = [&](const RrSet& rrs) {
      RrSet out;
      out.reserve(rrs.size());
      for (const auto& rr : rrs) {
        ResourceRecord copy = rr;
        copy.name = qname;
        out.push_back(std::move(copy));
      }
      return out;
    };
    if (auto it = wild->find(qtype); it != wild->end()) {
      LookupResult result;
      result.status = LookupStatus::kSuccess;
      result.records = synthesize(it->second);
      result.wildcard = true;
      return result;
    }
    if (qtype != RecordType::kCname) {
      if (auto it = wild->find(RecordType::kCname); it != wild->end()) {
        LookupResult result;
        result.status = LookupStatus::kCname;
        result.records = synthesize(it->second);
        result.wildcard = true;
        return result;
      }
    }
    LookupResult result = MakeNegative(LookupStatus::kNoData);
    result.wildcard = true;
    return result;
  }

  LookupResult negative = MakeNegative(LookupStatus::kNxDomain);
  if (nsec_enabled_) {
    // The denial interval is bounded by the nearest existing nodes in the
    // zone's canonical (suffix-first) order; `next` wraps to the apex at the
    // end of the zone (RFC 4034 §4.1.1).
    auto successor = names_.upper_bound(qname);
    const Name& next = successor != names_.end() ? *successor : apex_;
    const Name& owner = successor != names_.begin() ? *std::prev(successor) : apex_;
    negative.nsec = MakeNsec(owner, std::min(default_ttl_, soa_.minimum), next);
  }
  return negative;
}

size_t Zone::RrSetCount() const {
  size_t count = 0;
  for (const auto& [name, types] : nodes_) {
    count += types.size();
  }
  return count;
}

ResourceRecord Zone::SoaRecord() const { return MakeSoa(apex_, default_ttl_, soa_); }

}  // namespace dcc
