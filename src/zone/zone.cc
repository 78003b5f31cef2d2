#include "src/zone/zone.h"

#include <algorithm>
#include <numeric>

namespace dcc {

Zone::Zone(Name apex, SoaData soa, std::vector<ResourceRecord> records,
           ZoneOptions options)
    : apex_(std::move(apex)),
      default_ttl_(options.default_ttl),
      soa_record_(MakeSoa(apex_, default_ttl_, std::move(soa))),
      negative_soa_(soa_record_) {
  negative_soa_.ttl = std::min(default_ttl_, soa_record_.soa().minimum);
  const auto outside = std::remove_if(
      records.begin(), records.end(),
      [this](const ResourceRecord& rr) { return !rr.name.IsSubdomainOf(apex_); });
  rejected_ = static_cast<size_t>(records.end() - outside);
  records.erase(outside, records.end());
  records.push_back(soa_record_);
  const auto n = static_cast<uint32_t>(records.size());
  const uint32_t soa_index = n - 1;

  // Pass 1: index every owner and its ancestors, numbering owners by first
  // appearance. While building, an owner's `end` holds its number plus one
  // (0 = not an owner yet).
  std::vector<uint32_t> owner_of(n);
  // Owners number at most the records: reserving spares the growth copies.
  std::vector<uint32_t> group_size;
  std::vector<uint32_t> first_record;
  group_size.reserve(n);
  first_record.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Name& name = records[i].name;
    if (i > 0 && name == records[i - 1].name) {
      owner_of[i] = owner_of[i - 1];
      ++group_size[owner_of[i]];
      continue;
    }
    auto [it, inserted] = index_.try_emplace(name);
    if (it->second.end == 0) {
      it->second.end = static_cast<uint32_t>(group_size.size()) + 1;
      group_size.push_back(0);
      first_record.push_back(i);
    }
    owner_of[i] = it->second.end - 1;
    ++group_size[owner_of[i]];
    if (inserted) {
      IndexAncestors(name);
    }
  }
  const auto owners = static_cast<uint32_t>(group_size.size());
  // The apex is named as the zone was given it, whatever case the records use.
  first_record[owner_of[soa_index]] = soa_index;

  // Owner groups go in first-appearance order, or in canonical name order
  // when NSEC needs the owners' neighbours.
  std::vector<uint32_t> rank(owners);
  std::iota(rank.begin(), rank.end(), 0);
  if (options.nsec) {
    std::vector<uint32_t> by_name(owners);
    std::iota(by_name.begin(), by_name.end(), 0);
    std::sort(by_name.begin(), by_name.end(), [&](uint32_t a, uint32_t b) {
      return records[first_record[a]].name < records[first_record[b]].name;
    });
    for (uint32_t r = 0; r < owners; ++r) {
      rank[by_name[r]] = r;
    }
  }
  std::vector<uint32_t> start(owners + 1, 0);
  for (uint32_t o = 0; o < owners; ++o) {
    start[rank[o] + 1] = group_size[o];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());

  // Pass 2: a stable counting sort by owner, then by type inside each group;
  // the zone SOA sorts ahead of any other SOA record at the apex.
  std::vector<uint32_t> source(n);
  std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    source[cursor[rank[owner_of[i]]]++] = i;
  }
  const auto by_type = [&](uint32_t a, uint32_t b) {
    const RecordType ta = records[a].type;
    const RecordType tb = records[b].type;
    return ta != tb ? ta < tb : (a == soa_index && b != soa_index);
  };
  for (uint32_t r = 0; r < owners; ++r) {
    const auto first = source.begin() + start[r];
    const auto last = source.begin() + start[r + 1];
    if (!std::is_sorted(first, last, by_type)) {
      std::stable_sort(first, last, by_type);
    }
  }

  // NSEC names each owner by its first record, wherever the type sort put it.
  if (options.nsec) {
    ordered_owners_.resize(owners);
    for (uint32_t o = 0; o < owners; ++o) {
      const uint32_t r = rank[o];
      ordered_owners_[r] = static_cast<uint32_t>(
          std::find(source.begin() + start[r], source.begin() + start[r + 1], first_record[o]) -
          source.begin());
    }
  }

  // Apply the permutation in place, one cycle at a time, so no second copy
  // of the record array exists.
  for (uint32_t k = 0; k < n; ++k) {
    if (source[k] == k) {
      continue;
    }
    ResourceRecord held = std::move(records[k]);
    uint32_t j = k;
    while (source[j] != k) {
      const uint32_t from = source[j];
      records[j] = std::move(records[from]);
      source[j] = j;
      j = from;
    }
    records[j] = std::move(held);
    source[j] = j;
  }
  records.shrink_to_fit();
  records_ = std::move(records);

  for (auto& [name, node] : index_) {
    if (node.end != 0) {  // An owner: swap its number for its record range.
      const uint32_t r = rank[node.end - 1];
      node.begin = start[r];
      node.end = start[r + 1];
    }
  }
}

void Zone::IndexAncestors(const Name& name) {
  const size_t apex_count = apex_.LabelCount();
  for (Name up = name; up.LabelCount() > apex_count;) {
    up = up.Parent();
    if (!index_.try_emplace(up).second) {
      return;  // Indexed earlier, so its own ancestors are indexed already.
    }
  }
}

const Zone::Node* Zone::FindNode(const Name& name) const {
  auto it = index_.find(name);
  return it != index_.end() ? &it->second : nullptr;
}

std::pair<uint32_t, uint32_t> Zone::RrSetRange(const Node& node, RecordType type) const {
  uint32_t begin = node.begin;
  while (begin < node.end && records_[begin].type != type) {
    ++begin;
  }
  uint32_t end = begin;
  while (end < node.end && records_[end].type == type) {
    ++end;
  }
  return {begin, end};
}

ZoneMatch Zone::Find(const Name& qname, RecordType qtype) const {
  ZoneMatch match;
  if (!qname.IsSubdomainOf(apex_)) {
    return match;  // kNotInZone.
  }
  const auto matched = [&match](LookupStatus status, std::pair<uint32_t, uint32_t> range) {
    match.status = status;
    match.begin = range.first;
    match.end = range.second;
    return match;
  };

  // One walk from just below the apex down to qname. A cut on the way is a
  // delegation, which takes precedence over everything below it (a cut at
  // the apex itself is the zone's own NS RRset, so the walk starts below
  // it). The index holds every ancestor of every owner, so the first name
  // the walk lacks has no indexed descendants: the name above it is the
  // closest encloser.
  const size_t apex_count = apex_.LabelCount();
  const size_t labels = qname.LabelCount();
  const Node* node = labels == apex_count ? FindNode(qname) : nullptr;
  for (size_t count = apex_count + 1; count <= labels; ++count) {
    const Node* step =
        count == labels ? FindNode(qname) : FindNode(qname.Suffix(count));
    if (step == nullptr) {
      // Wildcard synthesis (RFC 4592): the "*" child of the closest encloser
      // matches, since by construction the next label towards qname does not
      // exist.
      const auto wildcard_name = qname.Suffix(count - 1).Prepend("*");
      node = wildcard_name.has_value() ? FindNode(*wildcard_name) : nullptr;
      if (node == nullptr) {
        match.status = LookupStatus::kNxDomain;
        return match;
      }
      match.wildcard = true;
      break;
    }
    // A query for the NS RRset exactly at a cut would be answered by the
    // child zone; the parent serves a referral either way.
    if (const auto ns = RrSetRange(*step, RecordType::kNs); ns.first != ns.second) {
      return matched(LookupStatus::kDelegation, ns);
    }
    node = step;
  }

  // An indexed name without records is an empty non-terminal: NODATA.
  if (const auto rrs = RrSetRange(*node, qtype); rrs.first != rrs.second) {
    return matched(LookupStatus::kSuccess, rrs);
  }
  if (qtype != RecordType::kCname) {
    if (const auto rrs = RrSetRange(*node, RecordType::kCname); rrs.first != rrs.second) {
      return matched(LookupStatus::kCname, rrs);
    }
  }
  match.status = LookupStatus::kNoData;
  return match;
}

LookupResult Zone::Render(const ZoneMatch& match, const Name& qname) const {
  LookupResult result;
  result.status = match.status;
  result.wildcard = match.wildcard;
  result.records.assign(records_.begin() + match.begin, records_.begin() + match.end);
  switch (match.status) {
    case LookupStatus::kSuccess:
    case LookupStatus::kCname:
      if (match.wildcard) {
        for (auto& rr : result.records) {
          rr.name = qname;
        }
      }
      break;
    case LookupStatus::kDelegation:
      for (const auto& ns : result.records) {
        if (const Node* glue_node = FindNode(ns.target()); glue_node != nullptr) {
          const auto glue = RrSetRange(*glue_node, RecordType::kA);
          result.glue.insert(result.glue.end(), records_.begin() + glue.first,
                             records_.begin() + glue.second);
        }
      }
      break;
    case LookupStatus::kNoData:
    case LookupStatus::kNxDomain:
      result.soa = negative_soa_;
      if (match.status == LookupStatus::kNxDomain && nsec_enabled()) {
        // The denial interval is bounded by the nearest owners in the zone's
        // canonical (suffix-first) order; `next` wraps to the apex at the end
        // of the zone (RFC 4034 §4.1.1).
        const auto successor = std::upper_bound(
            ordered_owners_.begin(), ordered_owners_.end(), qname,
            [this](const Name& name, uint32_t begin) { return name < records_[begin].name; });
        const Name& next =
            successor != ordered_owners_.end() ? records_[*successor].name : apex_;
        const Name& owner =
            successor != ordered_owners_.begin() ? records_[*std::prev(successor)].name : apex_;
        result.nsec = MakeNsec(owner, negative_soa_.ttl, next);
      }
      break;
    case LookupStatus::kNotInZone:
      break;
  }
  return result;
}

size_t Zone::RrSetCount() const {
  // Each owner's records are contiguous and grouped by type.
  size_t count = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (i == 0 || records_[i].type != records_[i - 1].type ||
        records_[i].name != records_[i - 1].name) {
      ++count;
    }
  }
  return count;
}

}  // namespace dcc
