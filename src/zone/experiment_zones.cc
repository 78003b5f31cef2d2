#include "src/zone/experiment_zones.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Both zone builders report to this one profiler site.
const prof::Site& ZoneBuildSite() {
  static const prof::Site site("scenario.zone_build");
  return site;
}

SoaData DefaultSoa(const Name& apex, uint32_t minimum) {
  SoaData soa;
  soa.mname = *Name::Parse("ans." + apex.ToString());
  soa.rname = *Name::Parse("hostmaster." + apex.ToString());
  soa.serial = 2024110401;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 86400;
  soa.minimum = minimum;
  return soa;
}

// Formats "<prefix><a>[<t>]-<instance>" (no <t> when t is 0) into `buf`
// without allocating: the attacker zone names tens of thousands of these.
std::string_view NsLabel(char (&buf)[48], std::string_view prefix, int a, int t,
                         int instance) {
  char* out = std::copy(prefix.begin(), prefix.end(), buf);
  out = std::to_chars(out, std::end(buf), a).ptr;
  if (t != 0) {
    out = std::to_chars(out, std::end(buf), t).ptr;
  }
  *out++ = '-';
  out = std::to_chars(out, std::end(buf), instance).ptr;
  return {buf, static_cast<size_t>(out - buf)};
}

// Builds "<labels>.<labels-1>...1.r<chain>-<instance>.cq.<apex>".
Name CqName(const Name& apex, int instance, int chain_index, int labels) {
  std::string text;
  for (int l = labels; l >= 1; --l) {
    text += std::to_string(l);
    text += '.';
  }
  text += "r" + std::to_string(chain_index) + "-" + std::to_string(instance);
  text += ".";
  text += kCnameSubtree;
  if (!apex.IsRoot()) {
    text += "." + apex.ToString();
  }
  return *Name::Parse(text);
}

}  // namespace

Name CqChainHead(const Name& apex, int instance, int chain_index, int labels) {
  return CqName(apex, instance, chain_index, labels);
}

Zone MakeTargetZone(const Name& apex, HostAddress self_addr,
                    const TargetZoneOptions& options) {
  const prof::ScopedSite scope(ZoneBuildSite());
  const uint32_t ttl = options.ttl;
  std::vector<ResourceRecord> records;
  // Four fixed records, the CQ chains and the zone SOA.
  records.reserve(5 + static_cast<size_t>(std::max(options.cq_instances, 0)) *
                          static_cast<size_t>(std::max(options.cq_chain_length, 0)));
  const Name ans_name = *apex.Prepend("ans");
  records.push_back(MakeNs(apex, ttl, ans_name));
  records.push_back(MakeA(ans_name, ttl, self_addr));

  // WC subtree: "*.wc.<apex>" answers every pseudo-random query name.
  const Name wc_subtree = *apex.Prepend(kWildcardSubtree);
  records.push_back(MakeA(*wc_subtree.Prepend("*"), ttl, options.wildcard_addr));

  // NX subtree intentionally holds no records: any query under it yields
  // NXDOMAIN. An anchor TXT at the subtree apex keeps the subtree itself
  // resolvable (NODATA) without shadowing descendants.
  const Name nx_subtree = *apex.Prepend(kNxSubtree);
  records.push_back(MakeTxt(nx_subtree, ttl, {"nxdomain test subtree"}));

  // CQ chains (Fig. 12a): r1-i -> r2-i -> ... -> rN-i -> A.
  for (int i = 1; i <= options.cq_instances; ++i) {
    for (int k = 1; k < options.cq_chain_length; ++k) {
      records.push_back(MakeCname(CqName(apex, i, k, options.cq_labels), ttl,
                                  CqName(apex, i, k + 1, options.cq_labels)));
    }
    records.push_back(MakeA(CqName(apex, i, options.cq_chain_length, options.cq_labels),
                            ttl, options.wildcard_addr));
  }
  return Zone(apex, DefaultSoa(apex, ttl), std::move(records),
              {.default_ttl = ttl, .nsec = options.nsec});
}

Zone MakeAttackerZone(const Name& apex, const Name& target_apex,
                      const AttackerZoneOptions& options) {
  const prof::ScopedSite scope(ZoneBuildSite());
  const uint32_t ttl = options.ttl;
  const size_t per_instance = static_cast<size_t>(std::max(options.fanout_a, 0)) *
                              static_cast<size_t>(1 + std::max(options.fanout_t, 0));
  std::vector<ResourceRecord> records;
  // The delegations, the apex NS and the zone SOA.
  records.reserve(static_cast<size_t>(std::max(options.instances, 0)) * per_instance + 2);

  // Each owner's records are listed together and the apex NS comes last, next
  // to the SOA the zone appends, so the build finds the records already
  // grouped and moves none of them.
  const Name target_wc = *target_apex.Prepend(kWildcardSubtree);
  char label[48];
  for (int i = 1; i <= options.instances; ++i) {
    const Name q = FfQueryName(apex, i);
    const size_t first_ns = records.size();
    for (int a = 1; a <= options.fanout_a; ++a) {
      records.push_back(MakeNs(q, ttl, *apex.Prepend(NsLabel(label, "ns-a", a, 0, i))));
    }
    for (int a = 1; a <= options.fanout_a; ++a) {
      const Name ns_a = records[first_ns + static_cast<size_t>(a - 1)].target();
      for (int t = 1; t <= options.fanout_t; ++t) {
        records.push_back(
            MakeNs(ns_a, ttl, *target_wc.Prepend(NsLabel(label, "ns-t", a, t, i))));
      }
    }
  }
  // No A record for the attacker's own nameserver name is needed in-zone;
  // the hosting server is configured with the zone directly.
  records.push_back(MakeNs(apex, ttl, *apex.Prepend("ans")));
  return Zone(apex, DefaultSoa(apex, ttl), std::move(records), {.default_ttl = ttl});
}

Name FfQueryName(const Name& attacker_apex, int instance) {
  return *attacker_apex.Prepend("q-" + std::to_string(instance));
}

}  // namespace dcc
