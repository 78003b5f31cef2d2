// Authoritative zone data and lookup.
//
// Implements the parts of RFC 1034 §4.3.2 needed by the paper's experiments:
// exact matches, delegation cuts (referrals with optional glue), CNAME
// indirection, wildcard synthesis (RFC 4592), empty non-terminals (NODATA),
// and NXDOMAIN with the zone SOA for negative caching (RFC 2308).

#ifndef SRC_ZONE_ZONE_H_
#define SRC_ZONE_ZONE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/common/flat_map.h"
#include "src/dns/name.h"
#include "src/dns/rr.h"

namespace dcc {

enum class LookupStatus {
  kSuccess,     // `records` holds the answer RRset.
  kNoData,      // Name exists but has no RRset of the queried type.
  kNxDomain,    // Name does not exist; `soa` holds the negative-caching SOA.
  kCname,       // `records` holds a single CNAME to follow.
  kDelegation,  // `records` holds the NS RRset of the cut; `glue` the glue A's.
  kNotInZone,   // QNAME is not at or below this zone's apex.
};

struct LookupResult {
  LookupStatus status = LookupStatus::kNotInZone;
  RrSet records;
  RrSet glue;
  std::optional<ResourceRecord> soa;
  // NSEC denial-of-existence proof for NXDOMAIN (when the zone has NSEC
  // enabled); served in the authority section.
  std::optional<ResourceRecord> nsec;
  bool wildcard = false;  // Answer was synthesized from a wildcard.
};

class Zone {
 public:
  explicit Zone(Name apex, SoaData soa, uint32_t default_ttl = 600);

  const Name& apex() const { return apex_; }
  uint32_t default_ttl() const { return default_ttl_; }

  // Adds a record; `rr.name` must be at or below the apex (checked).
  // Returns false (and ignores the record) otherwise.
  bool Add(ResourceRecord rr);

  // Convenience helpers using the zone default TTL.
  bool AddA(const Name& name, HostAddress addr);
  bool AddNs(const Name& name, const Name& nsdname);
  bool AddCname(const Name& name, const Name& target);
  bool AddTxt(const Name& name, std::vector<std::string> strings);

  // Enables NSEC generation: NXDOMAIN results carry an NSEC record whose
  // (owner, next) interval covers the denied name (RFC 4034, minus the type
  // bitmap), enabling RFC 8198 aggressive negative caching downstream.
  void EnableNsec() { nsec_enabled_ = true; }
  bool nsec_enabled() const { return nsec_enabled_; }

  // Performs an authoritative lookup per RFC 1034 §4.3.2.
  LookupResult Lookup(const Name& qname, RecordType qtype) const;

  // Number of (name, type) RRsets stored.
  size_t RrSetCount() const;

  // The zone SOA as a resource record.
  ResourceRecord SoaRecord() const;

 private:
  using TypeMap = std::map<RecordType, RrSet>;

  // Finds the node map for `name` if it exists (exact match only).
  const TypeMap* FindNode(const Name& name) const;

  // True if any stored name is a strict descendant of `name`
  // (=> `name` is an empty non-terminal if it has no node itself).
  bool HasDescendants(const Name& name) const;

  // Looks for a delegation cut strictly between apex (exclusive) and
  // `qname` (inclusive); returns the cut owner name if found.
  std::optional<Name> FindDelegation(const Name& qname) const;

  LookupResult MakeNegative(LookupStatus status) const;

  Name apex_;
  SoaData soa_;
  uint32_t default_ttl_;
  bool nsec_enabled_ = false;
  // Exact-match lookups go to the hash table; the ordered owner-name set
  // serves only HasDescendants and the NSEC neighbours. The two hold
  // separate copies of each owner name.
  FlatMap<Name, TypeMap, NameHash> nodes_;
  std::set<Name> names_;
};

}  // namespace dcc

#endif  // SRC_ZONE_ZONE_H_
