// Authoritative zone data and lookup.
//
// Implements the parts of RFC 1034 §4.3.2 needed by the paper's experiments:
// exact matches, delegation cuts (referrals with optional glue), CNAME
// indirection, wildcard synthesis (RFC 4592), empty non-terminals (NODATA),
// and NXDOMAIN with the zone SOA for negative caching (RFC 2308).
//
// A Zone is immutable: it is built in one pass from its complete record list
// and never changes afterwards, so one built zone can be shared by every
// server (and every run) that serves it.

#ifndef SRC_ZONE_ZONE_H_
#define SRC_ZONE_ZONE_H_

#include <cstdint>
#include <optional>
#include <utility>
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

// What a lookup matched, as ranges into the zone's immutable record array:
// Zone::Find fills it without copying a record, and Zone::Render copies the
// matched records out. It stays valid as long as its zone.
struct ZoneMatch {
  LookupStatus status = LookupStatus::kNotInZone;
  // records() range of the answer RRset (kSuccess), the CNAME (kCname) or
  // the cut's NS RRset (kDelegation); empty otherwise.
  uint32_t begin = 0;
  uint32_t end = 0;
  // The match came from a wildcard: a rendered answer takes the qname as
  // its owner.
  bool wildcard = false;
};

struct ZoneOptions {
  // TTL of the zone SOA record; also caps the negative-caching TTL.
  uint32_t default_ttl = 600;
  // NSEC generation: NXDOMAIN results carry an NSEC record whose (owner,
  // next) interval covers the denied name (RFC 4034, minus the type bitmap),
  // enabling RFC 8198 aggressive negative caching downstream.
  bool nsec = false;
};

class Zone {
 public:
  // Builds the zone from every record it holds. The zone SOA heads the
  // apex's SOA RRset; inside each RRset the records keep their list order.
  // Records not at or below the apex are dropped and counted in rejected().
  // `records` becomes the zone's record array; a caller that knows its
  // record count reserves one more (for the SOA) so the build never copies
  // it.
  Zone(Name apex, SoaData soa, std::vector<ResourceRecord> records,
       ZoneOptions options = {});

  const Name& apex() const { return apex_; }
  uint32_t default_ttl() const { return default_ttl_; }
  bool nsec_enabled() const { return !ordered_owners_.empty(); }

  // Records of the list given to the constructor that lay outside the apex.
  size_t rejected() const { return rejected_; }

  // Every record, the zone SOA included, grouped by owner and then by type.
  const std::vector<ResourceRecord>& records() const { return records_; }

  // Performs an authoritative lookup per RFC 1034 §4.3.2 in one walk of the
  // index. The status alone decides the response code, so a caller that may
  // discard the answer (a rate-limited server) decides before rendering.
  ZoneMatch Find(const Name& qname, RecordType qtype) const;

  // Copies what `match` (found for `qname`) names into a result: the
  // answer or NS records (renamed to `qname` for a wildcard), the glue of a
  // delegation, and the SOA plus, with NSEC on, the denial record of a
  // negative answer.
  LookupResult Render(const ZoneMatch& match, const Name& qname) const;

  // Find followed by Render.
  LookupResult Lookup(const Name& qname, RecordType qtype) const {
    return Render(Find(qname, qtype), qname);
  }

  // Number of (name, type) RRsets stored.
  size_t RrSetCount() const;

  // The zone SOA as a resource record.
  ResourceRecord SoaRecord() const { return soa_record_; }

 private:
  // Index entry of one name: an owner's records are records_[begin, end),
  // grouped by type. Every ancestor of an owner up to the apex is indexed
  // too, so an entry with no records is an empty non-terminal, and a name
  // missing from the index has no descendants either.
  struct Node {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  // The index entry for `name` (exact match), or nullptr.
  const Node* FindNode(const Name& name) const;

  // The RRset of `type` at `node`, as a records_ range (empty if none).
  std::pair<uint32_t, uint32_t> RrSetRange(const Node& node, RecordType type) const;

  // Indexes the ancestors of the freshly indexed `name` up to the apex.
  void IndexAncestors(const Name& name);

  Name apex_;
  uint32_t default_ttl_;
  // The zone SOA record, and the copy a negative answer carries (TTL capped
  // at the SOA minimum, RFC 2308 §3). Both share one SOA block, so
  // rendering a negative answer copies a record and allocates nothing.
  ResourceRecord soa_record_;
  ResourceRecord negative_soa_;
  size_t rejected_ = 0;
  std::vector<ResourceRecord> records_;  // Grouped by owner, then type.
  FlatMap<Name, Node, NameHash> index_;
  // With NSEC on: for each owner, in canonical (suffix-first) name order,
  // the records_ offset of its first listed record, which names it. Empty
  // otherwise.
  std::vector<uint32_t> ordered_owners_;
};

}  // namespace dcc

#endif  // SRC_ZONE_ZONE_H_
