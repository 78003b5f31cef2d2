// Resolver cache: positive RRset caching plus negative caching (RFC 2308).
//
// The same structure stores "infrastructure" data learned from referrals (NS
// RRsets and glue addresses), which the iterative resolver uses to find the
// best known zone cut for a name.

#ifndef SRC_SERVER_CACHE_H_
#define SRC_SERVER_CACHE_H_

#include <cstdint>
#include <optional>

#include "src/common/flat_map.h"
#include "src/common/time.h"
#include "src/dns/name.h"
#include "src/dns/rr.h"

namespace dcc {

enum class CacheEntryKind {
  kPositive,
  kNegativeNxDomain,
  kNegativeNoData,
};

struct CacheEntry {
  CacheEntryKind kind = CacheEntryKind::kPositive;
  RrSet records;  // Empty for negative entries.
  Time expiry = 0;
};

class DnsCache {
 public:
  // `stale_retention` > 0 keeps expired entries around for that long past
  // their expiry so they can be served via LookupStale (RFC 8767 serve-stale);
  // 0 restores the classic erase-on-expiry behaviour.
  explicit DnsCache(size_t max_entries = 1 << 20, Duration stale_retention = 0);

  // Returns the live entry for (name, type), or nullptr if absent/expired.
  // Expired entries past the stale-retention window are removed on access.
  // The pointer is valid only until the next cache operation (including
  // Lookup itself, which may erase): the flat table moves entries on any
  // mutation. Copy what you need before touching the cache again.
  const CacheEntry* Lookup(const Name& name, RecordType type, Time now);

  // Returns an *expired* entry for (name, type) whose expiry is within
  // `max_stale` of `now` (and within the retention window), or nullptr.
  // Fresh entries are returned too — callers use this as a fallback after
  // Lookup, so returning a still-live entry is never wrong.
  const CacheEntry* LookupStale(const Name& name, RecordType type, Time now,
                                Duration max_stale);

  void StorePositive(const Name& name, RecordType type, RrSet records, Time now);
  void StoreNegative(const Name& name, RecordType type, CacheEntryKind kind,
                     uint32_t ttl, Time now);

  size_t size() const { return entries_.size(); }
  size_t MemoryFootprint() const;
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t stale_hits() const { return stale_hits_; }

  // Removes entries expired beyond the stale-retention window (periodic
  // maintenance).
  void PurgeExpired(Time now);

 private:
  struct Key {
    Name name;
    RecordType type;
    bool operator==(const Key& other) const {
      return type == other.type && name == other.name;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.name.Hash() * 31 + static_cast<size_t>(k.type);
    }
  };

  // Makes room for `incoming` when the cache is full and the key is new.
  // The victim is the entry under a hand that steps through the table's
  // dense entry order, one position per eviction, wrapping at the end: O(1)
  // and a function of the operation sequence alone. An eviction moves the
  // last (newest) entry into the hole behind the hand, so with no other
  // erasures every entry present when the cache filled is evicted within
  // max_entries evictions, oldest position first.
  void EvictOneIfFull(const Key& incoming);

  size_t max_entries_;
  Duration stale_retention_;
  FlatMap<Key, CacheEntry, KeyHash> entries_;
  size_t evict_hand_ = 0;  // Dense index of the next eviction victim.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t stale_hits_ = 0;
};

}  // namespace dcc

#endif  // SRC_SERVER_CACHE_H_
