#include "src/server/cache.h"

#include <algorithm>

namespace dcc {
namespace {

// The memory model's charges per entry, in bytes. They are fixed model
// values, not sizeof() of the current layout, so that a layout change does
// not move the reported footprint (DESIGN.md §14).
constexpr size_t kEntryBytes = 112;   // Key, entry and two table words.
constexpr size_t kRecordBytes = 184;  // One cached record.

}  // namespace

DnsCache::DnsCache(size_t max_entries, Duration stale_retention)
    : max_entries_(std::max<size_t>(1, max_entries)), stale_retention_(stale_retention) {}

const CacheEntry* DnsCache::Lookup(const Name& name, RecordType type, Time now) {
  auto it = entries_.find(Key{name, type});
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second.expiry <= now) {
    // Expired: keep the body within the stale-retention window so a later
    // LookupStale can still serve it, but report a miss either way.
    if (it->second.expiry + stale_retention_ <= now) {
      entries_.erase(Key{name, type});
    }
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

const CacheEntry* DnsCache::LookupStale(const Name& name, RecordType type, Time now,
                                        Duration max_stale) {
  auto it = entries_.find(Key{name, type});
  if (it == entries_.end()) {
    return nullptr;
  }
  const Duration bound = std::min(max_stale, stale_retention_);
  if (it->second.expiry + bound <= now) {
    return nullptr;
  }
  ++stale_hits_;
  return &it->second;
}

void DnsCache::EvictOneIfFull(const Key& incoming) {
  if (entries_.size() < max_entries_ || entries_.contains(incoming)) {
    return;
  }
  if (evict_hand_ >= entries_.size()) {
    evict_hand_ = 0;
  }
  const Key victim = (entries_.begin() + static_cast<ptrdiff_t>(evict_hand_++))->first;
  entries_.erase(victim);
}

void DnsCache::StorePositive(const Name& name, RecordType type, RrSet records, Time now) {
  uint32_t ttl = 0;
  for (const auto& rr : records) {
    ttl = std::max(ttl, rr.ttl);
  }
  const Key key{name, type};
  EvictOneIfFull(key);
  CacheEntry& entry = entries_[key];
  entry.kind = CacheEntryKind::kPositive;
  entry.records = std::move(records);
  entry.expiry = now + static_cast<Duration>(ttl) * kSecond;
}

void DnsCache::StoreNegative(const Name& name, RecordType type, CacheEntryKind kind,
                             uint32_t ttl, Time now) {
  const Key key{name, type};
  EvictOneIfFull(key);
  CacheEntry& entry = entries_[key];
  entry.kind = kind;
  entry.records.clear();
  entry.expiry = now + static_cast<Duration>(ttl) * kSecond;
}

size_t DnsCache::MemoryFootprint() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    bytes += kEntryBytes + key.name.HeapBytes();
    for (const auto& rr : entry.records) {
      bytes += kRecordBytes + rr.name.HeapBytes();
    }
  }
  return bytes;
}

void DnsCache::PurgeExpired(Time now) {
  entries_.EraseIf([this, now](const Key&, const CacheEntry& entry) {
    return entry.expiry + stale_retention_ <= now;
  });
}

}  // namespace dcc
