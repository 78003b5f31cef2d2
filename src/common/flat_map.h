// Open-addressing hash map for the simulator's per-node tables.
//
// std::unordered_map allocates one node per entry and chases a pointer per
// probe; the hot tables (resolver pending/dedup, DCC channel state, cache
// index, upstream tracker) are hit on every simulated datagram, where that
// indirection dominates. FlatMap keeps its entries packed in one dense array
// and indexes them with a power-of-two array of 8-byte buckets, each holding
// a probe distance, an 8-bit fingerprint of the key's hash and the entry's
// index. Probing is robin-hood over the buckets. A key is compared only where
// the fingerprint matches, so a lookup that misses reads the bucket array and
// almost never an entry; a rehash re-places buckets and moves no entry
// between probe positions; an empty bucket costs 8 bytes, not an entry.
// Erase backward-shifts the buckets (no tombstones) and moves the last entry
// into the erased one's place, so the entries stay dense.
//
// Semantics and constraints (narrower than unordered_map, deliberately):
//  - Iterators and references are invalidated by ANY insert or erase, not
//    just rehash. Do not hold a reference across a mutation.
//  - Iteration walks the entry array: insertion order, except that each
//    erase moves the then-last entry into the erased one's place. That order
//    is a function of the insert/erase sequence alone (not of the hash), so
//    it is identical across runs and binaries, but it is not sorted and it
//    is not age order. Code whose behaviour depends on iteration order must
//    say so and choose its order on purpose (see DnsCache::EvictOneIfFull).
//  - EraseIf handles predicate sweeps, visiting size() entries; there is
//    intentionally no erase(iterator) (erase moves the last entry under a
//    live iterator, which a loop would then skip).
//
// Growth. The first step is a 12-entry array with no buckets, searched by
// scanning: many tables (a MOPI-FQ queue's per-source map, most per-node
// maps) never outgrow it, and for them a bucket array is an allocation and
// bytes that a scan of at most 12 keys does not need. The 13th entry brings
// 32 buckets; from then on the bucket count doubles whenever an insert would
// take the load past 3/4. The entry array is reserved in step (3/4 of the
// bucket count), so it is reallocated only when the buckets are: at most
// one allocation each per growth, and a copy keeps that reservation.
//
// The supplied hash is post-mixed with a splitmix64 finalizer, so identity
// hashes (libstdc++ integral std::hash) still spread across buckets; the low
// bits pick the home bucket and the top byte is the fingerprint.

#ifndef SRC_COMMON_FLAT_MAP_H_
#define SRC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace dcc {

template <class Key, class Value, class Hash = std::hash<Key>,
          class Eq = std::equal_to<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(const FlatMap& other) : buckets_(other.buckets_), mask_(other.mask_) {
    if (other.entries_.capacity() != 0) {
      entries_.reserve(EntryCapacity());
    }
    entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
  }
  FlatMap(FlatMap&&) noexcept = default;  // Leaves `other` empty.
  FlatMap& operator=(const FlatMap& other) { return *this = FlatMap(other); }
  FlatMap& operator=(FlatMap&&) noexcept = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void clear() {
    entries_.clear();
    std::fill(buckets_.begin(), buckets_.end(), Bucket{});
  }

  void reserve(size_t n) {
    if (n <= kSmallCapacity) {
      if (n != 0 && entries_.capacity() == 0) {
        entries_.reserve(EntryCapacity());
      }
      return;
    }
    size_t count = kFirstBuckets;
    while (MaxLoad(count) < n) {
      count <<= 1;
    }
    if (count > buckets_.size()) {
      Rehash(count);
    }
  }

  // --- iteration (dense order; see header comment) --------------------------

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  // --- lookup ---------------------------------------------------------------

  iterator find(const Key& key) { return begin() + static_cast<ptrdiff_t>(FindIndex(key)); }
  const_iterator find(const Key& key) const {
    return begin() + static_cast<ptrdiff_t>(FindIndex(key));
  }
  bool contains(const Key& key) const { return FindIndex(key) < entries_.size(); }
  size_t count(const Key& key) const { return contains(key) ? 1 : 0; }

  // Precondition: `key` is present (asserted; no exception fallback).
  Value& at(const Key& key) {
    const size_t index = FindIndex(key);
    assert(index < entries_.size());
    return entries_[index].second;
  }
  const Value& at(const Key& key) const {
    const size_t index = FindIndex(key);
    assert(index < entries_.size());
    return entries_[index].second;
  }

  // --- mutation -------------------------------------------------------------
  // Each insert builds the entry only when the key is absent; an existing
  // entry is kept untouched (unordered_map semantics).

  Value& operator[](const Key& key) { return entries_[FindOrAppend(key, key).first].second; }

  template <class K, class... Args>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args) {
    Key owned(std::forward<K>(key));
    return At(FindOrAppend(owned, std::move(owned), std::forward<Args>(args)...));
  }

  std::pair<iterator, bool> insert(value_type pair) {
    return At(FindOrAppend(pair.first, std::move(pair.first), std::move(pair.second)));
  }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    return At(FindOrAppend(key, key, std::forward<Args>(args)...));
  }

  // Erases `key` if present; returns the number of entries removed (0 or 1).
  size_t erase(const Key& key) {
    if (buckets_.empty()) {
      const size_t index = LinearFind(key);
      if (index == entries_.size()) {
        return 0;
      }
      RemoveEntry(index);
      return 1;
    }
    const size_t pos = FindBucket(key, HashOf(key));
    if (pos == kNone) {
      return 0;
    }
    EraseBucket(pos);
    return 1;
  }

  // Removes every entry matching `pred(key, value)`, visiting each entry
  // once in one pass over the entry array. Returns the number removed.
  template <class Pred>
  size_t EraseIf(Pred pred) {
    const size_t before = entries_.size();
    for (size_t i = 0; i < entries_.size();) {
      if (!pred(entries_[i].first, entries_[i].second)) {
        ++i;
      } else if (buckets_.empty()) {  // Either way the unvisited last entry
        RemoveEntry(i);               // moves to `i`.
      } else {
        EraseBucket(BucketOf(i));
      }
    }
    return before - entries_.size();
  }

 private:
  struct Bucket {
    uint32_t index = 0;       // Of the entry in entries_.
    uint8_t dist = 0;         // 0 = empty, else probe distance + 1.
    uint8_t fingerprint = 0;  // Top byte of the mixed hash.
  };
  static_assert(sizeof(Bucket) == 8);

  static constexpr size_t kSmallCapacity = 12;  // Entries without buckets.
  static constexpr size_t kFirstBuckets = 32;
  static constexpr uint8_t kMaxDist = 255;
  static constexpr size_t kNone = ~size_t{0};

  static constexpr size_t MaxLoad(size_t bucket_count) { return bucket_count / 4 * 3; }

  static uint64_t HashOf(const Key& key) {
    // splitmix64 finalizer over the supplied hash.
    uint64_t h = static_cast<uint64_t>(Hash{}(key)) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }
  static uint8_t FingerprintOf(uint64_t h) { return static_cast<uint8_t>(h >> 56); }

  // Entries the current step holds: 12 without buckets, else 3/4 of them.
  size_t EntryCapacity() const {
    return buckets_.empty() ? kSmallCapacity : MaxLoad(buckets_.size());
  }

  std::pair<iterator, bool> At(std::pair<size_t, bool> found) {
    return {begin() + static_cast<ptrdiff_t>(found.first), found.second};
  }

  // Index of `key`'s entry, or size() when absent (== end()).
  size_t FindIndex(const Key& key) const {
    if (buckets_.empty()) {
      return LinearFind(key);
    }
    const size_t pos = FindBucket(key, HashOf(key));
    return pos == kNone ? entries_.size() : buckets_[pos].index;
  }

  size_t LinearFind(const Key& key) const {
    size_t index = 0;
    while (index < entries_.size() && !Eq{}(entries_[index].first, key)) {
      ++index;
    }
    return index;
  }

  // Bucket of `key` (hashing to `h`), or kNone. Precondition: buckets exist.
  size_t FindBucket(const Key& key, uint64_t h) const {
    const uint8_t fingerprint = FingerprintOf(h);
    size_t pos = h & mask_;
    for (uint8_t dist = 1;; ++dist) {
      const Bucket& bucket = buckets_[pos];
      if (bucket.dist < dist) {  // Empty, or a richer entry: key is absent.
        return kNone;
      }
      if (bucket.dist == dist && bucket.fingerprint == fingerprint &&
          Eq{}(entries_[bucket.index].first, key)) {
        return pos;
      }
      pos = (pos + 1) & mask_;
    }
  }

  // Bucket pointing at entries_[index].
  size_t BucketOf(size_t index) const {
    size_t pos = HashOf(entries_[index].first) & mask_;
    while (buckets_[pos].dist == 0 || buckets_[pos].index != index) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  // Returns {index of key's entry, inserted}. When absent, appends the entry
  // built from `key_arg` and `args` (piecewise, like try_emplace).
  template <class K, class... Args>
  std::pair<size_t, bool> FindOrAppend(const Key& key, K&& key_arg, Args&&... args) {
    const bool had_buckets = !buckets_.empty();
    const uint64_t h = had_buckets ? HashOf(key) : 0;
    if (had_buckets) {
      if (const size_t pos = FindBucket(key, h); pos != kNone) {
        return {buckets_[pos].index, false};
      }
    } else if (const size_t index = LinearFind(key); index < entries_.size()) {
      return {index, false};
    }
    if (entries_.size() >= EntryCapacity()) {
      Rehash(buckets_.empty() ? kFirstBuckets : 2 * buckets_.size());
    } else if (entries_.capacity() == 0) {
      entries_.reserve(EntryCapacity());
    }
    const size_t index = entries_.size();
    entries_.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(std::forward<K>(key_arg)),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    if (!buckets_.empty() &&
        !Place(had_buckets ? h : HashOf(entries_[index].first), index)) {
      Rehash(buckets_.size() * 2);
    }
    return {index, true};
  }

  // Robin-hood insert of a bucket for entries_[index]. False (buckets left
  // half-shifted; the caller rehashes) if a probe distance would overflow,
  // which a reasonable hash below the 3/4 load cap never does.
  bool Place(uint64_t h, size_t index) {
    Bucket carry{static_cast<uint32_t>(index), 1, FingerprintOf(h)};
    size_t pos = h & mask_;
    while (true) {
      Bucket& bucket = buckets_[pos];
      if (bucket.dist == 0) {
        bucket = carry;
        return true;
      }
      if (bucket.dist < carry.dist) {  // Steal from the richer entry.
        std::swap(bucket, carry);
      }
      pos = (pos + 1) & mask_;
      if (++carry.dist == kMaxDist) {
        return false;
      }
    }
  }

  // Rebuilds the buckets at `count` and places every entry. The entry array
  // is reallocated only to reach this step's capacity, with explicit moves
  // (so a value whose move may throw is still moved, not copied).
  void Rehash(size_t count) {
    buckets_ = std::vector<Bucket>(count);
    mask_ = count - 1;
    if (entries_.capacity() < EntryCapacity()) {
      std::vector<value_type> grown;
      grown.reserve(EntryCapacity());
      for (value_type& entry : entries_) {
        grown.push_back(std::move(entry));
      }
      entries_ = std::move(grown);
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!Place(HashOf(entries_[i].first), i)) {
        Rehash(count * 2);
        return;
      }
    }
  }

  // Fills entries_[index] with the last entry (re-pointing its bucket) and
  // drops the last slot; the caller removes entries_[index]'s own bucket.
  void RemoveEntry(size_t index) {
    const size_t last = entries_.size() - 1;
    if (index != last) {
      if (!buckets_.empty()) {
        buckets_[BucketOf(last)].index = static_cast<uint32_t>(index);
      }
      entries_[index] = std::move(entries_[last]);
    }
    entries_.pop_back();
  }

  void EraseBucket(size_t pos) {
    RemoveEntry(buckets_[pos].index);
    for (size_t next = (pos + 1) & mask_; buckets_[next].dist > 1;
         pos = next, next = (next + 1) & mask_) {
      buckets_[pos] = buckets_[next];
      --buckets_[pos].dist;
    }
    buckets_[pos] = Bucket{};
  }

  // Empty while the table is in its first step (at most 12 entries, found
  // by scanning them); then a power of two, at most 3/4 loaded.
  std::vector<Bucket> buckets_;
  std::vector<value_type> entries_;  // Dense; capacity EntryCapacity().
  // buckets_.size() - 1 once allocated. Besides sparing the subtraction, it
  // keeps sizeof(FlatMap) at 56 bytes, which MopiFq::MemoryFootprint charges
  // per queue through sizeof(PoqState) (pinned in flat_map_test.cc).
  size_t mask_ = 0;
};

}  // namespace dcc

#endif  // SRC_COMMON_FLAT_MAP_H_
