// Unit tests for the resolver cache (src/server/cache): TTL expiry, negative
// entries, capacity eviction, and footprint accounting.

#include <gtest/gtest.h>

#include "src/server/cache.h"

namespace dcc {
namespace {

const Name& N(const char* text) {
  static Name name;
  name = *Name::Parse(text);
  return name;
}

TEST(DnsCacheTest, StoreAndLookupPositive) {
  DnsCache cache;
  cache.StorePositive(N("a.example"), RecordType::kA,
                      {MakeA(*Name::Parse("a.example"), 300, 0x01020304)}, 0);
  const CacheEntry* entry = cache.Lookup(N("a.example"), RecordType::kA, Seconds(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, CacheEntryKind::kPositive);
  ASSERT_EQ(entry->records.size(), 1u);
  EXPECT_EQ(entry->records[0].address(), 0x01020304u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DnsCacheTest, MissOnTypeAndName) {
  DnsCache cache;
  cache.StorePositive(N("a.example"), RecordType::kA,
                      {MakeA(*Name::Parse("a.example"), 300, 1)}, 0);
  EXPECT_EQ(cache.Lookup(N("a.example"), RecordType::kNs, 0), nullptr);
  EXPECT_EQ(cache.Lookup(N("b.example"), RecordType::kA, 0), nullptr);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DnsCacheTest, TtlExpiry) {
  DnsCache cache;
  cache.StorePositive(N("t.example"), RecordType::kA,
                      {MakeA(*Name::Parse("t.example"), 10, 1)}, 0);
  EXPECT_NE(cache.Lookup(N("t.example"), RecordType::kA, Seconds(9)), nullptr);
  EXPECT_EQ(cache.Lookup(N("t.example"), RecordType::kA, Seconds(10)), nullptr);
  // The expired entry was removed on access.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCacheTest, PositiveTtlIsMaxOfRrset) {
  DnsCache cache;
  cache.StorePositive(N("m.example"), RecordType::kA,
                      {MakeA(*Name::Parse("m.example"), 5, 1),
                       MakeA(*Name::Parse("m.example"), 50, 2)},
                      0);
  EXPECT_NE(cache.Lookup(N("m.example"), RecordType::kA, Seconds(30)), nullptr);
}

TEST(DnsCacheTest, NegativeEntries) {
  DnsCache cache;
  cache.StoreNegative(N("gone.example"), RecordType::kA,
                      CacheEntryKind::kNegativeNxDomain, 60, 0);
  cache.StoreNegative(N("empty.example"), RecordType::kTxt,
                      CacheEntryKind::kNegativeNoData, 60, 0);
  const CacheEntry* nx = cache.Lookup(N("gone.example"), RecordType::kA, Seconds(1));
  ASSERT_NE(nx, nullptr);
  EXPECT_EQ(nx->kind, CacheEntryKind::kNegativeNxDomain);
  EXPECT_TRUE(nx->records.empty());
  const CacheEntry* nodata =
      cache.Lookup(N("empty.example"), RecordType::kTxt, Seconds(1));
  ASSERT_NE(nodata, nullptr);
  EXPECT_EQ(nodata->kind, CacheEntryKind::kNegativeNoData);
}

TEST(DnsCacheTest, OverwriteReplacesEntry) {
  DnsCache cache;
  cache.StorePositive(N("o.example"), RecordType::kA,
                      {MakeA(*Name::Parse("o.example"), 300, 1)}, 0);
  cache.StoreNegative(N("o.example"), RecordType::kA,
                      CacheEntryKind::kNegativeNxDomain, 60, 0);
  const CacheEntry* entry = cache.Lookup(N("o.example"), RecordType::kA, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, CacheEntryKind::kNegativeNxDomain);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DnsCacheTest, CapacityEvictionKeepsBound) {
  constexpr int kMax = 16;
  DnsCache cache(/*max_entries=*/kMax);
  DnsCache twin(/*max_entries=*/kMax);
  auto name = [](int i) { return *Name::Parse("n" + std::to_string(i) + ".example"); };
  for (int i = 0; i < 100; ++i) {
    for (DnsCache* c : {&cache, &twin}) {
      c->StorePositive(name(i), RecordType::kA, {MakeA(name(i), 300, 1)}, 0);
      // Re-storing a present key evicts nothing.
      c->StorePositive(name(i), RecordType::kA, {MakeA(name(i), 300, 2)}, 0);
    }
    EXPECT_LE(cache.size(), static_cast<size_t>(kMax)) << i;
    EXPECT_NE(cache.Lookup(name(i), RecordType::kA, 0), nullptr) << "just stored " << i;
    if (i == kMax - 1) {
      EXPECT_NE(cache.Lookup(name(0), RecordType::kA, 0), nullptr);
    }
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kMax));
  // The victim rule is deterministic: same sequence, same survivors.
  size_t present = 0;
  for (int i = 0; i < 100; ++i) {
    const bool held = cache.Lookup(name(i), RecordType::kA, 0) != nullptr;
    EXPECT_EQ(held, twin.Lookup(name(i), RecordType::kA, 0) != nullptr) << i;
    present += held ? 1 : 0;
  }
  EXPECT_EQ(present, static_cast<size_t>(kMax));
  // Entries stored before the cache filled do not stay forever.
  for (int i = 0; i < kMax - 1; ++i) {
    EXPECT_EQ(cache.Lookup(name(i), RecordType::kA, 0), nullptr) << i;
  }
}

TEST(DnsCacheTest, PurgeExpiredSweeps) {
  DnsCache cache;
  for (int i = 0; i < 10; ++i) {
    const Name name = *Name::Parse("p" + std::to_string(i) + ".example");
    cache.StorePositive(name, RecordType::kA,
                        {MakeA(name, static_cast<uint32_t>(i < 5 ? 10 : 1000), 1)}, 0);
  }
  cache.PurgeExpired(Seconds(100));
  EXPECT_EQ(cache.size(), 5u);
}

TEST(DnsCacheTest, MemoryFootprintTracksContents) {
  DnsCache cache;
  const size_t empty = cache.MemoryFootprint();
  for (int i = 0; i < 50; ++i) {
    const Name name = *Name::Parse("f" + std::to_string(i) + ".example");
    cache.StorePositive(name, RecordType::kA, {MakeA(name, 300, 1)}, 0);
  }
  EXPECT_GT(cache.MemoryFootprint(), empty + 50 * 32);
}

TEST(DnsCacheTest, MemoryFootprintIsPinnedForFixedContents) {
  // The model charges fixed per-entry and per-record bytes, not sizeof(), so
  // this figure moves only when the model does: 112 per entry, 184 per
  // cached record, plus the heap blocks of names past the inline buffer.
  DnsCache cache;
  const Name long_name = *Name::Parse(
      "a-label-long-enough.to-push-this-name.past-the-inline-buffer.example");
  ASSERT_GT(long_name.HeapBytes(), 0u);
  cache.StorePositive(N("a.example"), RecordType::kA,
                      {MakeA(*Name::Parse("a.example"), 300, 0x01020304),
                       MakeA(*Name::Parse("a.example"), 300, 0x01020305)},
                      0);
  cache.StorePositive(long_name, RecordType::kNs,
                      {MakeNs(long_name, 300, *Name::Parse("ns.example"))}, 0);
  cache.StoreNegative(N("nx.example"), RecordType::kA, CacheEntryKind::kNegativeNxDomain, 60, 0);
  EXPECT_EQ(cache.MemoryFootprint(), 3 * 112 + 3 * 184 + 2 * long_name.HeapBytes());
  EXPECT_EQ(cache.MemoryFootprint(), 1026u);
}

TEST(DnsCacheTest, CaseInsensitiveKeys) {
  DnsCache cache;
  cache.StorePositive(N("MiXeD.Example"), RecordType::kA,
                      {MakeA(*Name::Parse("mixed.example"), 300, 7)}, 0);
  EXPECT_NE(cache.Lookup(N("mixed.EXAMPLE"), RecordType::kA, 1), nullptr);
}

}  // namespace
}  // namespace dcc
