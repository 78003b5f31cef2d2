// FlatMap unit suite: unordered_map semantics over the dense layout
// (entries in one array, 8-byte robin-hood buckets over them), collision
// chains with backward-shift deletion, the last entry moving into an erased
// one's place, growth from the bucketless first step, copies and moves,
// dense iteration order, and seeded differential tests against
// std::unordered_map as the semantic reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"

namespace dcc {
namespace {

// MopiFq::MemoryFootprint charges sizeof(PoqState) per live queue, and
// PoqState embeds a FlatMap: a size change here moves dcc.peak_memory_bytes,
// the dcc_blowup search objective and the pinned Prometheus exports.
static_assert(sizeof(FlatMap<uint32_t, uint32_t>) == 56);
static_assert(sizeof(FlatMap<uint64_t, std::string>) == 56);

TEST(FlatMap, InsertFindErase) {
  FlatMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), map.end());

  map[1] = "one";
  map[2] = "two";
  auto [it, inserted] = map.emplace(3, "three");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "three");
  EXPECT_EQ(map.size(), 3u);

  EXPECT_TRUE(map.contains(2));
  EXPECT_EQ(map.count(2), 1u);
  EXPECT_EQ(map.at(2), "two");
  EXPECT_EQ(map.find(2)->second, "two");

  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_FALSE(map.contains(2));
  EXPECT_EQ(map.size(), 2u);

  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), map.end());
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<int, int> map;
  EXPECT_EQ(map[7], 0);
  map[7] += 5;
  EXPECT_EQ(map.at(7), 5);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, TryEmplaceKeepsExisting) {
  FlatMap<int, std::string> map;
  auto [it1, inserted1] = map.try_emplace(1, "first");
  EXPECT_TRUE(inserted1);
  auto [it2, inserted2] = map.try_emplace(1, "second");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "first");
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, InsertKeepsExistingEntry) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.insert({4, 40}).second);
  EXPECT_FALSE(map.insert({4, 99}).second);
  EXPECT_EQ(map.at(4), 40);
}

// Constant hash: every key lands in the same home bucket, forcing maximal
// robin-hood displacement chains; exercises backward-shift deletion. Tests
// keep fewer than 200 keys under it, so no probe distance can overflow.
struct CollidingHash {
  size_t operator()(int) const { return 42; }
};

TEST(FlatMap, CollisionChainSurvivesMiddleErase) {
  FlatMap<int, int, CollidingHash> map;
  for (int i = 0; i < 10; ++i) {
    map[i] = i * 100;
  }
  EXPECT_EQ(map.size(), 10u);
  // Erase from the middle of the probe chain; backward-shift must keep the
  // rest of the chain findable.
  EXPECT_EQ(map.erase(4), 1u);
  EXPECT_EQ(map.erase(7), 1u);
  for (int i = 0; i < 10; ++i) {
    if (i == 4 || i == 7) {
      EXPECT_FALSE(map.contains(i)) << i;
    } else {
      ASSERT_TRUE(map.contains(i)) << i;
      EXPECT_EQ(map.at(i), i * 100);
    }
  }
}

TEST(FlatMap, GrowthAcrossRehashes) {
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 5000; ++i) {
    map[i * 2654435761u] = i;
  }
  EXPECT_EQ(map.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(map.contains(i * 2654435761u)) << i;
    EXPECT_EQ(map.at(i * 2654435761u), i);
  }
}

TEST(FlatMap, ReserveAvoidsIncrementalRehash) {
  FlatMap<int, int> map;
  map.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    map[i] = i;
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(map.at(i), i);
  }
}

TEST(FlatMap, EraseIfSweep) {
  FlatMap<int, int> map;
  for (int i = 0; i < 100; ++i) {
    map[i] = i;
  }
  const size_t removed = map.EraseIf([](int key, int) { return key % 3 == 0; });
  EXPECT_EQ(removed, 34u);  // 0, 3, ..., 99.
  EXPECT_EQ(map.size(), 66u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(map.contains(i), i % 3 != 0) << i;
  }
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  FlatMap<int, int> map;
  for (int i = 0; i < 257; ++i) {
    map[i] = i;
  }
  std::vector<bool> seen(257, false);
  size_t visited = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, value);
    ASSERT_FALSE(seen[key]) << "duplicate visit of " << key;
    seen[key] = true;
    ++visited;
  }
  EXPECT_EQ(visited, 257u);
}

TEST(FlatMap, DeterministicIterationOrder) {
  // Same insertion/erasure sequence => same dense order, the property the
  // simulator's replay guarantees lean on wherever behaviour follows it.
  auto build = []() {
    FlatMap<uint64_t, int> map;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      map[rng.NextBelow(1000)] = i;
      if (i % 7 == 0) {
        map.erase(rng.NextBelow(1000));
      }
    }
    std::vector<uint64_t> keys;
    for (const auto& [key, value] : map) {
      keys.push_back(key);
    }
    return keys;
  };
  EXPECT_EQ(build(), build());
}

template <class Map>
std::vector<uint32_t> KeysInOrder(const Map& map) {
  std::vector<uint32_t> keys;
  for (const auto& [key, value] : map) {
    keys.push_back(key);
  }
  return keys;
}

// The map holds exactly `reference`, each key once.
template <class Map>
void ExpectSameContents(const Map& map,
                        const std::unordered_map<uint32_t, std::string>& reference,
                        const std::string& where) {
  ASSERT_EQ(map.size(), reference.size()) << where;
  std::vector<uint32_t> keys = KeysInOrder(map);
  std::sort(keys.begin(), keys.end());
  ASSERT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end()) << where;
  for (const auto& [key, value] : reference) {
    const auto it = map.find(key);
    ASSERT_TRUE(it != map.end()) << where << " key " << key;
    ASSERT_EQ(it->second, value) << where << " key " << key;
  }
}

// Random inserts (all four forms), erases, lookups, and rare predicate
// sweeps and clears over `key_range` keys, checked against unordered_map
// (after every operation while small, then every 50th). String values make
// a lost or doubled move visible to the sanitizers. Sets `*peak` to the
// largest size reached.
template <class Hash>
void RunDifferential(uint64_t seed, uint32_t key_range, int ops, size_t* peak) {
  FlatMap<uint32_t, std::string, Hash> map;
  std::unordered_map<uint32_t, std::string> reference;
  Rng rng(seed);
  *peak = 0;
  for (int op = 0; op < ops; ++op) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(key_range));
    const std::string value = "v" + std::to_string(op);
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    switch (rng.NextBelow(9)) {
      case 0:
        map[key] = value;
        reference[key] = value;
        break;
      case 1:
        ASSERT_EQ(map.emplace(key, value).second, reference.emplace(key, value).second)
            << where;
        break;
      case 2:
        ASSERT_EQ(map.try_emplace(key, value).second,
                  reference.try_emplace(key, value).second)
            << where;
        break;
      case 3:
        ASSERT_EQ(map.insert({key, value}).second, reference.insert({key, value}).second)
            << where;
        break;
      case 4:
      case 5:
        ASSERT_EQ(map.erase(key), reference.erase(key)) << where;
        break;
      case 6: {
        if (rng.NextBelow(20) != 0) {
          break;
        }
        const uint32_t mod = 2 + static_cast<uint32_t>(rng.NextBelow(6));
        const size_t removed =
            map.EraseIf([mod](uint32_t k, const std::string&) { return k % mod == 0; });
        const size_t expected = std::erase_if(
            reference, [mod](const auto& kv) { return kv.first % mod == 0; });
        ASSERT_EQ(removed, expected) << where;
        break;
      }
      case 7:
        if (rng.NextBelow(400) == 0) {
          map.clear();
          reference.clear();
        }
        break;
      default:
        ASSERT_EQ(map.contains(key), reference.contains(key)) << where;
        break;
    }
    *peak = std::max(*peak, map.size());
    if (reference.size() < 100 || op % 50 == 0 || op + 1 == ops) {
      ExpectSameContents(map, reference, where);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// Key ranges around the growth points: the bucketless first step (at most
// 12 entries), the first bucket arrays, and several doublings.
TEST(FlatMap, DifferentialUnderCollidingHashAcrossGrowth) {
  for (uint32_t range : {8u, 20u, 60u, 190u}) {
    size_t peak = 0;
    RunDifferential<CollidingHash>(range, range, 3000, &peak);
    EXPECT_GE(peak, range / 2) << range;
  }
}

TEST(FlatMap, DifferentialUnderRealHashAcrossGrowth) {
  for (uint32_t range : {8u, 20u, 60u, 400u, 5000u}) {
    size_t peak = 0;
    RunDifferential<std::hash<uint32_t>>(range + 1, range, 12000, &peak);
    EXPECT_GE(peak, range / 8) << range;  // 5000 keys: past 512 entries.
  }
}

template <class Hash>
void CheckEraseMovesLastEntry(uint32_t n) {
  FlatMap<uint32_t, std::string, Hash> map;
  for (uint32_t i = 0; i < n; ++i) {
    map[i] = std::to_string(i);
  }
  // Erasing the last entry moves nothing.
  EXPECT_EQ(map.erase(n - 1), 1u);
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(KeysInOrder(map), expected);
  // Erasing a middle entry moves the last one into its place; that entry's
  // bucket must now point there.
  EXPECT_EQ(map.erase(2), 1u);
  expected[2] = n - 2;
  expected.pop_back();
  EXPECT_EQ(KeysInOrder(map), expected);
  ASSERT_TRUE(map.contains(n - 2));
  EXPECT_EQ(map.at(n - 2), std::to_string(n - 2));
  EXPECT_EQ(map.find(n - 2) - map.begin(), 2);
  for (uint32_t i = 0; i + 2 < n; ++i) {
    EXPECT_EQ(map.contains(i), i != 2) << i;
  }
  // And erasing the moved entry again re-points the next last one.
  EXPECT_EQ(map.erase(n - 2), 1u);
  EXPECT_EQ(map.at(n - 3), std::to_string(n - 3));
  EXPECT_EQ(map.size(), static_cast<size_t>(n - 3));
}

TEST(FlatMap, EraseMovesTheLastEntryIntoTheHole) {
  for (uint32_t n : {6u, 12u, 13u, 40u, 150u}) {
    SCOPED_TRACE(n);
    CheckEraseMovesLastEntry<CollidingHash>(n);
    CheckEraseMovesLastEntry<std::hash<uint32_t>>(n);
  }
}

TEST(FlatMap, ClearThenReuse) {
  FlatMap<uint32_t, std::string> map;
  for (uint32_t i = 0; i < 100; ++i) {
    map[i] = "a";
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), map.end());
  EXPECT_EQ(map.erase(5), 0u);
  EXPECT_EQ(map.EraseIf([](uint32_t, const std::string&) { return true; }), 0u);
  std::unordered_map<uint32_t, std::string> reference;
  for (uint32_t i = 50; i < 250; ++i) {
    map[i] = "b" + std::to_string(i);
    reference[i] = "b" + std::to_string(i);
  }
  ExpectSameContents(map, reference, "after clear");
}

TEST(FlatMap, CopiesAndMovesAreIndependent) {
  for (uint32_t n : {5u, 50u}) {
    SCOPED_TRACE(n);
    FlatMap<uint32_t, std::string> original;
    std::unordered_map<uint32_t, std::string> reference;
    for (uint32_t i = 0; i < n; ++i) {
      original[i] = std::to_string(i);
      reference[i] = std::to_string(i);
    }
    FlatMap<uint32_t, std::string> copy(original);
    std::unordered_map<uint32_t, std::string> copy_reference = reference;
    // Mutate both: each must see only its own changes.
    for (uint32_t i = 0; i < n; i += 3) {
      original.erase(i);
      reference.erase(i);
      copy[i] = "copy";
      copy_reference[i] = "copy";
    }
    for (uint32_t i = n; i < 2 * n; ++i) {
      original[i] = "grown";
      reference[i] = "grown";
    }
    copy.erase(1);
    copy_reference.erase(1);
    ExpectSameContents(original, reference, "original");
    ExpectSameContents(copy, copy_reference, "copy");

    FlatMap<uint32_t, std::string> assigned;
    assigned[999] = "gone";
    assigned = copy;
    ExpectSameContents(assigned, copy_reference, "copy-assigned");

    FlatMap<uint32_t, std::string> moved(std::move(original));
    ExpectSameContents(moved, reference, "moved");
    EXPECT_TRUE(original.empty());  // NOLINT(bugprone-use-after-move)
    original[7] = "reused";         // A moved-from map is empty and usable.
    EXPECT_EQ(original.size(), 1u);
    EXPECT_EQ(original.at(7), "reused");
    moved[12345] = "after move";
    reference[12345] = "after move";
    ExpectSameContents(moved, reference, "moved then mutated");
  }
}

TEST(FlatMap, ReserveKeepsContentsAndOrder) {
  FlatMap<uint32_t, std::string> plain;
  FlatMap<uint32_t, std::string> reserved;
  reserved.reserve(5);
  for (uint32_t i = 0; i < 10; ++i) {
    plain[i * 7] = "x";
    reserved[i * 7] = "x";
  }
  reserved.reserve(3000);  // Rehash with entries present.
  for (uint32_t i = 10; i < 2000; ++i) {
    plain[i * 7] = "y";
    reserved[i * 7] = "y";
  }
  EXPECT_EQ(KeysInOrder(plain), KeysInOrder(reserved));
  for (uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(reserved.contains(i * 7)) << i;
  }
}

TEST(FlatMap, IterationOrderIgnoresTheHash) {
  // Dense order depends on the operation sequence alone, so two maps with
  // different hashes (and so different bucket layouts) iterate alike.
  FlatMap<uint32_t, int, CollidingHash> colliding;
  FlatMap<uint32_t, int> spread;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(150));
    if (rng.NextBelow(3) == 0) {
      EXPECT_EQ(colliding.erase(key), spread.erase(key));
    } else {
      colliding[key] = i;
      spread[key] = i;
    }
    ASSERT_EQ(KeysInOrder(colliding), KeysInOrder(spread)) << i;
  }
}

}  // namespace
}  // namespace dcc
