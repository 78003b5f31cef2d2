// SlotTable unit suite: ids that are never 0 and never handed out twice, stale ids
// (erased, or their slot reused) that find nothing, size() and ForEach over
// live entries only, destruction at erase, and a seeded differential test
// against std::unordered_map as the semantic reference (its tables grow
// through several doublings with live and dead slots).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/slot_table.h"

namespace dcc {
namespace {

TEST(SlotTable, EmplaceFindErase) {
  SlotTable<std::string> table;
  EXPECT_EQ(table.size(), 0u);
  auto [a, a_value] = table.emplace("alpha");
  EXPECT_EQ(a_value, "alpha");
  const uint64_t b = table.emplace("beta").first;
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(a), nullptr);
  EXPECT_EQ(*table.find(a), "alpha");
  EXPECT_EQ(table.at(b), "beta");
  EXPECT_TRUE(table.erase(a));
  EXPECT_FALSE(table.erase(a));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(a), nullptr);
  EXPECT_TRUE(table.contains(b));
}

TEST(SlotTable, StaleIdFindsNothingWhetherErasedOrReused) {
  SlotTable<int> table;
  const uint64_t erased = table.emplace(1).first;
  ASSERT_TRUE(table.erase(erased));
  EXPECT_FALSE(table.contains(erased));
  // The freed slot is reused first; the old id must not reach the new entry.
  const uint64_t reused = table.emplace(2).first;
  EXPECT_EQ(static_cast<uint32_t>(reused), static_cast<uint32_t>(erased)) << "same slot";
  EXPECT_NE(reused, erased);
  EXPECT_FALSE(table.contains(erased));
  EXPECT_EQ(table.find(erased), nullptr);
  EXPECT_FALSE(table.erase(erased));
  EXPECT_FALSE(table.Take(erased).has_value());
  EXPECT_EQ(table.at(reused), 2);
  // Ids past the slots ever used, or with a generation the slot never had.
  EXPECT_FALSE(table.contains(uint64_t{1} << 32 | 5));
  EXPECT_FALSE(table.contains(uint64_t{7} << 32 | static_cast<uint32_t>(reused)));
}

TEST(SlotTable, IdZeroIsNeverMintedAndNoIdTwice) {
  SlotTable<int> table;
  EXPECT_FALSE(table.contains(0));
  std::set<uint64_t> minted;
  std::vector<uint64_t> live;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    if (!live.empty() && rng.NextBelow(2) == 0) {
      const size_t k = rng.NextBelow(live.size());
      table.erase(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      const uint64_t id = table.emplace(i).first;
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(minted.insert(id).second) << "id " << id << " handed out twice";
      live.push_back(id);
    }
  }
  // A clear keeps the generations: ids minted afterwards are fresh too.
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(minted.insert(table.emplace(i).first).second);
  }
}

TEST(SlotTable, SizeAndForEachSeeLiveEntriesOnly) {
  SlotTable<int> table;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 40; ++i) {  // Past the first growth step.
    ids.push_back(table.emplace(i).first);
  }
  for (int i = 0; i < 40; i += 3) {
    table.erase(ids[i]);
  }
  std::multiset<int> seen;
  table.ForEach([&seen](const int& value) { seen.insert(value); });
  std::multiset<int> want;
  for (int i = 0; i < 40; ++i) {
    if (i % 3 != 0) {
      want.insert(i);
    }
  }
  EXPECT_EQ(seen, want);
  EXPECT_EQ(table.size(), want.size());
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(table.contains(ids[i]), i % 3 != 0) << i;
  }
}

TEST(SlotTable, EraseDestroysAValueWithAHeapMember) {
  auto tracked = std::make_shared<int>(7);
  SlotTable<std::shared_ptr<int>> table;
  const uint64_t id = table.emplace(tracked).first;
  const uint64_t other = table.emplace(tracked).first;
  EXPECT_EQ(tracked.use_count(), 3);
  table.erase(id);
  EXPECT_EQ(tracked.use_count(), 2) << "erase destroys the entry at once";
  std::optional<std::shared_ptr<int>> taken = table.Take(other);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(tracked.use_count(), 2) << "Take moves the entry out";
  taken.reset();
  EXPECT_EQ(tracked.use_count(), 1);
  {
    SlotTable<std::shared_ptr<int>> scoped;
    scoped.emplace(tracked);
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1) << "the table's destructor destroys live entries";
}

TEST(SlotTable, SeededOperationsMatchUnorderedMap) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    SlotTable<std::string> table;
    std::unordered_map<uint64_t, std::string> model;
    std::vector<uint64_t> known;  // Every id ever minted, live or not.
    for (int step = 0; step < 5000; ++step) {
      const uint64_t op = rng.NextBelow(10);
      if (op < 4 || known.empty()) {
        std::string value = "v" + std::to_string(step);
        const uint64_t id = table.emplace(value).first;
        ASSERT_EQ(model.count(id), 0u) << "seed " << seed << ": id minted twice";
        model.emplace(id, std::move(value));
        known.push_back(id);
      } else if (op < 7) {
        const uint64_t id = known[rng.NextBelow(known.size())];
        ASSERT_EQ(table.erase(id), model.erase(id) == 1) << "seed " << seed;
      } else if (op < 8) {
        const uint64_t id = known[rng.NextBelow(known.size())];
        const std::optional<std::string> taken = table.Take(id);
        auto it = model.find(id);
        ASSERT_EQ(taken.has_value(), it != model.end()) << "seed " << seed;
        if (taken.has_value()) {
          EXPECT_EQ(*taken, it->second);
          model.erase(it);
        }
      } else {
        const uint64_t id = known[rng.NextBelow(known.size())];
        const std::string* found = table.find(id);
        auto it = model.find(id);
        ASSERT_EQ(found != nullptr, it != model.end()) << "seed " << seed;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
      ASSERT_EQ(table.size(), model.size());
    }
    size_t visited = 0;
    table.ForEach([&](const std::string& value) {
      ++visited;
      EXPECT_NE(std::find_if(model.begin(), model.end(),
                             [&](const auto& entry) { return entry.second == value; }),
                model.end());
    });
    EXPECT_EQ(visited, model.size());
  }
}

}  // namespace
}  // namespace dcc
