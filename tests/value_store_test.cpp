// PackedValueStore tests: a seeded differential against a std::map model
// over inserts, updates, tombstones and revives, through table growth and
// arena compaction; every read must equal the model's.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/tombstone.h"
#include "core/value_store.h"
#include "seed_util.h"

namespace gem2::core {
namespace {

using testutil::SeedReporter;

/// The model: key -> live value, or std::nullopt for a tombstoned key.
using Model = std::map<Key, std::optional<std::string>>;

void ExpectMatches(const PackedValueStore& store, const Model& model) {
  uint64_t live = 0, live_bytes = 0;
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(store.Knows(key)) << key;
    EXPECT_EQ(store.IsTombstoned(key), !value.has_value()) << key;
    EXPECT_EQ(store.Contains(key), value.has_value()) << key;
    const std::optional<std::string_view> got = store.Get(key);
    ASSERT_EQ(got.has_value(), value.has_value()) << key;
    if (value.has_value()) {
      EXPECT_EQ(*got, *value) << key;
      ++live;
      live_bytes += value->size();
    }
  }
  EXPECT_EQ(store.size(), live);
  EXPECT_EQ(store.live_bytes(), live_bytes);
  uint64_t visited = 0;
  store.ForEachLive([&](Key key, std::string_view value) {
    ++visited;
    auto it = model.find(key);
    ASSERT_NE(it, model.end()) << key;
    ASSERT_TRUE(it->second.has_value()) << key;
    EXPECT_EQ(value, *it->second) << key;
  });
  EXPECT_EQ(visited, live);
}

std::string RandomValue(Rng& rng) {
  // Lengths 0..40 with every byte value, NULs and the tombstone payload's
  // bytes included.
  std::string v(rng.Uniform(0, 40), '\0');
  for (char& c : v) c = static_cast<char>(rng.Uniform(0, 255));
  return v;
}

TEST(PackedValueStore, EmptyStoreKnowsNothing) {
  const PackedValueStore store;
  EXPECT_FALSE(store.Knows(0));
  EXPECT_FALSE(store.Get(kKeyMin).has_value());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.capacity(), 0u);
}

TEST(PackedValueStore, TombstoneFreesBytesAndPutRevives) {
  PackedValueStore store;
  store.Put(kKeyMin, "lowest");
  store.Put(kKeyMax, "highest");
  store.Put(7, "");
  EXPECT_EQ(store.Get(7), std::optional<std::string_view>(""));
  store.Tombstone(kKeyMin);
  EXPECT_TRUE(store.IsTombstoned(kKeyMin));
  EXPECT_FALSE(store.Contains(kKeyMin));
  EXPECT_EQ(store.live_bytes(), 7u);
  store.Tombstone(kKeyMin);  // already tombstoned: no-op
  store.Tombstone(99);       // absent: no-op
  EXPECT_FALSE(store.Knows(99));
  store.Put(kKeyMin, TombstoneValue());
  EXPECT_EQ(store.Get(kKeyMin), std::optional<std::string_view>(TombstoneValue()));
  EXPECT_EQ(store.size(), 3u);
}

TEST(PackedValueStore, OversizedValueIsRejected) {
  PackedValueStore store;
  const std::string big(PackedValueStore::kMaxValueBytes + 1, 'x');
  EXPECT_THROW(store.Put(1, big), std::length_error);
  EXPECT_FALSE(store.Knows(1));
}

TEST(PackedValueStore, DifferentialAgainstMap) {
  SeedReporter seed(2707);
  Rng rng(seed);
  PackedValueStore store;
  Model model;
  std::vector<Key> keys;

  // Inserts past several doublings of the slot table, mixed with updates,
  // tombstones and revives. Keys are drawn from a small range half the time
  // so probe runs collide, and span the full signed range the rest.
  uint64_t grows = 0;
  for (int op = 0; op < 20'000; ++op) {
    const size_t capacity = store.capacity();
    const double dice = rng.NextDouble();
    if (dice < 0.45 || keys.empty()) {
      Key key;
      do {
        key = rng.NextDouble() < 0.5
                  ? static_cast<Key>(rng.Uniform(0, 50'000)) - 25'000
                  : static_cast<Key>(rng.engine()());
      } while (model.count(key) != 0);
      const std::string value = RandomValue(rng);
      store.Put(key, value);
      model[key] = value;
      keys.push_back(key);
    } else {
      const Key key = keys[rng.Uniform(0, keys.size() - 1)];
      if (dice < 0.75) {
        // Update a live key, or revive a tombstoned one.
        const std::string value = RandomValue(rng);
        store.Put(key, value);
        model[key] = value;
      } else {
        store.Tombstone(key);
        model[key] = std::nullopt;
      }
    }
    if (store.capacity() != capacity) ++grows;
    if (op % 2'500 == 0) ExpectMatches(store, model);
  }
  EXPECT_GE(grows, 8u);  // 16 slots up past 8,192
  EXPECT_GT(store.compactions(), 0u);
  ExpectMatches(store, model);
}

TEST(PackedValueStore, ForcedCompactionKeepsEveryValue) {
  SeedReporter seed(2708);
  Rng rng(seed);
  PackedValueStore store;
  Model model;
  for (Key k = 0; k < 200; ++k) {
    const std::string value(64, static_cast<char>('a' + k % 26));
    store.Put(k, value);
    model[k] = value;
  }
  ASSERT_EQ(store.compactions(), 0u);
  ASSERT_EQ(store.dead_bytes(), 0u);

  // Rewrite every key until the dead bytes pass both the live bytes and the
  // slot table's size, which must compact the arena.
  int rounds = 0;
  while (store.compactions() == 0) {
    ASSERT_LT(++rounds, 10);
    for (Key k = 0; k < 200; ++k) {
      const std::string value = RandomValue(rng) + std::to_string(rounds);
      store.Put(k, value);
      model[k] = value;
    }
  }
  EXPECT_LE(store.dead_bytes(), store.live_bytes() + store.capacity() * 16);
  ExpectMatches(store, model);

  // Tombstoning most keys frees their bytes and compacts again.
  const uint64_t before = store.compactions();
  for (Key k = 0; k < 180; ++k) {
    store.Tombstone(k);
    model[k] = std::nullopt;
  }
  for (Key k = 0; k < 180; ++k) {
    const std::string value = "again" + std::to_string(k);
    store.Put(k, value);
    model[k] = value;
  }
  EXPECT_GT(store.compactions(), before);
  ExpectMatches(store, model);
}

}  // namespace
}  // namespace gem2::core
