// GEM2*-tree tests: upper-level routing, region-pruned queries (Algorithms
// 7-8), the shared P0, upper-level authentication, and gas comparisons
// against the plain GEM2-tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ads/verify.h"
#include "crypto/digest.h"
#include "deferred_roots_util.h"
#include "gem2/engine.h"
#include "gem2star/gem2star.h"

namespace gem2::gem2star {
namespace {

Hash Vh(Key k) { return crypto::ValueHash("value-" + std::to_string(k)); }

Gem2Options SmallOptions() {
  Gem2Options o;
  o.m = 2;
  o.smax = 8;
  o.fanout = 4;
  return o;
}

TEST(Gem2Star, RegionRouting) {
  Gem2StarEngine engine(SmallOptions(), {100, 200, 300});
  EXPECT_EQ(engine.num_regions(), 4u);
  EXPECT_EQ(engine.RegionOf(-5), 0u);
  EXPECT_EQ(engine.RegionOf(99), 0u);
  EXPECT_EQ(engine.RegionOf(100), 1u);
  EXPECT_EQ(engine.RegionOf(250), 2u);
  EXPECT_EQ(engine.RegionOf(300), 3u);
  EXPECT_EQ(engine.RegionOf(kKeyMax), 3u);
}

TEST(Gem2Star, RejectsUnsortedSplits) {
  EXPECT_THROW(Gem2StarEngine(SmallOptions(), {5, 5}), std::invalid_argument);
  EXPECT_THROW(Gem2StarEngine(SmallOptions(), {7, 3}), std::invalid_argument);
}

TEST(Gem2Star, NoSplitsDegeneratesToSingleRegion) {
  Gem2StarEngine engine(SmallOptions(), {});
  EXPECT_EQ(engine.num_regions(), 1u);
  for (Key k = 1; k <= 30; ++k) engine.Insert(k, Vh(k));
  engine.CheckInvariants();
  EXPECT_EQ(engine.size(), 30u);
}

TEST(Gem2Star, RegionsShareOneP0) {
  Gem2StarEngine engine(SmallOptions(), {500});
  // Fill both regions past Smax so both bulk into the shared P0.
  for (Key k = 1; k <= 40; ++k) engine.Insert(k, Vh(k));          // region 0
  for (Key k = 1000; k <= 1040; ++k) engine.Insert(k, Vh(k));     // region 1
  engine.CheckInvariants();
  EXPECT_GT(engine.p0().size(), 0u);
  EXPECT_EQ(engine.region_chain(0).bulked_to_p0() +
                engine.region_chain(1).bulked_to_p0(),
            engine.p0().size());
}

TEST(Gem2Star, QueryOnlyTouchesOverlappingRegions) {
  Gem2StarEngine engine(SmallOptions(), {100, 200, 300});
  for (Key k = 1; k <= 350; k += 7) engine.Insert(k, Vh(k));

  // A query inside [100, 200) must not produce answers for other regions.
  auto answers = engine.Query(120, 180).trees;
  for (const ads::TreeAnswer& a : answers) {
    if (a.label == "P0") continue;
    EXPECT_EQ(a.label.rfind("R1.", 0), 0u) << a.label;
  }
  EXPECT_EQ(engine.RegionsOverlapping(120, 180), (std::vector<size_t>{1}));
  EXPECT_EQ(engine.RegionsOverlapping(50, 250),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(Gem2Star, UpperLevelDigestBindsSplitPoints) {
  EXPECT_NE(UpperLevelDigest({1, 2, 3}), UpperLevelDigest({1, 2, 4}));
  EXPECT_NE(UpperLevelDigest({}), UpperLevelDigest({1}));
  Gem2StarEngine engine(SmallOptions(), {10, 20});
  auto digests = engine.Digests();
  ASSERT_FALSE(digests.empty());
  EXPECT_EQ(digests[0].label, "upper");
  EXPECT_EQ(digests[0].digest, UpperLevelDigest({10, 20}));
}

TEST(Gem2Star, UpdatesRouteThroughRegions) {
  Gem2StarEngine engine(SmallOptions(), {100});
  engine.Insert(50, Vh(50));
  engine.Insert(150, Vh(150));
  auto before = engine.Digests();
  engine.Update(150, crypto::ValueHash("new"));
  auto after = engine.Digests();
  EXPECT_NE(before, after);
  engine.CheckInvariants();
  EXPECT_THROW(engine.Update(151, Vh(151)), std::invalid_argument);
}

TEST(Gem2Star, ResultsMatchBruteForceAcrossManyRegions) {
  std::vector<Key> splits;
  for (Key s = 1000; s < 20'000; s += 1000) splits.push_back(s);
  Gem2StarEngine engine(SmallOptions(), splits);

  std::mt19937_64 rng(3);
  std::map<Key, Hash> truth;
  for (int i = 0; i < 1200; ++i) {
    Key k;
    do {
      k = static_cast<Key>(rng() % 20'000);
    } while (truth.count(k) != 0);
    engine.Insert(k, Vh(k));
    truth.emplace(k, Vh(k));
  }
  engine.CheckInvariants();

  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{
           {0, 20'000}, {2'500, 2'600}, {900, 4'100}, {19'999, 30'000}}) {
    size_t found = 0;
    for (const ads::TreeAnswer& a : engine.Query(lb, ub).trees) {
      for (const ads::Entry& e : a.result) {
        ASSERT_TRUE(truth.count(e.key));
        EXPECT_GE(e.key, lb);
        EXPECT_LE(e.key, ub);
        ++found;
      }
    }
    size_t expect = 0;
    for (const auto& [k, vh] : truth) {
      if (k >= lb && k <= ub) ++expect;
    }
    EXPECT_EQ(found, expect) << "[" << lb << "," << ub << "]";
  }
}

TEST(Gem2Star, UpdatedValuesFollowObjectsThroughEveryMigration) {
  // Region 0 gets updates on objects in the shared P0, in a middle partition
  // and in its P_max; inserts into both regions then merge those objects
  // downward and bulk them into P0. Contract and SP must agree throughout,
  // and a verified query must return the updated values.
  const std::vector<Key> splits = {10'000};
  Gem2StarContract contract("ads", SmallOptions(), splits);
  Gem2StarEngine mirror(SmallOptions(), splits);
  const gem2tree::PartitionChain& chain = mirror.region_chain(0);
  std::map<Key, std::string> values;
  std::vector<Key> region0_at_loc;  // region 0's key_at_loc[loc - 1]
  auto check = [&] {
    const std::vector<chain::DigestEntry> committed = contract.AuthenticatedDigests();
    ASSERT_EQ(committed, mirror.Digests());
    std::map<std::string, Hash> digest_of;
    for (const auto& d : committed) digest_of[d.label] = d.digest;
    const Key lb = values.begin()->first;
    const Key ub = values.rbegin()->first;
    std::map<Key, std::string> seen;
    for (const ads::TreeAnswer& answer : mirror.Query(lb, ub).trees) {
      ASSERT_TRUE(digest_of.count(answer.label)) << answer.label;
      std::vector<Object> objects;
      for (const ads::Entry& e : answer.result) {
        ASSERT_TRUE(values.count(e.key)) << e.key;
        EXPECT_EQ(e.value_hash, crypto::ValueHash(values.at(e.key))) << e.key;
        objects.push_back({e.key, values.at(e.key)});
        seen.emplace(e.key, values.at(e.key));
      }
      const auto outcome =
          ads::VerifyTreeVo(lb, ub, answer.vo, digest_of[answer.label], objects);
      EXPECT_TRUE(outcome.ok) << answer.label << ": " << outcome.error;
    }
    EXPECT_EQ(seen, values);
  };
  auto insert = [&](Key k) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    values[k] = "value-" + std::to_string(k);
    contract.Insert(k, crypto::ValueHash(values[k]), meter);
    mirror.Insert(k, crypto::ValueHash(values[k]));
    if (k < splits[0]) region0_at_loc.push_back(k);
  };
  auto update = [&](Key k, const std::string& tag) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    values[k] = tag + std::to_string(k);
    contract.Update(k, crypto::ValueHash(values[k]), meter);
    mirror.Update(k, crypto::ValueHash(values[k]));
  };
  auto partition_of = [&](Key k) {
    const auto it = std::find(region0_at_loc.begin(), region0_at_loc.end(), k);
    return chain.LocatePartition(
        static_cast<Loc>(it - region0_at_loc.begin()) + 1, nullptr);
  };

  Key next = 1;
  auto insert_pair = [&] {
    const Key k = (next++ * 37) % 1000 + 1;
    insert(k);           // region 0
    insert(20'000 + k);  // region 1
  };
  for (int i = 0; i < 30; ++i) insert_pair();
  const int max_p = static_cast<int>(chain.max_index());
  Key in_p0 = 0;
  Key in_middle = 0;
  for (Key k : region0_at_loc) {
    const int p = partition_of(k);
    if (p == 0 && in_p0 == 0) in_p0 = k;
    if (p > 0 && p < max_p && in_middle == 0) in_middle = k;
  }
  const Key in_pmax = region0_at_loc.back();
  ASSERT_NE(in_p0, 0);
  ASSERT_NE(in_middle, 0);
  ASSERT_EQ(partition_of(in_pmax), max_p);
  for (Key k : {in_p0, in_middle, in_pmax, Key{20'000} + in_p0}) update(k, "updated-");
  check();

  const uint64_t bulked_before = chain.bulked_to_p0();
  for (int i = 0; i < 200 && (partition_of(in_middle) != 0 ||
                              partition_of(in_pmax) != 0);
       ++i) {
    insert_pair();
    check();
  }
  ASSERT_EQ(partition_of(in_middle), 0);
  ASSERT_EQ(partition_of(in_pmax), 0);
  EXPECT_GT(chain.bulked_to_p0(), bulked_before);

  for (Key k : {in_p0, in_middle, in_pmax}) update(k, "again-");
  check();
  mirror.CheckInvariants();
}

TEST(Gem2Star, MirrorKeyIndexesSurviveP0Migrations) {
  // Each region chain keeps its own flat key index while every region bulks
  // into the one shared P0: every key is found, a duplicate insert of a
  // migrated or a partition key and an unknown-key update throw, and updates
  // in P0 and in the partitions keep the mirror's digests equal to the
  // contract's.
  const std::vector<Key> splits = {-200'000, 0, 200'000};
  Gem2StarContract contract("ads", SmallOptions(), splits);
  Gem2StarEngine mirror(SmallOptions(), splits);
  std::mt19937_64 rng(43);
  std::vector<std::vector<Key>> region_keys(splits.size() + 1);  // [r][loc - 1]
  std::vector<uint64_t> migrations(region_keys.size(), 0);
  for (int i = 0; i < 600; ++i) {
    Key k;
    do {
      k = static_cast<Key>(rng() % 1'000'000) - 500'000;
    } while (mirror.Contains(k));
    const size_t r = mirror.RegionOf(k);
    const uint64_t bulked = mirror.region_chain(r).bulked_to_p0();
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    contract.Insert(k, Vh(k), meter);
    mirror.Insert(k, Vh(k));
    region_keys[r].push_back(k);
    if (mirror.region_chain(r).bulked_to_p0() != bulked) ++migrations[r];
  }
  for (size_t r = 0; r < region_keys.size(); ++r) {
    const gem2tree::PartitionChain& chain = mirror.region_chain(r);
    const std::vector<Key>& keys = region_keys[r];
    ASSERT_GE(migrations[r], 3u) << "region " << r;
    ASSERT_GT(chain.bulked_to_p0(), 0u) << "region " << r;
    ASSERT_LT(chain.bulked_to_p0(), keys.size()) << "region " << r;
    for (const Key k : keys) EXPECT_TRUE(mirror.Contains(k)) << k;
    EXPECT_EQ(chain.LocatePartition(1, nullptr), 0) << "region " << r;
    EXPECT_NE(chain.LocatePartition(keys.size(), nullptr), 0) << "region " << r;
    EXPECT_THROW(mirror.Insert(keys.front(), Vh(1)), std::invalid_argument);
    EXPECT_THROW(mirror.Insert(keys.back(), Vh(1)), std::invalid_argument);
  }
  EXPECT_FALSE(mirror.Contains(500'000));
  EXPECT_THROW(mirror.Update(500'000, Vh(1)), std::invalid_argument);
  EXPECT_EQ(mirror.size(), 600u);
  ASSERT_EQ(mirror.Digests(), contract.CommittedDigests());

  uint64_t p0_updates = 0;
  uint64_t partition_updates = 0;
  for (int i = 0; i < 300; ++i) {
    const size_t r = rng() % region_keys.size();
    const size_t at = rng() % region_keys[r].size();
    const bool in_p0 = at < mirror.region_chain(r).bulked_to_p0();
    (in_p0 ? p0_updates : partition_updates)++;
    const Hash vh = crypto::ValueHash("u" + std::to_string(i));
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    contract.Update(region_keys[r][at], vh, meter);
    mirror.Update(region_keys[r][at], vh);
    ASSERT_EQ(mirror.Digests(), contract.CommittedDigests()) << "update " << i;
  }
  EXPECT_GT(p0_updates, 0u);
  EXPECT_GT(partition_updates, 0u);
  mirror.CheckInvariants();
  contract.CheckInvariants();
}

TEST(Gem2StarGas, CheaperThanPlainGem2OnUniformKeys) {
  // Section VI-A: the two-level split yields additional gas savings.
  Gem2Options options;
  options.m = 8;
  options.smax = 256;

  std::vector<Key> splits;
  for (Key s = 100'000; s < 1'000'000; s += 100'000) splits.push_back(s);

  Gem2StarContract star("star", options, splits);
  gem2tree::Gem2Contract plain("plain", options);

  std::mt19937_64 rng(17);
  uint64_t star_gas = 0;
  uint64_t plain_gas = 0;
  for (int i = 0; i < 4000; ++i) {
    Key k;
    do {
      k = static_cast<Key>(rng() % 1'000'000);
    } while (star.engine().Contains(k));
    gas::Meter m1(gas::kEthereumSchedule, 1ull << 60);
    star.Insert(k, Vh(k), m1);
    star_gas += m1.used();
    gas::Meter m2(gas::kEthereumSchedule, 1ull << 60);
    plain.Insert(k, Vh(k), m2);
    plain_gas += m2.used();
  }
  EXPECT_LT(star_gas, plain_gas);
}

TEST(Gem2StarGas, UpperLevelLookupChargesLogRegions) {
  std::vector<Key> splits;
  for (Key s = 1; s <= 127; ++s) splits.push_back(s * 100);  // 128 regions
  Gem2StarEngine engine(SmallOptions(), splits, nullptr);
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  engine.RegionOf(650, &meter);
  EXPECT_EQ(meter.op_counts().sload, 7u);  // ceil(log2(127)) = 7
}

// --- Deferred partition roots ------------------------------------------------
//
// As in gem2_test: every region chain defers its partition roots to the first
// observation, and the goldens were captured as there.

TEST(Gem2StarDeferredRoots, OwnerMixMatchesEagerGoldens) {
  Gem2StarContract contract("ads", SmallOptions(), {250'000, 500'000, 750'000});
  const testutil::OwnerMixOutcome out = testutil::RunOwnerMix(contract, 0x2a, 400);
  EXPECT_EQ(out.blocks, 60u);
  EXPECT_EQ(out.receipts, 15183070480807191977ull);
  EXPECT_EQ(out.committed, 11894089468396433737ull);
  EXPECT_EQ(out.spans, 6866309563511305266ull);
  contract.engine().CheckInvariants();
}

TEST(Gem2StarDeferredRoots, ObservedRootSlotsHoldTreeRoots) {
  Gem2StarContract contract("ads", SmallOptions(), {500});
  chain::Environment env({.gas_limit = 1ull << 60, .txs_per_block = 1000});
  env.Register(&contract);
  for (int round = 0; round < 4; ++round) {
    for (Key i = 0; i < 30; ++i) {
      const Key k = round * 1000 + i * 37 % 1000;
      env.Execute(contract, "insert",
                  [&](gas::Meter& m) { contract.Insert(k, Vh(k), m); });
    }
    size_t pending = 0;
    for (size_t r = 0; r < 2; ++r) {
      pending += testutil::PendingRootSlots(contract.engine().region_chain(r));
    }
    EXPECT_GT(pending, 0u) << "round " << round;
    contract.engine().CheckInvariants();
    (void)env.ReadAuthenticatedState("ads");
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(testutil::PendingRootSlots(contract.engine().region_chain(r)), 0u)
          << "round " << round << " region " << r;
    }
    EXPECT_EQ(contract.CommittedDigests(), contract.AuthenticatedDigests());
  }
}

}  // namespace
}  // namespace gem2::gem2star
