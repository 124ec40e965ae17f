// GEM2-tree tests: Algorithms 1-4 (insert, merge, update, LocatePartition),
// the partition structure against the paper's worked example, contract/SP
// digest agreement, gas behaviour, and structural property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ads/verify.h"
#include "crypto/digest.h"
#include "deferred_roots_util.h"
#include "gem2/engine.h"
#include "workload/workload.h"

namespace gem2::gem2tree {
namespace {

Hash Vh(Key k) { return crypto::ValueHash("value-" + std::to_string(k)); }

Gem2Options SmallOptions(uint64_t m = 2, uint64_t smax = 16) {
  Gem2Options o;
  o.m = m;
  o.smax = smax;
  o.fanout = 4;
  return o;
}

// --- The paper's worked example (Fig. 4 / Fig. 5, M = 2) ---------------------

TEST(Gem2PaperExample, PartitionLayoutAfter16Inserts) {
  // Fig. 4: 16 objects inserted; partitions P1=[1,8], P2=[9,12],
  // P3=[13,14]+[15,16].
  Gem2Engine engine(SmallOptions(2, 1024));
  const Key keys[] = {68, 32, 62, 17, 13, 82, 91, 35, 26, 18, 38, 43, 24, 4, 16, 75};
  for (Key k : keys) engine.Insert(k, Vh(k));
  engine.CheckInvariants();

  const PartitionChain& chain = engine.partition_chain();
  EXPECT_EQ(chain.max_index(), 3u);

  auto p1 = chain.tree_info(1, true);
  EXPECT_EQ(p1.start, 1u);
  EXPECT_EQ(p1.end, 8u);
  EXPECT_EQ(chain.tree_info(1, false).start, 0u);  // P1.Tr empty

  auto p2 = chain.tree_info(2, true);
  EXPECT_EQ(p2.start, 9u);
  EXPECT_EQ(p2.end, 12u);
  EXPECT_EQ(chain.tree_info(2, false).start, 0u);  // P2.Tr empty

  auto p3l = chain.tree_info(3, true);
  auto p3r = chain.tree_info(3, false);
  EXPECT_EQ(p3l.start, 13u);
  EXPECT_EQ(p3l.end, 14u);
  EXPECT_EQ(p3r.start, 15u);
  EXPECT_EQ(p3r.end, 16u);
}

TEST(Gem2PaperExample, MergeAfterInserting17thObject) {
  // Fig. 5: inserting key 10 merges P3 into P2's free right slot and opens a
  // new P3 = [17,18] + [19,20]; key 89 then joins P3.Tl.
  Gem2Engine engine(SmallOptions(2, 1024));
  const Key keys[] = {68, 32, 62, 17, 13, 82, 91, 35, 26, 18, 38, 43, 24, 4, 16, 75};
  for (Key k : keys) engine.Insert(k, Vh(k));
  engine.Insert(10, Vh(10));
  engine.CheckInvariants();

  const PartitionChain& chain = engine.partition_chain();
  EXPECT_EQ(chain.max_index(), 3u);
  auto p2r = chain.tree_info(2, false);
  EXPECT_EQ(p2r.start, 13u);
  EXPECT_EQ(p2r.end, 16u);
  auto p3l = chain.tree_info(3, true);
  EXPECT_EQ(p3l.start, 17u);
  EXPECT_EQ(p3l.end, 18u);
  EXPECT_EQ(p3l.occupied, 1u);
  EXPECT_EQ(chain.tree_info(3, false).start, 19u);

  engine.Insert(89, Vh(89));
  EXPECT_EQ(chain.tree_info(3, true).occupied, 2u);
  engine.CheckInvariants();
}

TEST(Gem2PaperExample, LocatePartitionMatchesPaperTrace) {
  // Section V-B: with the Fig. 4 layout, location 9 resolves to P2 via the
  // mod arithmetic (16 mod 4 = 0 -> P3 spans [13,16]; 12 mod 8 != 0 -> P2
  // spans [9,12]).
  Gem2Engine engine(SmallOptions(2, 1024));
  const Key keys[] = {68, 32, 62, 17, 13, 82, 91, 35, 26, 18, 38, 43, 24, 4, 16, 75};
  for (Key k : keys) engine.Insert(k, Vh(k));
  const PartitionChain& chain = engine.partition_chain();
  EXPECT_EQ(chain.LocatePartition(9, nullptr), 2);
  EXPECT_EQ(chain.LocatePartition(1, nullptr), 1);
  EXPECT_EQ(chain.LocatePartition(8, nullptr), 1);
  EXPECT_EQ(chain.LocatePartition(12, nullptr), 2);
  EXPECT_EQ(chain.LocatePartition(13, nullptr), 3);
  EXPECT_EQ(chain.LocatePartition(16, nullptr), 3);
}

// --- Merging and bulk-to-P0 ---------------------------------------------------

TEST(Gem2, BulkInsertsToP0WhenLargestPartitionFull) {
  // With M=2 and Smax=8, P1 reaching 8 objects must migrate into P0.
  Gem2Engine engine(SmallOptions(2, 8));
  for (Key k = 1; k <= 50; ++k) {
    engine.Insert(k * 3, Vh(k * 3));
    engine.CheckInvariants();
  }
  EXPECT_GT(engine.p0().size(), 0u);
  EXPECT_EQ(engine.p0().size() + engine.partition_chain().partition_size(), 50u);
}

TEST(Gem2, UpdatesReachP0Objects) {
  Gem2Engine engine(SmallOptions(2, 8));
  for (Key k = 1; k <= 60; ++k) engine.Insert(k, Vh(k));
  ASSERT_GT(engine.p0().size(), 0u);

  // Key 1 migrated to P0 long ago; update must route there (Algorithm 3/4).
  Hash p0_before = engine.p0().root_digest();
  engine.Update(1, crypto::ValueHash("new"));
  EXPECT_NE(engine.p0().root_digest(), p0_before);
  engine.CheckInvariants();
}

TEST(Gem2, UpdatesRebuildPartitionTrees) {
  Gem2Engine engine(SmallOptions(2, 1024));
  for (Key k = 1; k <= 10; ++k) engine.Insert(k, Vh(k));
  auto before = engine.Digests();
  engine.Update(10, crypto::ValueHash("new"));
  auto after = engine.Digests();
  EXPECT_NE(before, after);
  engine.CheckInvariants();
}

TEST(Gem2, RejectsDuplicateInsertAndUnknownUpdate) {
  Gem2Engine engine(SmallOptions());
  engine.Insert(5, Vh(5));
  EXPECT_THROW(engine.Insert(5, Vh(5)), std::invalid_argument);
  EXPECT_THROW(engine.Update(6, Vh(6)), std::invalid_argument);
}

// --- Property sweeps -----------------------------------------------------------

struct SweepParam {
  uint64_t m;
  uint64_t smax;
  size_t ops;
  uint64_t seed;
};

class Gem2Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Gem2Sweep, InvariantsAndQueriesUnderRandomOps) {
  const SweepParam p = GetParam();
  Gem2Options options = SmallOptions(p.m, p.smax);
  Gem2Engine engine(options);

  std::mt19937_64 rng(p.seed);
  std::map<Key, Hash> truth;
  std::vector<Key> keys;
  for (size_t i = 0; i < p.ops; ++i) {
    const bool update = !keys.empty() && rng() % 4 == 0;
    if (update) {
      Key k = keys[rng() % keys.size()];
      Hash vh = crypto::ValueHash("u" + std::to_string(i));
      engine.Update(k, vh);
      truth[k] = vh;
    } else {
      Key k;
      do {
        k = static_cast<Key>(rng() % 1'000'000);
      } while (truth.count(k) != 0);
      Hash vh = Vh(k);
      engine.Insert(k, vh);
      truth.emplace(k, vh);
      keys.push_back(k);
    }
  }
  engine.CheckInvariants();

  // Every tree answer must verify against its digest, and the union of
  // results must equal the brute-force filter.
  std::map<std::string, Hash> digest_of;
  for (const auto& d : engine.Digests()) digest_of[d.label] = d.digest;

  const Key lb = 100'000;
  const Key ub = 700'000;
  size_t found = 0;
  for (const ads::TreeAnswer& answer : engine.Query(lb, ub)) {
    ASSERT_TRUE(digest_of.count(answer.label)) << answer.label;
    std::vector<Object> objects;
    std::map<Key, Hash> seen;
    for (const ads::Entry& e : answer.result) {
      objects.push_back({e.key, ""});
      seen[e.key] = e.value_hash;
    }
    // VerifyTreeVo recomputes value hashes from raw objects; here we check
    // against the entry hashes directly by faking consistent payloads.
    // Instead, validate result-hash correctness against the truth map.
    for (const auto& [k, vh] : seen) {
      ASSERT_TRUE(truth.count(k));
      EXPECT_EQ(truth[k], vh);
      EXPECT_GE(k, lb);
      EXPECT_LE(k, ub);
    }
    found += answer.result.size();
  }
  size_t expect = 0;
  for (const auto& [k, vh] : truth) {
    if (k >= lb && k <= ub) ++expect;
  }
  EXPECT_EQ(found, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Gem2Sweep,
    ::testing::Values(SweepParam{1, 2, 120, 1}, SweepParam{2, 8, 300, 2},
                      SweepParam{2, 16, 500, 3}, SweepParam{4, 32, 800, 4},
                      SweepParam{8, 64, 1500, 5}, SweepParam{8, 2048, 1200, 6},
                      SweepParam{3, 24, 700, 7}),
    [](const auto& info) {
      return "M" + std::to_string(info.param.m) + "Smax" +
             std::to_string(info.param.smax) + "Ops" +
             std::to_string(info.param.ops);
    });

TEST(Gem2, LocatePartitionAgreesWithBruteForceAcrossGrowth) {
  Gem2Options options = SmallOptions(2, 32);
  Gem2Engine engine(options);
  const PartitionChain& chain = engine.partition_chain();
  for (Key k = 1; k <= 400; ++k) {
    engine.Insert(k * 7, Vh(k * 7));
    // Brute force: find the partition whose range holds each loc.
    for (Loc loc = 1; loc <= chain.total_inserted(); ++loc) {
      int expect = 0;
      for (uint64_t i = 1; i <= chain.max_index(); ++i) {
        for (bool left : {true, false}) {
          auto info = chain.tree_info(i, left);
          if (info.start != 0 && loc >= info.start && loc <= info.end) {
            expect = static_cast<int>(i);
          }
        }
      }
      ASSERT_EQ(chain.LocatePartition(loc, nullptr), expect)
          << "loc " << loc << " after " << k << " inserts";
    }
  }
}

// --- Contract vs SP and gas ----------------------------------------------------

TEST(Gem2, ContractAndMirrorStayIdentical) {
  Gem2Options options = SmallOptions(2, 16);
  Gem2Contract contract("ads", options);
  Gem2Engine mirror(options);

  std::mt19937_64 rng(11);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    if (!keys.empty() && rng() % 3 == 0) {
      Key k = keys[rng() % keys.size()];
      Hash vh = crypto::ValueHash("u" + std::to_string(i));
      contract.Update(k, vh, meter);
      mirror.Update(k, vh);
    } else {
      Key k;
      do {
        k = static_cast<Key>(rng() % 100'000);
      } while (mirror.Contains(k));
      contract.Insert(k, Vh(k), meter);
      mirror.Insert(k, Vh(k));
      keys.push_back(k);
    }
    ASSERT_EQ(contract.AuthenticatedDigests(), mirror.Digests()) << "op " << i;
  }
}

// --- Value mirror across migrations -------------------------------------------

/// Queries [lb, ub] on the SP, verifies every tree answer against `committed`,
/// and checks that exactly the objects of `values` in range come back, each
/// with its latest value.
void ExpectVerifiedValues(const Gem2Engine& sp,
                          const std::vector<chain::DigestEntry>& committed,
                          const std::map<Key, std::string>& values) {
  std::map<std::string, Hash> digest_of;
  for (const auto& d : committed) digest_of[d.label] = d.digest;
  const Key lb = values.begin()->first;
  const Key ub = values.rbegin()->first;
  std::map<Key, std::string> seen;
  for (const ads::TreeAnswer& answer : sp.Query(lb, ub)) {
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
}

TEST(Gem2, UpdatedValuesFollowObjectsThroughEveryMigration) {
  // Updates land on objects in P0, in a middle partition and in P_max; more
  // inserts then merge the partition ones downward and bulk them into P0. The
  // value mirror is indexed by location, so every rebuild along the way must
  // read the updated hash, on the contract and on the SP alike.
  const Gem2Options options = SmallOptions(2, 16);
  Gem2Contract contract("ads", options);
  Gem2Engine mirror(options);
  const PartitionChain& chain = mirror.partition_chain();
  std::map<Key, std::string> values;
  std::vector<Key> key_at_loc;  // key_at_loc[loc - 1]
  auto check = [&] {
    ASSERT_EQ(contract.AuthenticatedDigests(), mirror.Digests());
    ExpectVerifiedValues(mirror, contract.AuthenticatedDigests(), values);
  };
  auto insert = [&](Key k) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    values[k] = "value-" + std::to_string(k);
    contract.Insert(k, crypto::ValueHash(values[k]), meter);
    mirror.Insert(k, crypto::ValueHash(values[k]));
    key_at_loc.push_back(k);
  };
  auto update = [&](Key k, const std::string& tag) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    values[k] = tag + std::to_string(k);
    contract.Update(k, crypto::ValueHash(values[k]), meter);
    mirror.Update(k, crypto::ValueHash(values[k]));
  };
  auto partition_of = [&](Key k) {
    const auto it = std::find(key_at_loc.begin(), key_at_loc.end(), k);
    return chain.LocatePartition(static_cast<Loc>(it - key_at_loc.begin()) + 1,
                                 nullptr);
  };

  Key next = 1;
  auto fresh_key = [&] { return (next++ * 37) % 1000 + 1; };
  for (int i = 0; i < 40; ++i) insert(fresh_key());
  const int max_p = static_cast<int>(chain.max_index());
  Key in_p0 = 0;
  Key in_middle = 0;
  for (Key k : key_at_loc) {
    const int p = partition_of(k);
    if (p == 0 && in_p0 == 0) in_p0 = k;
    if (p > 0 && p < max_p && in_middle == 0) in_middle = k;
  }
  const Key in_pmax = key_at_loc.back();
  ASSERT_NE(in_p0, 0);
  ASSERT_NE(in_middle, 0);
  ASSERT_EQ(partition_of(in_pmax), max_p);
  for (Key k : {in_p0, in_middle, in_pmax}) update(k, "updated-");
  check();

  // Insert until both partition-resident updates have been bulked into P0,
  // checking after every merge cascade on the way.
  const uint64_t bulked_before = chain.bulked_to_p0();
  for (int i = 0; i < 400 && (partition_of(in_middle) != 0 ||
                              partition_of(in_pmax) != 0);
       ++i) {
    insert(fresh_key());
    check();
  }
  ASSERT_EQ(partition_of(in_middle), 0);
  ASSERT_EQ(partition_of(in_pmax), 0);
  EXPECT_GT(chain.bulked_to_p0(), bulked_before);

  for (Key k : {in_p0, in_middle, in_pmax}) update(k, "again-");
  check();
  mirror.CheckInvariants();
}

TEST(Gem2Gas, InsertChargesStorageWrites) {
  Gem2Options options;
  options.m = 8;
  options.smax = 2048;
  Gem2Contract contract("ads", options);
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  contract.Insert(42, Vh(42), meter);
  // Algorithm 1 lines 1-4: key_map, key_storage, value_storage are fresh
  // sstores; partition bootstrap adds the part_table entries.
  EXPECT_GE(meter.op_counts().sstore, 3u);
  EXPECT_GT(meter.op_counts().hash_calls, 0u);
}

TEST(Gem2Gas, UpdateInSmallPartitionIsCheap) {
  Gem2Options options;
  options.m = 8;
  options.smax = 2048;
  Gem2Contract contract("ads", options);
  for (Key k = 1; k <= 20; ++k) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    contract.Insert(k, Vh(k), meter);
  }
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  contract.Update(20, crypto::ValueHash("nv"), meter);
  // An update rebuilds one small SMB-tree: no sstores, bounded sloads.
  EXPECT_EQ(meter.op_counts().sstore, 0u);
  EXPECT_LT(meter.used(), 50'000u);
}

TEST(Gem2Gas, AmortizedInsertMuchCheaperThanMbTree) {
  Gem2Options options;
  options.m = 8;
  options.smax = 512;
  Gem2Contract gem2("gem2", options);
  mbtree::MbTree mb(4);

  uint64_t gem2_gas = 0;
  uint64_t mb_gas = 0;
  std::mt19937_64 rng(13);
  for (int i = 0; i < 3000; ++i) {
    Key k;
    do {
      k = static_cast<Key>(rng() % 10'000'000);
    } while (gem2.engine().Contains(k));
    gas::Meter m1(gas::kEthereumSchedule, 1ull << 60);
    gem2.Insert(k, Vh(k), m1);
    gem2_gas += m1.used();
    gas::Meter m2(gas::kEthereumSchedule, 1ull << 60);
    mb.Insert(k, Vh(k), &m2);
    mb_gas += m2.used();
  }
  EXPECT_LT(gem2_gas * 2, mb_gas);  // at least 2x cheaper at this small scale
}

// --- Owner state bounded by the partitions --------------------------------------

TEST(Gem2, OwnerStateShrinksToThePartitionsAcrossP0Migrations) {
  // Objects bulked into P0 are never rebuilt in a partition again, so the
  // contract drops their memoized entry digests and loc-mirror slots. Under
  // GEM2_STATE_CROSSCHECK every trimmed key mirror read is checked against
  // key_storage; roots must still agree with the SP after every operation.
  const Gem2Options options = SmallOptions(2, 8);
  ::setenv("GEM2_STATE_CROSSCHECK", "1", 1);
  Gem2Contract contract("ads", options);
  ::unsetenv("GEM2_STATE_CROSSCHECK");
  Gem2Engine mirror(options);
  const PartitionChain& chain = contract.engine().partition_chain();
  std::mt19937_64 rng(29);
  std::vector<Key> keys;
  uint64_t migrations = 0;
  uint64_t p0_updates = 0;
  uint64_t partition_updates = 0;
  for (int i = 0; i < 400; ++i) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    if (!keys.empty() && rng() % 3 == 0) {
      const size_t at = rng() % keys.size();
      const Key k = keys[at];
      const Hash vh = crypto::ValueHash("u" + std::to_string(i));
      (chain.LocatePartition(at + 1, nullptr) == 0 ? p0_updates : partition_updates)++;
      contract.Update(k, vh, meter);
      mirror.Update(k, vh);
    } else {
      Key k;
      do {
        k = static_cast<Key>(rng() % 100'000);
      } while (mirror.Contains(k));
      const uint64_t bulked = chain.bulked_to_p0();
      contract.Insert(k, Vh(k), meter);
      mirror.Insert(k, Vh(k));
      keys.push_back(k);
      if (chain.bulked_to_p0() != bulked) ++migrations;
    }
    // Observing the committed digests runs the deferred roots, filling the
    // memo with the keys they read.
    ASSERT_EQ(contract.CommittedDigests(), mirror.Digests()) << "op " << i;
    ASSERT_LE(chain.leaf_cache().size(), chain.partition_size()) << "op " << i;
  }
  EXPECT_GE(migrations, 3u);
  EXPECT_GT(p0_updates, 0u);
  EXPECT_GT(partition_updates, 0u);
  EXPECT_GT(chain.leaf_cache().size(), 0u);
  EXPECT_EQ(mirror.partition_chain().leaf_cache().size(), 0u);
  contract.engine().CheckInvariants();
  mirror.CheckInvariants();
}

// --- Deferred partition roots ------------------------------------------------
//
// The contract charges every partition rebuild at the transaction but hashes
// the root only when the block seal or a reader first observes it. Nothing
// observable may move: the goldens below were captured from the eager
// implementation, which hashed every rebuilt root inside its transaction.

TEST(Gem2DeferredRoots, OwnerMixMatchesEagerGoldens) {
  Gem2Contract contract("ads", SmallOptions(2, 16));
  const testutil::OwnerMixOutcome out = testutil::RunOwnerMix(contract, 0x6d32, 400);
  EXPECT_EQ(out.blocks, 60u);
  EXPECT_EQ(out.receipts, 18300435429366999918ull);
  EXPECT_EQ(out.state_roots, 18316499581719367456ull);
  if (telemetry::kCompiledIn) EXPECT_EQ(out.spans, 11849036640088633548ull);
  EXPECT_GT(contract.engine().partition_chain().bulked_to_p0(), 0u);
  contract.engine().CheckInvariants();
}

/// Folds every charge (category, amount) into an FNV-1a digest: equal
/// digests mean the same abort point at every gas limit.
class ChargeSequenceDigest : public gas::MeterObserver {
 public:
  void OnCharge(const gas::Meter&, gas::GasCategory category,
                gas::Gas delta) override {
    fnv_.Mix(static_cast<uint64_t>(category));
    fnv_.Mix(delta);
  }
  uint64_t value() const { return fnv_.value(); }

 private:
  testutil::Fnv fnv_;
};

/// The i-th key of a fixed insert sequence.
Key SequenceKey(size_t i) { return static_cast<Key>((i * 7919) % 10007); }

/// Inserts the first `count` sequence keys into `contract` without a limit.
void InsertPrefix(Gem2Contract* contract, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    contract->Insert(SequenceKey(i), Vh(SequenceKey(i)), meter);
  }
}

TEST(Gem2DeferredRoots, OutOfGasAbortPointsMatchEagerGoldens) {
  // Insert 61 is the dearest of the first 64 (M=2, Smax=16): it bulks P1's
  // 16 objects into P0 and merges every partition down.
  constexpr size_t kPrefix = 60;
  const Gem2Options options = SmallOptions(2, 16);
  gas::Gas full = 0;
  {
    Gem2Contract contract("ads", options);
    InsertPrefix(&contract, kPrefix);
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    ChargeSequenceDigest sequence;
    meter.set_observer(&sequence);
    contract.Insert(SequenceKey(kPrefix), Vh(SequenceKey(kPrefix)), meter);
    meter.set_observer(nullptr);
    full = meter.used();
    EXPECT_EQ(full, 1'580'016u);
    EXPECT_EQ(sequence.value(), 4382528547380135058ull);
  }
  std::array<gas::Gas, 12> aborts{};
  for (size_t step = 0; step < aborts.size(); ++step) {
    Gem2Contract contract("ads", options);
    InsertPrefix(&contract, kPrefix);
    const gas::Gas limit = full * (2 * step + 1) / (2 * aborts.size());
    gas::Meter meter(gas::kEthereumSchedule, limit);
    try {
      contract.Insert(SequenceKey(kPrefix), Vh(SequenceKey(kPrefix)), meter);
      ADD_FAILURE() << "insert fit under limit " << limit;
    } catch (const gas::OutOfGasError& e) {
      aborts[step] = e.used();
    }
  }
  EXPECT_EQ(aborts, (std::array<gas::Gas, 12>{66000, 208992, 348992, 482808, 596714,
                                               742630, 856710, 1002512, 1158434,
                                               1262466, 1386324, 1514696}));
}

TEST(Gem2DeferredRoots, ObservedRootSlotsHoldTreeRoots) {
  Gem2Contract contract("ads", SmallOptions(2, 16));
  chain::Environment env({.gas_limit = 1ull << 60, .txs_per_block = 1000});
  env.Register(&contract);
  const PartitionChain& chain = contract.engine().partition_chain();
  size_t next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 25; ++i, ++next) {
      const Key k = SequenceKey(next);
      env.Execute(contract, "insert",
                  [&](gas::Meter& m) { contract.Insert(k, Vh(k), m); });
      if (i % 5 == 4) {
        env.Execute(contract, "update", [&](gas::Meter& m) {
          contract.Update(k, crypto::ValueHash("u" + std::to_string(i)), m);
        });
      }
    }
    // Unobserved rebuilds leave placeholders, which the invariants allow.
    EXPECT_GT(testutil::PendingRootSlots(chain), 0u) << "round " << round;
    contract.engine().CheckInvariants();
    switch (round % 3) {
      case 0: (void)contract.CommittedDigests(); break;
      case 1: (void)env.CurrentStateRoot(); break;
      default: env.SealBlock(); break;
    }
    EXPECT_EQ(testutil::PendingRootSlots(chain), 0u) << "round " << round;
    EXPECT_EQ(contract.CommittedDigests(), contract.AuthenticatedDigests());
  }
}

}  // namespace
}  // namespace gem2::gem2tree
