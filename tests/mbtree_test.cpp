// Merkle B+-tree tests: structure, digests, gas model, bulk insertion, and
// authenticated range queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "ads/verify.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "gas/meter.h"
#include "mbtree/mbtree.h"

namespace gem2::mbtree {
namespace {

Hash Vh(Key k) { return crypto::ValueHash("value-" + std::to_string(k)); }

std::vector<Key> ShuffledKeys(size_t n, uint64_t seed, Key stride = 3) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(static_cast<Key>(i) * stride + 1);
  std::mt19937_64 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

std::vector<Object> ObjectsFor(const ads::EntryList& entries) {
  std::vector<Object> objects;
  for (const ads::Entry& e : entries) {
    objects.push_back({e.key, "value-" + std::to_string(e.key)});
  }
  return objects;
}

TEST(MbTree, EmptyTree) {
  MbTree tree(4);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root_digest(), crypto::EmptyTreeDigest());
  EXPECT_FALSE(tree.Contains(1));
  tree.CheckInvariants();
}

TEST(MbTree, SingleInsert) {
  MbTree tree(4);
  tree.Insert(10, Vh(10));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(10));
  EXPECT_EQ(tree.lo(), 10);
  EXPECT_EQ(tree.hi(), 10);
  tree.CheckInvariants();
}

TEST(MbTree, DuplicateInsertThrows) {
  MbTree tree(4);
  tree.Insert(10, Vh(10));
  EXPECT_THROW(tree.Insert(10, Vh(10)), std::invalid_argument);
}

TEST(MbTree, UpdateMissingKeyReturnsFalse) {
  MbTree tree(4);
  tree.Insert(10, Vh(10));
  EXPECT_FALSE(tree.Update(11, Vh(11), nullptr));
}

TEST(MbTree, UpdateChangesRoot) {
  MbTree tree(4);
  for (Key k : ShuffledKeys(50, 7)) tree.Insert(k, Vh(k));
  Hash before = tree.root_digest();
  ASSERT_TRUE(tree.Update(1, crypto::ValueHash("new-value"), nullptr));
  EXPECT_NE(tree.root_digest(), before);
  tree.CheckInvariants();
}

TEST(MbTree, InsertionOrderIndependentDigest) {
  // Same key set, different insertion orders, same entries -> possibly
  // different shapes but identical sorted contents.
  MbTree a(4);
  MbTree b(4);
  for (Key k : ShuffledKeys(200, 1)) a.Insert(k, Vh(k));
  for (Key k : ShuffledKeys(200, 2)) b.Insert(k, Vh(k));
  EXPECT_EQ(a.AllEntries(), b.AllEntries());
}

class MbTreeSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(MbTreeSizes, InvariantsAndOrderAfterRandomInserts) {
  const size_t n = GetParam();
  MbTree tree(4);
  for (Key k : ShuffledKeys(n, n)) tree.Insert(k, Vh(k));
  EXPECT_EQ(tree.size(), n);
  tree.CheckInvariants();
  ads::EntryList all = tree.AllEntries();
  ASSERT_EQ(all.size(), n);
  for (size_t i = 1; i < all.size(); ++i) EXPECT_LT(all[i - 1].key, all[i].key);
}

TEST_P(MbTreeSizes, RangeQueriesVerify) {
  const size_t n = GetParam();
  MbTree tree(4);
  for (Key k : ShuffledKeys(n, n + 1)) tree.Insert(k, Vh(k));
  const Hash root = tree.root_digest();

  const std::pair<Key, Key> ranges[] = {
      {0, 10}, {1, 1}, {5, 50}, {-100, -1}, {0, 1'000'000}, {17, 18}};
  for (auto [lb, ub] : ranges) {
    ads::EntryList result;
    ads::TreeVo vo = tree.RangeQuery(lb, ub, &result);
    // Result must equal the brute-force filter.
    ads::EntryList expect;
    for (const ads::Entry& e : tree.AllEntries()) {
      if (e.key >= lb && e.key <= ub) expect.push_back(e);
    }
    EXPECT_EQ(result, expect);
    auto outcome = ads::VerifyTreeVo(lb, ub, vo, root, ObjectsFor(result));
    EXPECT_TRUE(outcome.ok) << outcome.error << " range [" << lb << "," << ub
                            << "] n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MbTreeSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 17, 64, 100,
                                           257, 1000));

class MbTreeFanouts : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeFanouts, WorksAcrossFanouts) {
  const int fanout = GetParam();
  MbTree tree(fanout);
  for (Key k : ShuffledKeys(300, fanout)) tree.Insert(k, Vh(k));
  tree.CheckInvariants();
  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(10, 200, &result);
  auto outcome =
      ads::VerifyTreeVo(10, 200, vo, tree.root_digest(), ObjectsFor(result));
  EXPECT_TRUE(outcome.ok) << outcome.error;
}

INSTANTIATE_TEST_SUITE_P(Fanouts, MbTreeFanouts,
                         ::testing::Values(3, 4, 5, 8, 16, 32));

TEST(MbTree, BulkInsertMatchesSingleInserts) {
  MbTree singles(4);
  MbTree bulk(4);
  std::vector<Key> keys = ShuffledKeys(500, 99);
  // Preload both with the same prefix.
  for (size_t i = 0; i < 100; ++i) singles.Insert(keys[i], Vh(keys[i]));
  for (size_t i = 0; i < 100; ++i) bulk.Insert(keys[i], Vh(keys[i]));
  // Remaining keys: one at a time vs one sorted batch.
  ads::EntryList run;
  for (size_t i = 100; i < keys.size(); ++i) {
    singles.Insert(keys[i], Vh(keys[i]));
    run.push_back({keys[i], Vh(keys[i])});
  }
  std::sort(run.begin(), run.end(), ads::EntryKeyLess);
  bulk.BulkInsert(run);
  bulk.CheckInvariants();
  EXPECT_EQ(bulk.AllEntries(), singles.AllEntries());
  EXPECT_EQ(bulk.size(), singles.size());
}

TEST(MbTree, BulkInsertRejectsUnsortedRun) {
  MbTree tree(4);
  ads::EntryList run = {{5, Vh(5)}, {3, Vh(3)}};
  EXPECT_THROW(tree.BulkInsert(run), std::invalid_argument);
}

// --- Gas model -------------------------------------------------------------

TEST(MbTreeGas, InsertFollowsPaperFormula) {
  // For an insert at depth d, the paper's model charges
  //   d * (2 sstore + 2 supdate + (2F+1) sload) + 1 sstore   (+ hashes)
  // with extra per-node charges when splits create siblings.
  MbTree tree(4);
  for (Key k : ShuffledKeys(1000, 5)) tree.Insert(k, Vh(k));

  gas::Meter meter(gas::kEthereumSchedule, 1'000'000'000);
  tree.Insert(3'000'000, Vh(1), &meter);
  const auto& ops = meter.op_counts();
  const size_t d = tree.height();
  // At least the path is charged; splits may add a handful of nodes.
  EXPECT_GE(ops.sstore, 2 * d + 1);
  EXPECT_LE(ops.sstore, 2 * (d + 4) + 1);
  EXPECT_GE(ops.supdate, 2 * d);
  EXPECT_GE(ops.sload, (2 * 4 + 1) * d);
  EXPECT_GT(ops.hash_calls, 0u);
}

TEST(MbTreeGas, UpdateCheaperThanInsert) {
  MbTree tree(4);
  for (Key k : ShuffledKeys(2000, 6)) tree.Insert(k, Vh(k));

  gas::Meter insert_meter(gas::kEthereumSchedule, 1'000'000'000);
  tree.Insert(9'000'001, Vh(2), &insert_meter);
  gas::Meter update_meter(gas::kEthereumSchedule, 1'000'000'000);
  ASSERT_TRUE(tree.Update(1, crypto::ValueHash("nv"), &update_meter));

  // Updates rewrite hashes in place: no sstores at all, and much less gas.
  EXPECT_EQ(update_meter.op_counts().sstore, 0u);
  EXPECT_LT(update_meter.used(), insert_meter.used() / 3);
}

TEST(MbTreeGas, BulkInsertSharesAncestorUpdates) {
  // Inserting a contiguous sorted run in bulk must be cheaper than the same
  // inserts one at a time (the paper's Cbshare saving).
  std::vector<Key> base = ShuffledKeys(2000, 8);
  ads::EntryList run;
  for (Key k = 1'000'000; k < 1'000'256; ++k) run.push_back({k, Vh(k)});

  MbTree singles(4);
  for (Key k : base) singles.Insert(k, Vh(k));
  gas::Meter singles_meter(gas::kEthereumSchedule, 100'000'000'000ull);
  for (const ads::Entry& e : run) singles.Insert(e.key, e.value_hash, &singles_meter);

  MbTree bulk(4);
  for (Key k : base) bulk.Insert(k, Vh(k));
  gas::Meter bulk_meter(gas::kEthereumSchedule, 100'000'000'000ull);
  bulk.BulkInsert(run, &bulk_meter);

  EXPECT_LT(bulk_meter.used(), singles_meter.used() / 2);
  EXPECT_EQ(bulk.AllEntries(), singles.AllEntries());
}

TEST(MbTreeGas, InsertGasGrowsLogarithmically) {
  // Gas at N and at N^2 should differ by roughly 2x (depth doubling), far
  // from linear growth.
  auto gas_at = [](size_t n) {
    MbTree tree(4);
    for (Key k : ShuffledKeys(n, n)) tree.Insert(k, Vh(k));
    gas::Meter meter(gas::kEthereumSchedule, 1'000'000'000);
    tree.Insert(-5, Vh(3), &meter);
    return meter.used();
  };
  const uint64_t g_small = gas_at(100);
  const uint64_t g_big = gas_at(10000);
  EXPECT_LT(g_big, 3 * g_small);
}

// --- Refresh equivalence ------------------------------------------------------
//
// Digest maintenance must be invisible to gas: the golden figures below were
// captured from the per-node scalar refresh that the level-batched refresh
// replaced, so any drift in what is charged, or in which charge an out-of-gas
// abort lands on, fails here. Fanout 16 has a 512-byte content preimage, the
// multi-block case the Keccak batcher hashes scalar.

constexpr gas::Gas kNoLimit = std::numeric_limits<gas::Gas>::max() / 2;

std::array<gas::Gas, 5> Categories(const gas::GasBreakdown& b) {
  return {b.sload, b.sstore, b.supdate, b.mem, b.hash};
}

/// Seeded metered mix of Insert / Update / BulkInsert on a contract-side tree,
/// mirrored unmetered onto an SP-side tree whose stale paths pile up across
/// several ops before a digest read materializes them. Returns the summed
/// per-category gas of the metered side.
gas::GasBreakdown RunMeteredMix(int fanout, uint64_t seed) {
  MbTree contract(fanout);
  MbTree sp(fanout);
  std::mt19937_64 rng(seed);
  std::set<Key> present_set;
  std::vector<Key> present;
  auto fresh_key = [&] {
    for (;;) {
      const Key k = static_cast<Key>(rng() % 400'000) - 100'000;
      if (present_set.insert(k).second) {
        present.push_back(k);
        return k;
      }
    }
  };
  gas::GasBreakdown total;
  for (int op = 0; op < 160; ++op) {
    gas::Meter meter(gas::kEthereumSchedule, kNoLimit);
    const uint64_t dice = rng() % 20;
    if (op == 0 || dice >= 17) {
      const size_t n = op == 0 ? 1500 : 1 + rng() % 400;
      ads::EntryList run;
      for (size_t i = 0; i < n; ++i) {
        const Key k = fresh_key();
        run.push_back({k, Vh(k)});
      }
      std::sort(run.begin(), run.end(), ads::EntryKeyLess);
      contract.BulkInsert(run, &meter);
      sp.BulkInsert(run);
    } else if (dice < 11) {
      const Key k = fresh_key();
      contract.Insert(k, Vh(k), &meter);
      sp.Insert(k, Vh(k));
    } else {
      const Key k = present[rng() % present.size()];
      const Hash vh = crypto::ValueHash("update-" + std::to_string(op));
      EXPECT_TRUE(contract.Update(k, vh, &meter));
      EXPECT_TRUE(sp.Update(k, vh, nullptr));
    }
    total += meter.breakdown();
    if (op % 5 == 4) {
      contract.CheckInvariants();
      EXPECT_EQ(contract.root_digest(), sp.root_digest()) << "op " << op;
    }
  }
  contract.CheckInvariants();
  sp.CheckInvariants();
  EXPECT_EQ(contract.root_digest(), sp.root_digest());
  EXPECT_EQ(contract.AllEntries(), sp.AllEntries());
  return total;
}

class MbTreeRefreshEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeRefreshEquivalence, MeteredMixMatchesGoldenGas) {
  // {sload, sstore, supdate, mem, hash} summed over the mix, per fanout.
  static const std::map<int, std::array<gas::Gas, 5>> kGolden = {
      {3, {30'295'000, 983'440'000, 216'300'000, 0, 2'580'462}},
      {4, {28'737'000, 764'180'000, 159'690'000, 0, 2'329'836}},
      {5, {34'442'400, 775'680'000, 156'620'000, 0, 2'658'846}},
      {8, {26'748'600, 433'900'000, 78'810'000, 0, 2'039'064}},
      {16, {31'596'800, 314'040'000, 48'120'000, 0, 2'493'912}},
  };
  const int fanout = GetParam();
  EXPECT_EQ(Categories(RunMeteredMix(fanout, 0x6e6d32 + fanout)),
            kGolden.at(fanout));
}

/// Folds every charge (category, amount) into an FNV-1a digest. Equal
/// digests mean equal charge sequences, and so the same abort point at every
/// gas limit, not only at the sampled ones.
class ChargeSequenceDigest : public gas::MeterObserver {
 public:
  void OnCharge(const gas::Meter&, gas::GasCategory category,
                gas::Gas delta) override {
    Mix(static_cast<uint64_t>(category));
    Mix(delta);
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Base tree for the abort sweep, plus one bulk run interleaved with it so
/// the refresh touches most leaves.
void BuildAbortFixture(MbTree* tree, ads::EntryList* run) {
  for (Key k : ShuffledKeys(600, 21)) tree->Insert(k, Vh(k));
  run->clear();
  for (Key k = 2; k < 900; k += 3) run->push_back({k, Vh(k)});
}

TEST_P(MbTreeRefreshEquivalence, OutOfGasAbortPointsMatchGolden) {
  static const std::map<int, uint64_t> kGoldenSequence = {
      {3, 5143211146021271665ull},  {4, 12186212363555023405ull},
      {5, 13762827181092109139ull}, {8, 4249612366320442283ull},
      {16, 3936062332269810881ull},
  };
  static const std::map<int, std::array<gas::Gas, 12>> kGolden = {
      {3, {6001400, 8360472, 10730950, 13059872, 15420350, 17790750, 20119744,
           22480222, 24850610, 27179256, 29539716, 31910110}},
      {4, {6001800, 7092030, 8183754, 9275616, 10367730, 11459934, 12551496,
           13643418, 14735316, 15827244, 16918956, 18010782}},
      {5, {6002200, 7100310, 8200506, 9300738, 10401012, 11501370, 12601494,
           13703878, 14802030, 15902310, 17002482, 18102690}},
      {8, {6003400, 6537204, 7077694, 7611552, 8148798, 8686296, 9223254,
           9760692, 10297524, 10835070, 11372292, 11909322}},
      {16, {6006600, 6275640, 6505160, 6744086, 7020452, 7249060, 7488136,
            7764382, 7993230, 8232228, 8508660, 8737700}},
  };
  const int fanout = GetParam();
  ads::EntryList run;
  gas::Gas full = 0;
  {
    MbTree tree(fanout);
    BuildAbortFixture(&tree, &run);
    gas::Meter meter(gas::kEthereumSchedule, kNoLimit);
    ChargeSequenceDigest sequence;
    meter.set_observer(&sequence);
    tree.BulkInsert(run, &meter);
    meter.set_observer(nullptr);
    full = meter.used();
    EXPECT_EQ(sequence.value(), kGoldenSequence.at(fanout));
  }
  // Everything before the refresh is one sstore per inserted object; step the
  // limit from there to just short of the full charge.
  const gas::Gas structural = gas::kEthereumSchedule.sstore * run.size();
  ASSERT_GT(full, structural);
  std::array<gas::Gas, 12> aborts{};
  for (size_t step = 0; step < aborts.size(); ++step) {
    MbTree tree(fanout);
    BuildAbortFixture(&tree, &run);
    const gas::Gas limit = structural + (full - structural) * step / aborts.size();
    gas::Meter meter(gas::kEthereumSchedule, limit);
    try {
      tree.BulkInsert(run, &meter);
      ADD_FAILURE() << "bulk fit under limit " << limit;
    } catch (const gas::OutOfGasError& e) {
      aborts[step] = e.used();
    }
    // An aborted refresh leaves stale nodes behind; the next digest read
    // must still materialize the canonical digests.
    tree.CheckInvariants();
  }
  EXPECT_EQ(aborts, kGolden.at(fanout));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, MbTreeRefreshEquivalence,
                         ::testing::Values(3, 4, 5, 8, 16));

// --- Layout golden -------------------------------------------------------------
//
// Node storage and the metered entry-digest memo must be invisible: a seeded
// mix of inserts, updates (including rewrites of the same value hash and
// misses) and bulks folds every root, every VO of a fixed query set, every
// meter's charges and the Keccak permutations of every op into one FNV-1a
// digest. The goldens were recorded from the pointer-node tree with a
// key-indexed digest memo, which this layout replaced.

class LayoutDigest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Mix(const Hash& h) {
    for (uint8_t b : h) {
      h_ ^= b;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Folds root, height, size and the VO and result of each fixed query, with
/// the permutations the reads ran.
void FoldReads(const MbTree& tree, LayoutDigest* d) {
  static constexpr std::array<std::pair<Key, Key>, 6> kQueries = {{
      {std::numeric_limits<Key>::min(), std::numeric_limits<Key>::max()},
      {-150'000, -149'000},
      {-7'000, 9'000},
      {0, 0},
      {123'456, 140'000},
      {300'000, 400'000},
  }};
  const uint64_t p0 = crypto::KeccakPermutationCount();
  d->Mix(tree.root_digest());
  d->Mix(crypto::KeccakPermutationCount() - p0);
  d->Mix(tree.height());
  d->Mix(tree.size());
  for (const auto& [lb, ub] : kQueries) {
    const uint64_t before = crypto::KeccakPermutationCount();
    ads::EntryList result;
    const ads::TreeVo vo = tree.RangeQuery(lb, ub, &result);
    d->Mix(crypto::KeccakPermutationCount() - before);
    d->Mix(vo.empty_tree ? 1 : 0);
    d->Mix(vo.elements.size());
    for (const ads::VoElement& e : vo.elements) {
      d->Mix(static_cast<uint64_t>(e.kind));
      d->Mix(e.children);
      d->Mix(static_cast<uint64_t>(e.lo));
      d->Mix(static_cast<uint64_t>(e.hi));
      d->Mix(e.hash);
    }
    d->Mix(result.size());
    for (const ads::Entry& e : result) {
      d->Mix(static_cast<uint64_t>(e.key));
      d->Mix(e.value_hash);
    }
  }
}

/// One seeded run: an unmetered bulk (the SP bootstrap and the P0BulkMerge
/// pattern), then 180 ops, metered or not, with reads every seventh op.
uint64_t RunLayoutMix(int fanout, bool metered, uint64_t seed) {
  MbTree tree(fanout);
  std::mt19937_64 rng(seed);
  std::set<Key> present_set;
  std::vector<Key> present;
  std::map<Key, Hash> values;
  auto fresh_key = [&] {
    for (;;) {
      const Key k = static_cast<Key>(rng() % 400'000) - 200'000;
      if (present_set.insert(k).second) {
        present.push_back(k);
        return k;
      }
    }
  };
  auto fresh_run = [&](size_t n) {
    ads::EntryList run;
    for (size_t i = 0; i < n; ++i) {
      const Key k = fresh_key();
      run.push_back({k, Vh(k)});
      values[k] = Vh(k);
    }
    std::sort(run.begin(), run.end(), ads::EntryKeyLess);
    return run;
  };
  LayoutDigest d;
  tree.BulkInsert(fresh_run(1200), nullptr);
  FoldReads(tree, &d);
  for (int op = 0; op < 180; ++op) {
    gas::Meter meter(gas::kEthereumSchedule, kNoLimit);
    gas::Meter* m = metered ? &meter : nullptr;
    const uint64_t before = crypto::KeccakPermutationCount();
    const uint64_t dice = rng() % 20;
    d.Mix(dice);
    if (dice < 8) {
      const Key k = fresh_key();
      values[k] = Vh(k);
      tree.Insert(k, Vh(k), m);
    } else if (dice < 13) {
      const Key k = present[rng() % present.size()];
      const Hash vh = crypto::ValueHash("update-" + std::to_string(op));
      values[k] = vh;
      EXPECT_TRUE(tree.Update(k, vh, m));
    } else if (dice < 16) {
      // Rewrites the value hash the key already has.
      const Key k = present[rng() % present.size()];
      EXPECT_TRUE(tree.Update(k, values.at(k), m));
    } else if (dice < 17) {
      EXPECT_FALSE(tree.Update(200'001 + op, Vh(op), m));
    } else {
      tree.BulkInsert(fresh_run(1 + rng() % 300), m);
    }
    d.Mix(crypto::KeccakPermutationCount() - before);
    d.Mix(meter.used());
    for (gas::Gas g : Categories(meter.breakdown())) d.Mix(g);
    if (op % 7 == 6) FoldReads(tree, &d);
  }
  FoldReads(tree, &d);
  tree.CheckInvariants();
  return d.value();
}

class MbTreeLayoutGolden : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeLayoutGolden, MixedOpsMatchRecordedDigests) {
  // {unmetered, metered} digest per fanout.
  static const std::map<int, std::array<uint64_t, 2>> kGolden = {
      {3, {6455372676168409945ull, 8918371192265803964ull}},
      {4, {4501718399191093092ull, 1371184736728209431ull}},
      {8, {15699173086742018418ull, 9551491867064126190ull}},
      {16, {16936549753880373121ull, 9470933603633985061ull}},
  };
  const int fanout = GetParam();
  const std::array<uint64_t, 2> got = {
      RunLayoutMix(fanout, false, 0x1a7042 + fanout),
      RunLayoutMix(fanout, true, 0x1a7042 + fanout)};
  EXPECT_EQ(got, kGolden.at(fanout)) << got[0] << "ull, " << got[1] << "ull";
}

INSTANTIATE_TEST_SUITE_P(Fanouts, MbTreeLayoutGolden, ::testing::Values(3, 4, 8, 16));

// --- Adversarial VO checks ---------------------------------------------------

TEST(MbTreeVerify, DetectsTamperedValue) {
  MbTree tree(4);
  for (Key k : ShuffledKeys(100, 11)) tree.Insert(k, Vh(k));
  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(10, 100, &result);
  std::vector<Object> objects = ObjectsFor(result);
  ASSERT_FALSE(objects.empty());
  objects[0].value = "tampered";
  auto outcome = ads::VerifyTreeVo(10, 100, vo, tree.root_digest(), objects);
  EXPECT_FALSE(outcome.ok);
}

TEST(MbTreeVerify, DetectsDroppedResult) {
  MbTree tree(4);
  for (Key k : ShuffledKeys(100, 12)) tree.Insert(k, Vh(k));
  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(10, 100, &result);
  std::vector<Object> objects = ObjectsFor(result);
  ASSERT_GT(objects.size(), 1u);
  objects.pop_back();
  auto outcome = ads::VerifyTreeVo(10, 100, vo, tree.root_digest(), objects);
  EXPECT_FALSE(outcome.ok);
}

TEST(MbTreeVerify, DetectsInjectedResult) {
  MbTree tree(4);
  for (Key k : ShuffledKeys(100, 13)) tree.Insert(k, Vh(k));
  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(10, 100, &result);
  std::vector<Object> objects = ObjectsFor(result);
  objects.push_back({55'555, "injected"});
  auto outcome = ads::VerifyTreeVo(10, 100, vo, tree.root_digest(), objects);
  EXPECT_FALSE(outcome.ok);
}

TEST(MbTreeVerify, DetectsStaleRoot) {
  // After an update, a response built from the *current* tree must not verify
  // against the pre-update digest: freshness comes from the blockchain always
  // serving the latest root.
  MbTree tree(4);
  for (Key k : ShuffledKeys(100, 14)) tree.Insert(k, Vh(k));
  Hash stale_root = tree.root_digest();
  ASSERT_TRUE(tree.Update(1, crypto::ValueHash("nv"), nullptr));

  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(0, 50, &result);
  std::vector<Object> objects;
  for (const ads::Entry& e : result) {
    objects.push_back({e.key, e.key == 1 ? "nv" : "value-" + std::to_string(e.key)});
  }
  EXPECT_FALSE(ads::VerifyTreeVo(0, 50, vo, stale_root, objects).ok);
  EXPECT_TRUE(ads::VerifyTreeVo(0, 50, vo, tree.root_digest(), objects).ok);
}

}  // namespace
}  // namespace gem2::mbtree
