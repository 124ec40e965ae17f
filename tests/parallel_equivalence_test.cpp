// Equivalence tests for the perf fast paths: every parallel or incremental
// code path must produce digests and wire bytes BIT-IDENTICAL to the serial
// from-scratch computation it replaces. A speedup that changes a digest is a
// soundness bug, not an optimization — these tests are the contract.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "ads/static_tree.h"
#include "ads/verify.h"
#include "common/random.h"
#include "core/authenticated_db.h"
#include "core/query_engine.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "reference_root.h"
#include "seed_util.h"
#include "shard/sharded_db.h"
#include "workload/workload.h"

namespace gem2 {
namespace {

/// The payload whose hash RandomEntries stores for `key`.
std::string ValueOf(Key key) { return "v" + std::to_string(key); }

/// `n` distinct random keys in ascending order, each with the value hash of
/// ValueOf(key).
ads::EntryList RandomEntries(Rng& rng, size_t n) {
  std::map<Key, Hash> unique;
  while (unique.size() < n) {
    const Key key = static_cast<Key>(rng.Uniform(0, 1'000'000));
    unique[key] = crypto::ValueHash(ValueOf(key));
  }
  ads::EntryList entries;
  entries.reserve(n);
  for (const auto& [key, hash] : unique) entries.push_back({key, hash});
  return entries;
}

TEST(ParallelEquivalence, StaticTreeBuildMatchesScalarReference) {
  testutil::SeedReporter seed(1234);
  Rng rng(seed);
  // Sizes on and beside whole chunks; at fanout 7 a full node's content
  // preimage is 224 bytes, past one Keccak block, so the batcher's scalar
  // fallback runs beside its 8-lane passes.
  for (size_t n : {1u, 7u, 8u, 9u, 127u, 128u, 1000u, 5000u}) {
    for (int fanout : {2, 4, 7}) {
      const ads::EntryList entries = RandomEntries(rng, n);
      const Hash reference = testutil::ReferenceRoot(entries, fanout);
      const ads::StaticTree tree(entries, fanout);
      ASSERT_EQ(tree.root_digest(), reference) << "n=" << n << " fanout=" << fanout;
      ASSERT_EQ(ads::CanonicalRootDigest(entries, fanout), reference)
          << "n=" << n << " fanout=" << fanout;
      // The materialized levels answer with a VO that proves its results
      // against the reference root.
      ads::EntryList result;
      const Key lb = entries.front().key, ub = entries[n / 2].key;
      const ads::TreeVo vo = tree.RangeQuery(lb, ub, &result);
      std::vector<Object> objects;
      for (const ads::Entry& e : result) objects.push_back({e.key, ValueOf(e.key)});
      EXPECT_EQ(objects.size(), n / 2 + 1);
      const ads::VerifyOutcome outcome =
          ads::VerifyTreeVo(lb, ub, vo, reference, objects);
      EXPECT_TRUE(outcome.ok) << outcome.error << " n=" << n << " fanout=" << fanout;
    }
  }
}

TEST(ParallelEquivalence, StaticTreeIncrementalUpdateMatchesRebuild) {
  testutil::SeedReporter seed(5678);
  Rng rng(seed);
  for (size_t n : {1u, 5u, 64u, 513u}) {
    for (int fanout : {2, 4}) {
      ads::EntryList entries = RandomEntries(rng, n);
      ads::StaticTree tree(entries, fanout);
      for (int round = 0; round < 20; ++round) {
        const size_t i = rng.Uniform(0, entries.size() - 1);
        entries[i].value_hash =
            crypto::ValueHash("u" + std::to_string(rng.Uniform(0, 1 << 20)));
        ASSERT_TRUE(tree.UpdateValueHash(entries[i].key, entries[i].value_hash));
        ads::StaticTree rebuilt(entries, fanout);
        ASSERT_EQ(tree.root_digest(), rebuilt.root_digest())
            << "n=" << n << " fanout=" << fanout << " round=" << round;
      }
      // Absent key: reports false, digest untouched.
      const Hash before = tree.root_digest();
      EXPECT_FALSE(tree.UpdateValueHash(2'000'000, crypto::ValueHash("x")));
      EXPECT_EQ(tree.root_digest(), before);
    }
  }
}

core::DbOptions SmallGem2Options() {
  core::DbOptions o;
  o.kind = core::AdsKind::kGem2;
  o.gem2.m = 4;
  o.gem2.smax = 256;
  o.env.gas_limit = 1'000'000'000'000ull;
  o.env.txs_per_block = 64;
  return o;
}

/// Applies `ops` in order to `target`: a RangeStore or an SpQueryEngine.
template <typename Target>
void ApplyOps(const std::vector<workload::Operation>& ops, Target& target) {
  for (const workload::Operation& op : ops) {
    if (op.type == workload::Operation::Type::kInsert) {
      target.Insert(op.object);
    } else {
      target.Update(op.object);
    }
  }
}

/// Readers call what a server worker calls (ExecuteSpec, SpecWire), each on
/// its own thread, while the owner writes `ops` through the engine over `db`.
/// The committed state must equal `ref`, which took the same ops serially.
void ExpectConcurrentQueriesDuringWritesConverge(
    const std::vector<workload::Operation>& ops, core::RangeStore& ref,
    core::RangeStore& db, uint64_t seed) {
  ApplyOps(ops, ref);

  core::SpQueryEngine engine(&db);
  std::atomic<bool> done{false};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const Key lb = static_cast<Key>(rng.Uniform(0, 40'000));
        const core::SpecResponse wide =
            engine.ExecuteSpec(core::QuerySpec::Range(lb, lb + 5'000));
        const Bytes narrow =
            engine.SpecWire(core::QuerySpec::Range(lb / 2, lb / 2 + 100));
        if (wide.conjuncts.size() != 1 ||
            !core::ParseSpecResponse(core::UnwrapTracedWire(narrow).image)) {
          reader_failed.store(true);
          return;
        }
      }
    });
  }
  ApplyOps(ops, engine);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_EQ(engine.epoch(), ops.size());

  // Identical op stream => identical committed contract digests, regardless
  // of the concurrent read traffic and the incremental SP cache maintenance.
  EXPECT_EQ(db.environment().CurrentStateRoot(),
            ref.environment().CurrentStateRoot());

  // And the final snapshot answers queries that verify.
  const core::QuerySpec everything = core::QuerySpec::Range(0, 50'000);
  core::VerifiedSpecResult vr =
      engine.VerifySpecFor(everything, engine.ExecuteSpec(everything));
  EXPECT_TRUE(vr.ok) << vr.error;
}

workload::WorkloadOptions ConcurrencyWorkload(uint64_t seed) {
  workload::WorkloadOptions w;
  w.seed = seed;
  w.domain_max = 50'000;
  w.update_ratio = 0.3;
  return w;
}

TEST(ParallelEquivalence, ConcurrentQueriesDuringWritesConverge) {
  testutil::SeedReporter seed(31337);
  workload::WorkloadGenerator gen(ConcurrencyWorkload(seed));
  std::vector<workload::Operation> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(gen.Next());
  core::AuthenticatedDb ref(SmallGem2Options());
  core::AuthenticatedDb db(SmallGem2Options());
  ExpectConcurrentQueriesDuringWritesConverge(ops, ref, db, seed);
}

TEST(ParallelEquivalence, ConcurrentShardedQueriesDuringWritesConverge) {
  // S=4: every reader scatters its slices inline on its own thread.
  testutil::SeedReporter seed(4242);
  workload::WorkloadGenerator gen(ConcurrencyWorkload(seed));
  std::vector<workload::Operation> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(gen.Next());
  shard::ShardOptions o;
  o.base = SmallGem2Options();
  o.bounds = gen.ShardBounds(4);
  shard::ShardedDb ref(o);
  shard::ShardedDb db(o);
  ASSERT_EQ(db.num_shards(), 4u);
  ExpectConcurrentQueriesDuringWritesConverge(ops, ref, db, seed);
}

}  // namespace
}  // namespace gem2
