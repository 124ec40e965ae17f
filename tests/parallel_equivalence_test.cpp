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
#include "common/thread_pool.h"
#include "core/authenticated_db.h"
#include "core/query_engine.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "reference_root.h"
#include "seed_util.h"
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

TEST(ParallelEquivalence, BinaryMerkleUpdateLeafMatchesRebuild) {
  testutil::SeedReporter seed(91);
  Rng rng(seed);
  // Odd counts exercise the promoted-node path at every level.
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 17u}) {
    std::vector<Hash> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(crypto::ValueHash("leaf" + std::to_string(rng.Uniform(0, 99))));
    }
    crypto::BinaryMerkleTree tree(leaves);
    for (int round = 0; round < 10; ++round) {
      const size_t i = rng.Uniform(0, n - 1);
      leaves[i] = crypto::ValueHash("upd" + std::to_string(rng.Uniform(0, 1 << 20)));
      tree.UpdateLeaf(i, leaves[i]);
      ASSERT_EQ(tree.root(), crypto::BinaryMerkleTree(leaves).root())
          << "n=" << n << " round=" << round;
      // Proofs from the updated tree still verify against the new root.
      crypto::MerkleProof proof = tree.Prove(i);
      EXPECT_EQ(crypto::BinaryMerkleTree::RootFromProof(leaves[i], proof),
                tree.root());
    }
  }
  EXPECT_THROW(crypto::BinaryMerkleTree({}).UpdateLeaf(0, Hash{}),
               std::out_of_range);
}

TEST(ParallelEquivalence, ThreadPoolParallelForRunsEveryIndexOnce) {
  common::ThreadPool pool(3);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;

  // Nested ParallelFor from inside a pool task must not deadlock.
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, 100, 10,
                       [&](size_t b, size_t e) { total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(total.load(), 800u);

  // Exceptions thrown by a chunk surface on the caller.
  EXPECT_THROW(pool.ParallelFor(0, 100, 1,
                                [](size_t begin, size_t) {
                                  if (begin == 42) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

std::unique_ptr<core::AuthenticatedDb> MakeDb(core::AdsKind kind,
                                              workload::WorkloadGenerator& gen) {
  core::DbOptions o;
  o.kind = kind;
  o.gem2.m = 4;
  o.gem2.smax = 256;
  o.env.gas_limit = 1'000'000'000'000ull;
  o.env.txs_per_block = 64;
  if (kind == core::AdsKind::kGem2Star) o.split_points = gen.SplitPoints(8);
  return std::make_unique<core::AuthenticatedDb>(o);
}

TEST(ParallelEquivalence, QueryBatchMatchesSerialQueriesBitForBit) {
  testutil::SeedReporter seed(2024);
  for (core::AdsKind kind : {core::AdsKind::kGem2, core::AdsKind::kGem2Star,
                             core::AdsKind::kMbTree}) {
    workload::WorkloadOptions w;
    w.seed = seed;
    w.domain_max = 100'000;
    workload::WorkloadGenerator gen(w);
    auto db = MakeDb(kind, gen);
    for (int i = 0; i < 800; ++i) db->Insert(gen.Next().object);

    common::ThreadPool pool(3);
    core::SpQueryEngine engine(db.get(), &pool);
    std::vector<core::QuerySpec> specs;
    for (int q = 0; q < 32; ++q) {
      const workload::RangeQuerySpec probe = gen.NextQuery(0.05);
      specs.push_back(core::QuerySpec::Range(probe.lb, probe.ub));
    }
    const uint64_t epoch = engine.epoch();
    std::vector<core::SpecResponse> batch = engine.QueryBatch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    EXPECT_EQ(engine.epoch(), epoch) << "queries must not advance the epoch";
    for (size_t i = 0; i < specs.size(); ++i) {
      core::SpecResponse serial = engine.ExecuteSpec(specs[i]);
      ASSERT_EQ(core::SerializeSpecResponse(batch[i], core::WireVersion::kV3),
                core::SerializeSpecResponse(serial, core::WireVersion::kV3))
          << "range #" << i;
      core::VerifiedSpecResult vr = engine.VerifySpecFor(specs[i], batch[i]);
      ASSERT_TRUE(vr.ok) << vr.error;
    }
  }
}

TEST(ParallelEquivalence, ConcurrentQueriesDuringWritesConverge) {
  testutil::SeedReporter seed(31337);
  workload::WorkloadOptions w;
  w.seed = seed;
  w.domain_max = 50'000;
  w.update_ratio = 0.3;

  // Reference: the same operation stream applied serially, no engine.
  workload::WorkloadGenerator ref_gen(w);
  auto ref_db = MakeDb(core::AdsKind::kGem2, ref_gen);
  std::vector<workload::Operation> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(ref_gen.Next());
  for (const workload::Operation& op : ops) {
    if (op.type == workload::Operation::Type::kInsert) {
      ref_db->Insert(op.object);
    } else {
      ref_db->Update(op.object);
    }
  }

  // Engine-driven db: readers hammer QueryBatch while the owner writes.
  workload::WorkloadGenerator gen(w);
  auto db = MakeDb(core::AdsKind::kGem2, gen);
  common::ThreadPool pool(2);
  core::SpQueryEngine engine(db.get(), &pool);
  std::atomic<bool> done{false};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const Key lb = static_cast<Key>(rng.Uniform(0, 40'000));
        std::vector<core::QuerySpec> specs{
            core::QuerySpec::Range(lb, lb + 5'000),
            core::QuerySpec::Range(lb / 2, lb / 2 + 100)};
        std::vector<core::SpecResponse> batch = engine.QueryBatch(specs);
        if (batch.size() != specs.size()) {
          reader_failed.store(true);
          return;
        }
      }
    });
  }
  for (const workload::Operation& op : ops) {
    if (op.type == workload::Operation::Type::kInsert) {
      engine.Insert(op.object);
    } else {
      engine.Update(op.object);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_EQ(engine.epoch(), ops.size());

  // Identical op stream => identical committed contract digests, regardless
  // of the concurrent read traffic and the incremental SP cache maintenance.
  EXPECT_EQ(db->environment().CurrentStateRoot(),
            ref_db->environment().CurrentStateRoot());

  // And the final snapshot answers queries that verify.
  const core::QuerySpec everything = core::QuerySpec::Range(0, 50'000);
  core::VerifiedSpecResult vr =
      engine.VerifySpecFor(everything, engine.ExecuteSpec(everything));
  EXPECT_TRUE(vr.ok) << vr.error;
}

}  // namespace
}  // namespace gem2
