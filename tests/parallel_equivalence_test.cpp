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
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/authenticated_db.h"
#include "core/query_engine.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "crypto/mpt.h"
#include "seed_util.h"
#include "workload/workload.h"

namespace gem2 {
namespace {

ads::EntryList RandomEntries(Rng& rng, size_t n) {
  std::map<Key, Hash> unique;
  while (unique.size() < n) {
    const Key key = static_cast<Key>(rng.Uniform(0, 1'000'000));
    unique[key] = crypto::ValueHash("v" + std::to_string(rng.Uniform(0, 1 << 20)));
  }
  ads::EntryList entries;
  entries.reserve(n);
  for (const auto& [key, hash] : unique) entries.push_back({key, hash});
  return entries;
}

/// The wire image of a one-tree response over [lb, ub] carrying `vo`, its
/// result entries carrying records named after their keys.
Bytes VoImage(Key lb, Key ub, const ads::TreeVo& vo,
              const ads::EntryList& result) {
  core::QueryResponse response;
  response.lb = lb;
  response.ub = ub;
  response.trees.push_back({"t", {}, ads::CloneVo(vo)});
  for (const ads::Entry& e : result) {
    response.trees[0].objects.push_back({e.key, std::to_string(e.key)});
  }
  return core::SerializeResponse(response, core::WireVersion::kV3);
}

TEST(ParallelEquivalence, StaticTreeParallelBuildMatchesSerial) {
  testutil::SeedReporter seed(1234);
  Rng rng(seed);
  common::ThreadPool pool(3);
  // Sizes straddling the parallel threshold, several fanouts.
  for (size_t n : {1u, 7u, 127u, 128u, 1000u, 5000u}) {
    for (int fanout : {2, 4, 7}) {
      ads::EntryList entries = RandomEntries(rng, n);
      ads::StaticTree serial(entries, fanout, nullptr);
      ads::StaticTree parallel(entries, fanout, &pool);
      ASSERT_EQ(serial.root_digest(), parallel.root_digest())
          << "n=" << n << " fanout=" << fanout;
      // The materialized structure answers queries identically too.
      ads::EntryList r1, r2;
      const Key lb = entries.front().key, ub = entries[n / 2].key;
      ads::TreeVo vo1 = serial.RangeQuery(lb, ub, &r1);
      ads::TreeVo vo2 = parallel.RangeQuery(lb, ub, &r2);
      EXPECT_EQ(r1, r2);
      EXPECT_EQ(VoImage(lb, ub, vo1, r1), VoImage(lb, ub, vo2, r2));
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

TEST(ParallelEquivalence, MptMemoizedRootMatchesFreshTrie) {
  testutil::SeedReporter seed(77);
  Rng rng(seed);
  crypto::PatriciaTrie incremental;
  std::map<Bytes, Bytes> model;
  for (int i = 0; i < 200; ++i) {
    Bytes key;
    // Short keys collide often, forcing overwrites and deep branch reshaping.
    for (uint64_t b = rng.Uniform(1, 4); b > 0; --b) {
      key.push_back(static_cast<uint8_t>(rng.Uniform(0, 7)));
    }
    Bytes value{static_cast<uint8_t>(rng.Uniform(1, 255)),
                static_cast<uint8_t>(i & 0xff)};
    incremental.Put(key, value);
    model[key] = value;
    // The memoized root (only dirty path rehashed) must equal a from-scratch
    // trie over the same content.
    crypto::PatriciaTrie fresh;
    for (const auto& [k, v] : model) fresh.Put(k, v);
    ASSERT_EQ(incremental.RootHash(), fresh.RootHash()) << "put #" << i;
  }
  // Proofs produced from memoized nodes verify as usual.
  const auto& [k, v] = *model.begin();
  EXPECT_TRUE(crypto::PatriciaTrie::VerifyProof(incremental.RootHash(), k, v,
                                                incremental.Prove(k)));
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
