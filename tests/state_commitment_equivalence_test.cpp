// Randomized equivalence suite for the simulator fast path. Every off-meter
// throughput mechanism (the per-contract state commitment, lazy SP digest
// refresh, batched Keccak) claims to be observationally invisible: same gas,
// same committed digests, bit for bit. This suite drives seeded workloads —
// including out-of-gas aborts and mid-stream contract registration — against
// recorded goldens of every sealed block's committed digest lists, and checks
// every sealed state root against the independent ReferenceStateRoot. Run
// under ASan/TSan in CI (GEM2_SANITIZE).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ads/static_tree.h"
#include "chain/environment.h"
#include "core/authenticated_db.h"
#include "crypto/digest.h"
#include "crypto/merkle.h"
#include "deferred_roots_util.h"
#include "gem2/engine.h"
#include "gem2star/gem2star.h"
#include "mbtree/contract.h"
#include "mbtree/mbtree.h"
#include "reference_root.h"

namespace gem2 {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;

// ---------------------------------------------------------------------------
// Batched primitives: the 8-way Keccak paths must equal their scalar shapes.
// ---------------------------------------------------------------------------

ads::EntryList RandomEntries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  ads::EntryList entries;
  entries.reserve(n);
  Key k = 0;
  for (size_t i = 0; i < n; ++i) {
    k += 1 + static_cast<Key>(rng() % 1000);
    Hash vh{};
    for (auto& b : vh) b = static_cast<uint8_t>(rng());
    entries.push_back({k, vh});
  }
  return entries;
}

TEST(BatchedKeccakEquivalence, CanonicalRootMatchesMaterializedTree) {
  // Both production builders against the scalar reference fold. Fanouts
  // above 4 make content preimages longer than one Keccak block, which the
  // batcher hashes through its scalar fallback.
  for (int fanout : {2, 3, 4, 5, 7, 8, 16}) {
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u, 64u, 127u, 128u, 257u,
                     1000u, 5000u}) {
      const ads::EntryList entries = RandomEntries(n, 1000 * fanout + n);
      const Hash expected = testutil::ReferenceRoot(entries, fanout);
      EXPECT_EQ(ads::StaticTree(entries, fanout).root_digest(), expected)
          << "fanout=" << fanout << " n=" << n;
      EXPECT_EQ(ads::CanonicalRootDigest(entries, fanout), expected)
          << "fanout=" << fanout << " n=" << n;
      ads::LeafDigestCache cache;
      // Twice through the same cache: cold (all misses, batched) and warm
      // (all hits) must both reproduce the reference digest.
      EXPECT_EQ(ads::CanonicalRootDigest(entries, fanout, nullptr, &cache),
                expected);
      EXPECT_EQ(ads::CanonicalRootDigest(entries, fanout, nullptr, &cache),
                expected);
    }
  }
}

TEST(BatchedKeccakEquivalence, MerkleRootOfMatchesConstructor) {
  std::mt19937_64 rng(7);
  std::vector<Hash> leaves;
  for (size_t n = 0; n <= 40; ++n) {
    EXPECT_EQ(crypto::BinaryMerkleTree::RootOf(leaves),
              crypto::BinaryMerkleTree(leaves).root())
        << "n=" << n;
    Hash h{};
    for (auto& b : h) b = static_cast<uint8_t>(rng());
    leaves.push_back(h);
  }
}

// ---------------------------------------------------------------------------
// Lazy SP MbTree refresh: deferred digest materialization must be invisible.
// ---------------------------------------------------------------------------

TEST(LazyRefreshEquivalence, DeferredAndEagerMbTreesAgree) {
  std::mt19937_64 rng(11);
  mbtree::MbTree lazy(4);
  mbtree::MbTree eager(4);
  Key next = 1;
  for (int round = 0; round < 200; ++round) {
    const int op = static_cast<int>(rng() % 3);
    if (op == 0) {
      const Hash vh = crypto::ValueHash("v" + std::to_string(next));
      lazy.Insert(next, vh);
      eager.Insert(next, vh);
      ++next;
    } else if (op == 1) {
      ads::EntryList bulk;
      const size_t count = 1 + rng() % 16;
      for (size_t i = 0; i < count; ++i, ++next) {
        bulk.push_back({next, crypto::ValueHash("b" + std::to_string(next))});
      }
      lazy.BulkInsert(bulk);
      eager.BulkInsert(bulk);
    } else if (next > 1) {
      const Key victim = 1 + static_cast<Key>(rng() % (next - 1));
      const Hash vh = crypto::ValueHash("u" + std::to_string(round));
      lazy.Update(victim, vh);
      eager.Update(victim, vh);
    }
    // The eager twin observes its root after every mutation, forcing an
    // immediate refresh; the lazy twin accumulates stale paths.
    (void)eager.root_digest();
  }
  EXPECT_EQ(lazy.root_digest(), eager.root_digest());
  lazy.CheckInvariants();
  eager.CheckInvariants();

  ads::EntryList lazy_hits, eager_hits;
  const ads::TreeVo lazy_vo = lazy.RangeQuery(1, next, &lazy_hits);
  const ads::TreeVo eager_vo = eager.RangeQuery(1, next, &eager_hits);
  EXPECT_EQ(lazy_hits.size(), eager_hits.size());
  (void)lazy_vo;
  (void)eager_vo;
  EXPECT_EQ(lazy.AllEntries(), eager.AllEntries());
}

// ---------------------------------------------------------------------------
// Whole-chain equivalence across environment configurations.
// ---------------------------------------------------------------------------

DbOptions SmallOptions(AdsKind kind, gas::Gas gas_limit) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 3;
  o.gem2.smax = 32;
  o.env.gas_limit = gas_limit;
  o.env.txs_per_block = 7;  // deliberately odd: exercises partial tail blocks
  if (kind == AdsKind::kGem2Star) o.split_points = {5000};
  return o;
}

/// What a seeded chain run leaves observable: the SealRecorder fold of every
/// sealed block's committed digests, and the total gas. Every sealed state
/// root is checked against ReferenceStateRoot on the way.
struct ChainOutcome {
  uint64_t committed = 0;
  uint64_t gas = 0;
};

/// Runs a seeded insert/update/delete mix over one AuthenticatedDb.
ChainOutcome RunChain(AdsKind kind, gas::Gas gas_limit = 1'000'000'000'000ull) {
  AuthenticatedDb db(SmallOptions(kind, gas_limit));
  testutil::SealRecorder recorder(db.environment());
  recorder.Track(AuthenticatedDb::kContractName, [&db] { return db.ChainDigests(); });
  std::mt19937_64 rng(99);
  std::vector<Key> live;
  Key next = 1;
  for (int i = 0; i < 300; ++i) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 7 || live.empty()) {
      next += 1 + static_cast<Key>(rng() % 1000);
      if (db.Insert({next, "v" + std::to_string(i)}).ok) live.push_back(next);
    } else if (op < 9) {
      db.Update({live[rng() % live.size()], "u" + std::to_string(i)});
    } else {
      const size_t victim = rng() % live.size();
      db.Delete(live[victim]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    recorder.Observe();
  }
  db.environment().SealBlock();
  recorder.Observe();
  db.CheckConsistency();
  recorder.ExpectRootsMatchReference();
  return {recorder.Fold(), db.environment().total_gas_used()};
}

TEST(CommitmentModes, IncrementalMatchesFromScratchRebuild) {
  // FNV-1a of every sealed block's committed digests plus the total gas of
  // RunChain, captured while an incremental state commitment and a
  // from-scratch one still ran side by side and sealed identical chains.
  static const std::map<AdsKind, uint64_t> kGolden = {
      {AdsKind::kGem2, 9640054666982338525ull},
      {AdsKind::kMbTree, 16753269198390819712ull},
  };
  for (const auto& [kind, golden] : kGolden) {
    const ChainOutcome out = RunChain(kind);
    testutil::Fnv fnv;
    fnv.Mix(out.committed);
    fnv.Mix(out.gas);
    EXPECT_EQ(fnv.value(), golden) << "kind " << static_cast<int>(kind);
  }
}

/// Inserts under a tight gas limit until a transaction aborts, then seals.
/// Returns (committed-digest fold, total gas, saw an abort).
std::tuple<uint64_t, uint64_t, bool> RunAbortingChain() {
  chain::EnvironmentOptions opts;
  opts.gas_limit = 400'000;  // enough for early inserts, not for deep paths
  opts.txs_per_block = 3;
  chain::Environment env(opts);
  mbtree::MbTreeContract contract("tight");
  env.Register(&contract);
  testutil::SealRecorder recorder(env);
  recorder.Track(contract);
  bool aborted = false;
  const Hash root_before_abort = env.CurrentStateRoot();
  Hash root_snapshot = root_before_abort;
  for (Key k = 1; k <= 4000 && !aborted; ++k) {
    root_snapshot = env.CurrentStateRoot();
    const chain::TxReceipt r =
        env.Execute(contract, "insert", [&contract, k](gas::Meter& m) {
          contract.Insert(k * 3, crypto::ValueHash(std::to_string(k)), m);
        });
    recorder.Observe();
    aborted = !r.ok;
  }
  if (aborted) {
    // The aborted transaction must leave no trace in the state commitment.
    EXPECT_EQ(env.CurrentStateRoot(), root_snapshot);
  }
  env.SealBlock();
  recorder.Observe();
  recorder.ExpectRootsMatchReference();
  return {recorder.Fold(), env.total_gas_used(), aborted};
}

TEST(CommitmentModes, OutOfGasAbortsPreserveEquivalence) {
  // Committed digests and total gas, captured as in
  // IncrementalMatchesFromScratchRebuild.
  const auto [committed, gas, aborted] = RunAbortingChain();
  EXPECT_TRUE(aborted) << "workload never ran out of gas";
  EXPECT_EQ(committed, 5055657198010190679ull);
  EXPECT_EQ(gas, 27824376ull);
}

// ---------------------------------------------------------------------------
// Mid-stream contract registration (the state tree gains a leaf) and the
// ledger fast path.
// ---------------------------------------------------------------------------

uint64_t RunTwoContractChain() {
  chain::EnvironmentOptions opts;
  opts.gas_limit = 1'000'000'000'000ull;
  opts.txs_per_block = 5;
  chain::Environment env(opts);
  testutil::SealRecorder recorder(env);
  mbtree::MbTreeContract first("alpha");
  env.Register(&first);
  recorder.Track(first);
  auto insert = [&env, &recorder](mbtree::MbTreeContract& c, Key k) {
    env.Execute(c, "insert", [&c, k](gas::Meter& m) {
      c.Insert(k, crypto::ValueHash("x" + std::to_string(k)), m);
    });
    recorder.Observe();
  };
  for (Key k = 1; k <= 23; ++k) insert(first, k);

  // A new contract appears mid-stream: the next root has one more leaf.
  mbtree::MbTreeContract second("beta");
  env.Register(&second);
  recorder.Track(second);
  for (Key k = 1; k <= 23; ++k) {
    insert(second, k * 2);
    insert(first, 100 + k);
  }
  env.SealBlock();
  recorder.Observe();

  // Ledger fast path: the environment gathers digests from the ledger, which
  // must agree with the contract's authoritative AuthenticatedDigests().
  for (const mbtree::MbTreeContract* c : {&first, &second}) {
    EXPECT_EQ(c->digest_ledger().Snapshot(), c->AuthenticatedDigests());
  }
  recorder.ExpectRootsMatchReference();
  return recorder.Fold();
}

TEST(RedeployEquivalence, MidStreamRegistrationMatchesRebuild) {
  // Committed digests captured as in IncrementalMatchesFromScratchRebuild.
  EXPECT_EQ(RunTwoContractChain(), 1848925408015455472ull);
}

// ---------------------------------------------------------------------------
// Ledger snapshot == authoritative digests for every contract type.
// ---------------------------------------------------------------------------

class AllKindsLedger : public ::testing::TestWithParam<AdsKind> {};

TEST_P(AllKindsLedger, SnapshotMatchesAuthenticatedDigests) {
  DbOptions o = SmallOptions(GetParam(), 1'000'000'000'000ull);
  AuthenticatedDb db(o);
  std::mt19937_64 rng(5);
  std::vector<Key> live;
  for (int i = 0; i < 150; ++i) {
    const Key k = static_cast<Key>(1 + rng() % 100'000);
    if (db.Insert({k, "v" + std::to_string(i)}).ok) live.push_back(k);
    if (i % 5 == 4 && !live.empty()) {
      db.Update({live[rng() % live.size()], "u" + std::to_string(i)});
    }
  }
  db.CheckConsistency();
  // The committed view (ledger snapshot) must equal what the contract would
  // recompute from its trees — the invariant the ledger fast path rests on.
  chain::AuthenticatedState state =
      db.environment().ReadAuthenticatedState(AuthenticatedDb::kContractName);
  EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(state));
}

INSTANTIATE_TEST_SUITE_P(FiveKinds, AllKindsLedger,
                         ::testing::Values(AdsKind::kMbTree, AdsKind::kSmbTree,
                                           AdsKind::kLsm, AdsKind::kGem2,
                                           AdsKind::kGem2Star),
                         [](const auto& info) {
                           switch (info.param) {
                             case AdsKind::kMbTree: return "MbTree";
                             case AdsKind::kSmbTree: return "SmbTree";
                             case AdsKind::kLsm: return "Lsm";
                             case AdsKind::kGem2: return "Gem2";
                             case AdsKind::kGem2Star: return "Gem2Star";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Deferred GEM2 partition roots: the contract hashes a rebuilt partition
// root when it is first observed, not in the transaction that rebuilt it.
// ---------------------------------------------------------------------------

TEST(DeferredRoots, SealedChainsMatchEagerGoldens) {
  // FNV-1a of every sealed block's committed digests plus the total gas of
  // RunChain, captured from an implementation whose sealed headers still
  // equalled those of the eager one that hashed every root in its
  // transaction.
  static const std::map<AdsKind, uint64_t> kGolden = {
      {AdsKind::kGem2, 9640054666982338525ull},
      {AdsKind::kGem2Star, 15530941551311546154ull},
  };
  for (const auto& [kind, golden] : kGolden) {
    const ChainOutcome out = RunChain(kind);
    testutil::Fnv fnv;
    fnv.Mix(out.committed);
    fnv.Mix(out.gas);
    EXPECT_EQ(fnv.value(), golden) << "kind " << static_cast<int>(kind);
  }
}

Hash Vh(Key k) { return crypto::ValueHash("v" + std::to_string(k)); }

/// Runs `prefix` committed single-insert transactions in one block, then
/// (when `abort_batch`) one transaction that inserts far more than the gas
/// limit pays for, and seals. Returns the sealed state root.
template <class OwnerContract>
Hash SealAfterPrefix(OwnerContract& contract, size_t prefix, bool abort_batch) {
  chain::EnvironmentOptions opts;
  opts.gas_limit = 20'000'000;
  opts.txs_per_block = 1000;
  chain::Environment env(opts);
  env.Register(&contract);
  for (size_t i = 0; i < prefix; ++i) {
    const Key k = static_cast<Key>(i * 7919 % 10007);
    const chain::TxReceipt r = env.Execute(
        contract, "insert", [&](gas::Meter& m) { contract.Insert(k, Vh(k), m); });
    EXPECT_TRUE(r.ok) << "prefix insert " << i;
  }
  if (abort_batch) {
    // The batch appends to P_max and merges partitions whose roots the
    // transactions above left pending, then runs out of gas. Its rollback
    // must leave those pending roots computing the committed trees.
    const chain::TxReceipt r = env.Execute(contract, "insert_batch", [&](gas::Meter& m) {
      for (Key k = 20'000; k < 21'000; ++k) contract.Insert(k, Vh(k), m);
    });
    EXPECT_FALSE(r.ok);
  }
  env.SealBlock();
  EXPECT_EQ(env.blockchain().headers().size(), 2u);  // genesis + one block
  return env.blockchain().latest().state_root;
}

TEST(DeferredRoots, MidBlockAbortSealsTheCommittedPrefix) {
  gem2tree::Gem2Options options;
  options.m = 3;
  options.smax = 32;
  for (size_t prefix : {5, 40, 47, 97}) {
    {
      gem2tree::Gem2Contract aborted("ads", options);
      gem2tree::Gem2Contract reference("ads", options);
      EXPECT_EQ(SealAfterPrefix(aborted, prefix, true),
                SealAfterPrefix(reference, prefix, false))
          << "GEM2 prefix " << prefix;
    }
    {
      gem2star::Gem2StarContract aborted("ads", options, {5000, 20'500});
      gem2star::Gem2StarContract reference("ads", options, {5000, 20'500});
      EXPECT_EQ(SealAfterPrefix(aborted, prefix, true),
                SealAfterPrefix(reference, prefix, false))
          << "GEM2* prefix " << prefix;
    }
  }
}

TEST(DeferredRootsConcurrency, ConcurrentChainReadsResolvePendingRoots) {
  // Readers reach the ledger through const accessors (ChainDigests ->
  // CommittedDigests -> DigestLedger::Snapshot), concurrently, while every
  // partition root of the last block is still pending. They must all see the
  // same committed view, and the authenticated read after them must agree.
  for (AdsKind kind : {AdsKind::kGem2, AdsKind::kGem2Star}) {
    DbOptions o = SmallOptions(kind, 1'000'000'000'000ull);
    o.env.txs_per_block = 100'000;  // nothing seals during the inserts
    AuthenticatedDb db(o);
    for (Key k = 1; k <= 400; ++k) {
      ASSERT_TRUE(db.Insert({k * 37 % 9973, "v" + std::to_string(k)}).ok);
    }
    std::vector<std::vector<chain::DigestEntry>> seen(4);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < seen.size(); ++t) {
      readers.emplace_back([&db, &seen, t] {
        for (int i = 0; i < 8; ++i) seen[t] = db.ChainDigests();
      });
    }
    for (std::thread& r : readers) r.join();
    for (const auto& view : seen) EXPECT_EQ(view, seen[0]);

    const std::vector<chain::AuthenticatedState> states = db.ReadChainState();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(states[0]));
    EXPECT_EQ(states[0].digests, seen[0]);
    db.CheckConsistency();
  }
}

}  // namespace
}  // namespace gem2
