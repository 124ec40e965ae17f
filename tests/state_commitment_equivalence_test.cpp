// Randomized equivalence suite for the simulator fast path. Every off-meter
// throughput mechanism (incremental state commitment, pipelined sealing,
// lazy SP digest refresh, batched Keccak) claims to be observationally
// invisible: same gas, same sealed chain, same digests, bit for bit. This
// suite drives seeded workloads — including out-of-gas aborts and mid-stream
// contract registration — through the fast and reference configurations and
// asserts exactly that. Run under ASan/TSan in CI (GEM2_SANITIZE).
#include <gtest/gtest.h>

#include <cstdlib>
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
  for (int fanout : {2, 3, 4, 5, 8, 16}) {  // > 4 exercises the multi-block
                                            // scalar fallback in the batcher
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u, 64u, 257u, 1000u}) {
      const ads::EntryList entries = RandomEntries(n, 1000 * fanout + n);
      const Hash expected = ads::StaticTree(entries, fanout).root_digest();
      EXPECT_EQ(ads::CanonicalRootDigest(entries, fanout), expected)
          << "fanout=" << fanout << " n=" << n;
      ads::LeafDigestCache cache;
      // Twice through the same cache: cold (all misses, batched) and warm
      // (all hits) must both reproduce the scalar digest.
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

struct EnvConfig {
  bool incremental;
  bool pipelined;
};

DbOptions SmallOptions(AdsKind kind, chain::StateCommitment commitment,
                       EnvConfig cfg, gas::Gas gas_limit) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 3;
  o.gem2.smax = 32;
  o.env.state_commitment = commitment;
  o.env.gas_limit = gas_limit;
  o.env.txs_per_block = 7;  // deliberately odd: exercises partial tail blocks
  o.env.incremental_commitment = cfg.incremental;
  o.env.pipeline_sealing = cfg.pipelined;
  if (kind == AdsKind::kGem2Star) o.split_points = {5000};
  return o;
}

/// Runs a seeded insert/update/delete mix and returns the per-block header
/// digests plus total gas — the complete observable outcome of the chain.
std::pair<std::vector<Hash>, uint64_t> RunChain(AdsKind kind,
                                                chain::StateCommitment commitment,
                                                EnvConfig cfg,
                                                gas::Gas gas_limit = 1'000'000'000'000ull) {
  AuthenticatedDb db(SmallOptions(kind, commitment, cfg, gas_limit));
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
  }
  db.environment().SealBlock();
  db.CheckConsistency();
  std::vector<Hash> headers;
  for (const chain::Block& b : db.environment().blockchain().blocks()) {
    headers.push_back(b.header.Digest());
  }
  return {headers, db.environment().total_gas_used()};
}

class CommitmentModes
    : public ::testing::TestWithParam<chain::StateCommitment> {};

TEST_P(CommitmentModes, IncrementalMatchesFromScratchRebuild) {
  for (AdsKind kind : {AdsKind::kGem2, AdsKind::kMbTree}) {
    const auto fast = RunChain(kind, GetParam(), {true, true});
    const auto compat = RunChain(kind, GetParam(), {false, false});
    EXPECT_EQ(fast.first, compat.first) << "chains diverged";
    EXPECT_EQ(fast.second, compat.second) << "gas diverged";
  }
}

TEST_P(CommitmentModes, PipelinedSealingIsByteIdentical) {
  const auto piped = RunChain(AdsKind::kGem2, GetParam(), {true, true});
  const auto serial = RunChain(AdsKind::kGem2, GetParam(), {true, false});
  EXPECT_EQ(piped.first, serial.first);
  EXPECT_EQ(piped.second, serial.second);
}

/// Inserts under a tight gas limit until a transaction aborts, then seals.
/// Returns (per-block header digests, total gas, saw an abort).
std::tuple<std::vector<Hash>, uint64_t, bool> RunAbortingChain(
    bool incremental, chain::StateCommitment commitment) {
  chain::EnvironmentOptions opts;
  opts.state_commitment = commitment;
  opts.gas_limit = 400'000;  // enough for early inserts, not for deep paths
  opts.txs_per_block = 3;
  opts.incremental_commitment = incremental;
  chain::Environment env(opts);
  mbtree::MbTreeContract contract("tight");
  env.Register(&contract);
  bool aborted = false;
  const Hash root_before_abort = env.CurrentStateRoot();
  Hash root_snapshot = root_before_abort;
  for (Key k = 1; k <= 4000 && !aborted; ++k) {
    root_snapshot = env.CurrentStateRoot();
    const chain::TxReceipt r =
        env.Execute(contract, "insert", [&contract, k](gas::Meter& m) {
          contract.Insert(k * 3, crypto::ValueHash(std::to_string(k)), m);
        });
    aborted = !r.ok;
  }
  if (aborted) {
    // The aborted transaction must leave no trace in the state commitment.
    EXPECT_EQ(env.CurrentStateRoot(), root_snapshot);
  }
  env.SealBlock();
  std::vector<Hash> headers;
  for (const chain::Block& b : env.blockchain().blocks()) {
    headers.push_back(b.header.Digest());
  }
  return {headers, env.total_gas_used(), aborted};
}

TEST_P(CommitmentModes, OutOfGasAbortsPreserveEquivalence) {
  const auto fast = RunAbortingChain(true, GetParam());
  const auto compat = RunAbortingChain(false, GetParam());
  EXPECT_TRUE(std::get<2>(fast)) << "workload never ran out of gas";
  EXPECT_EQ(std::get<0>(fast), std::get<0>(compat));
  EXPECT_EQ(std::get<1>(fast), std::get<1>(compat));
}

TEST_P(CommitmentModes, CrosscheckModeAcceptsIncrementalRoots) {
  // GEM2_STATE_CROSSCHECK makes the environment re-derive every root from
  // scratch and throw on mismatch — the strongest internal check, run here
  // over a small mixed workload.
  ::setenv("GEM2_STATE_CROSSCHECK", "1", 1);
  const auto checked = RunChain(AdsKind::kGem2, GetParam(), {true, true});
  ::unsetenv("GEM2_STATE_CROSSCHECK");
  const auto plain = RunChain(AdsKind::kGem2, GetParam(), {true, true});
  EXPECT_EQ(checked.first, plain.first);
  EXPECT_EQ(checked.second, plain.second);
}

INSTANTIATE_TEST_SUITE_P(
    BothCommitments, CommitmentModes,
    ::testing::Values(chain::StateCommitment::kBinaryMerkle,
                      chain::StateCommitment::kPatriciaTrie),
    [](const auto& info) {
      return info.param == chain::StateCommitment::kBinaryMerkle ? "BinaryMerkle"
                                                                 : "PatriciaTrie";
    });

// ---------------------------------------------------------------------------
// Mid-stream contract registration (layout change forces a commitment
// rebuild) and the ledger fast path.
// ---------------------------------------------------------------------------

std::vector<Hash> RunTwoContractChain(bool incremental,
                                      chain::StateCommitment commitment) {
  chain::EnvironmentOptions opts;
  opts.state_commitment = commitment;
  opts.gas_limit = 1'000'000'000'000ull;
  opts.txs_per_block = 5;
  opts.incremental_commitment = incremental;
  chain::Environment env(opts);
  mbtree::MbTreeContract first("alpha");
  env.Register(&first);
  auto insert = [&env](mbtree::MbTreeContract& c, Key k) {
    env.Execute(c, "insert", [&c, k](gas::Meter& m) {
      c.Insert(k, crypto::ValueHash("x" + std::to_string(k)), m);
    });
  };
  for (Key k = 1; k <= 23; ++k) insert(first, k);

  // New contract appears mid-stream: the state layout changes, which the
  // incremental committer must detect (full rebuild) without diverging.
  mbtree::MbTreeContract second("beta");
  env.Register(&second);
  for (Key k = 1; k <= 23; ++k) {
    insert(second, k * 2);
    insert(first, 100 + k);
  }
  env.SealBlock();

  // Ledger fast path: the environment gathers digests from the ledger, which
  // must agree with the contract's authoritative AuthenticatedDigests().
  for (const mbtree::MbTreeContract* c : {&first, &second}) {
    EXPECT_NE(c->digest_ledger(), nullptr);
    if (c->digest_ledger() == nullptr) continue;
    EXPECT_EQ(c->digest_ledger()->Snapshot(), c->AuthenticatedDigests());
  }

  std::vector<Hash> headers;
  for (const chain::Block& b : env.blockchain().blocks()) {
    headers.push_back(b.header.Digest());
  }
  return headers;
}

TEST(RedeployEquivalence, MidStreamRegistrationMatchesRebuild) {
  for (chain::StateCommitment commitment :
       {chain::StateCommitment::kBinaryMerkle,
        chain::StateCommitment::kPatriciaTrie}) {
    EXPECT_EQ(RunTwoContractChain(true, commitment),
              RunTwoContractChain(false, commitment));
  }
}

// ---------------------------------------------------------------------------
// Ledger snapshot == authoritative digests for every contract type.
// ---------------------------------------------------------------------------

class AllKindsLedger : public ::testing::TestWithParam<AdsKind> {};

TEST_P(AllKindsLedger, SnapshotMatchesAuthenticatedDigests) {
  DbOptions o = SmallOptions(GetParam(), chain::StateCommitment::kBinaryMerkle,
                             {true, true}, 1'000'000'000'000ull);
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
  // FNV-1a of every header digest plus the total gas of RunChain, captured
  // from the eager implementation that hashed every root in its transaction.
  static const std::map<std::pair<AdsKind, chain::StateCommitment>, uint64_t>
      kGolden = {
          {{AdsKind::kGem2, chain::StateCommitment::kBinaryMerkle},
           3358183457755466640ull},
          {{AdsKind::kGem2, chain::StateCommitment::kPatriciaTrie},
           14038884354548685354ull},
          {{AdsKind::kGem2Star, chain::StateCommitment::kBinaryMerkle},
           10842162550594770739ull},
          {{AdsKind::kGem2Star, chain::StateCommitment::kPatriciaTrie},
           9583345620674372707ull},
      };
  for (const auto& [config, golden] : kGolden) {
    const auto [headers, gas] = RunChain(config.first, config.second, {true, true});
    testutil::Fnv fnv;
    for (const Hash& h : headers) fnv.Mix(h);
    fnv.Mix(gas);
    EXPECT_EQ(fnv.value(), golden) << "kind " << static_cast<int>(config.first)
                                   << " commitment " << static_cast<int>(config.second);
  }
}

Hash Vh(Key k) { return crypto::ValueHash("v" + std::to_string(k)); }

/// Runs `prefix` committed single-insert transactions in one block, then
/// (when `abort_batch`) one transaction that inserts far more than the gas
/// limit pays for, and seals. Returns the sealed state root.
template <class OwnerContract>
Hash SealAfterPrefix(OwnerContract& contract, chain::StateCommitment commitment,
                     size_t prefix, bool abort_batch) {
  chain::EnvironmentOptions opts;
  opts.state_commitment = commitment;
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
  EXPECT_EQ(env.blockchain().blocks().size(), 2u);  // genesis + one block
  return env.blockchain().latest().header.state_root;
}

TEST(DeferredRoots, MidBlockAbortSealsTheCommittedPrefix) {
  gem2tree::Gem2Options options;
  options.m = 3;
  options.smax = 32;
  for (chain::StateCommitment commitment :
       {chain::StateCommitment::kBinaryMerkle,
        chain::StateCommitment::kPatriciaTrie}) {
    for (size_t prefix : {5, 40, 47, 97}) {
      {
        gem2tree::Gem2Contract aborted("ads", options);
        gem2tree::Gem2Contract reference("ads", options);
        EXPECT_EQ(SealAfterPrefix(aborted, commitment, prefix, true),
                  SealAfterPrefix(reference, commitment, prefix, false))
            << "GEM2 prefix " << prefix;
      }
      {
        gem2star::Gem2StarContract aborted("ads", options, {5000, 20'500});
        gem2star::Gem2StarContract reference("ads", options, {5000, 20'500});
        EXPECT_EQ(SealAfterPrefix(aborted, commitment, prefix, true),
                  SealAfterPrefix(reference, commitment, prefix, false))
            << "GEM2* prefix " << prefix;
      }
    }
  }
}

TEST(DeferredRootsConcurrency, ConcurrentChainReadsResolvePendingRoots) {
  // Readers reach the ledger through const accessors (ChainDigests ->
  // CommittedDigests -> DigestLedger::Snapshot), concurrently, while every
  // partition root of the last block is still pending. They must all see the
  // same committed view, and the authenticated read after them must agree.
  for (AdsKind kind : {AdsKind::kGem2, AdsKind::kGem2Star}) {
    DbOptions o = SmallOptions(kind, chain::StateCommitment::kBinaryMerkle,
                               {true, true}, 1'000'000'000'000ull);
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
    std::vector<chain::DigestEntry> proven;
    for (const chain::ProvenDigest& pd : states[0].digests) proven.push_back(pd.entry);
    EXPECT_EQ(proven, seen[0]);
    db.CheckConsistency();
  }
}

}  // namespace
}  // namespace gem2
