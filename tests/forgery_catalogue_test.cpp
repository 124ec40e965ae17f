// The forgery catalogue as a whole: every sweep's forgeries pinned by
// recorded digests, and the chain-state family — whoever relays VO_chain
// edits the AuthenticatedState list a client verifies an answer against.
//
// ForgeryCatalogueGolden folds each sweep's forgeries, in order, into one
// FNV-1a digest per store: every operator name with the FNV-1a of its forged
// image and the states it forged, then every (operator, attempts) pair. The
// flat stores' digests were recorded by the same fold written against the
// four per-family operator enums the table replaced, so each sweep draws the
// same operators and forges the same images byte for byte. The sharded
// rows (RangeSweep's Sharded4 and CompositeSweeps) were re-recorded when the
// single and wire families began forging inside a composite answer's slices
// and the composite family lost mutate_inner_slice.
//
// ChainStateForgery puts every chain-state forgery to the three checks that
// apply to it (RunForgerySweep): Environment::VerifyAuthenticatedState,
// LightClient::VerifyStateAtTip and RangeStore::VerifySpecAgainst. The
// stores: a flat store of each ADS kind (GEM2 m=2, Smax=16, keys 1..200,
// query [1, 200]), an S=4 ShardedDb and a 2-attribute MultiAttrDb.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ads_kinds.h"
#include "chain/environment.h"
#include "core/authenticated_db.h"
#include "deferred_roots_util.h"
#include "fault/adversary.h"
#include "multiattr/multiattr_db.h"
#include "shard/sharded_db.h"
#include "workload/workload.h"

namespace gem2 {
namespace {

using core::AdsKind;
using core::QuerySpec;
using core::SpecResponse;
using fault::Family;

constexpr AdsKind kKinds[] = {AdsKind::kMbTree, AdsKind::kSmbTree, AdsKind::kLsm,
                              AdsKind::kGem2, AdsKind::kGem2Star};

const fault::Operator& Op(std::string_view name) {
  const auto all = fault::Catalogue();
  const auto it = std::find_if(all.begin(), all.end(),
                               [name](const fault::Operator& op) { return op.name == name; });
  EXPECT_NE(it, all.end()) << name;
  return *it;
}

/// Folds forgeries in order, then their per-operator attempt counts.
class Fold {
 public:
  void Add(std::string_view op, const fault::Forgery& forged) {
    ++attempts_[std::string(op)];
    fnv_.Mix(std::string(op));
    testutil::Fnv image;
    image.Mix(std::string(forged.image.begin(), forged.image.end()));
    fnv_.Mix(image.value());
    fnv_.Mix(forged.states.size());
    for (const chain::AuthenticatedState& s : forged.states) {
      fnv_.Mix(s.contract);
      fnv_.Mix(s.digests.size());
      for (const chain::DigestEntry& d : s.digests) {
        fnv_.Mix(d.label);
        fnv_.Mix(d.digest);
      }
      fnv_.Mix(s.proof.size());
      for (const crypto::MerkleProofStep& step : s.proof) {
        fnv_.Mix(step.sibling);
        fnv_.Mix(step.sibling_on_left ? 1 : 0);
      }
      fnv_.Mix(s.header.Digest());
    }
  }

  /// Runs the sweep, folding every forgery it mounts; all must be rejected.
  void Sweep(core::RangeStore& db, const fault::SweepOptions& options) {
    const fault::SweepReport report = fault::RunForgerySweep(
        db, options, [this](const fault::Round& r) { Add(r.op.name, r.forged); });
    EXPECT_TRUE(report.AllRejected())
        << (report.forgeries.empty() ? "" : report.forgeries[0]);
    for (const auto& [op, n] : report.attempts_by_op) swept_[op] += n;
  }

  uint64_t Finish() {
    if (!swept_.empty()) {
      EXPECT_EQ(swept_, attempts_);
    }
    for (const auto& [op, n] : attempts_) {
      fnv_.Mix(op);
      fnv_.Mix(static_cast<uint64_t>(n));
    }
    return fnv_.value();
  }

  /// Attempts per operator folded so far.
  const std::map<std::string, int>& attempts() const { return attempts_; }

 private:
  testutil::Fnv fnv_;
  std::map<std::string, int> attempts_;
  std::map<std::string, int> swept_;
};

// --- The stores --------------------------------------------------------------

void PopulateKeys(core::RangeStore& db) {
  for (Key k = 1; k <= 60; ++k) {
    ASSERT_TRUE(db.Insert({k * 5, "value-" + std::to_string(k % 3)}).ok);
  }
}

gem2tree::Gem2Options SmallGem2() {
  gem2tree::Gem2Options options;
  options.m = 2;
  options.smax = 16;
  return options;
}

/// Keys 5, 10, ..., 300 in a flat store of `kind`.
std::unique_ptr<core::RangeStore> FlatKeyStore(AdsKind kind) {
  core::DbOptions options;
  options.kind = kind;
  options.gem2 = SmallGem2();
  if (kind == AdsKind::kGem2Star) options.split_points = {100, 200};
  auto db = std::make_unique<core::AuthenticatedDb>(options);
  PopulateKeys(*db);
  return db;
}

/// The same keys in four GEM2 shards, or in `bounds`' shards.
std::unique_ptr<shard::ShardedDb> ShardedKeyStore(std::vector<Key> bounds = {80, 160, 240}) {
  shard::ShardOptions options;
  options.bounds = std::move(bounds);
  options.base.gem2 = SmallGem2();
  auto db = std::make_unique<shard::ShardedDb>(std::move(options));
  PopulateKeys(*db);
  return db;
}

/// 48 two-attribute records.
std::unique_ptr<multiattr::MultiAttrDb> RecordStore() {
  multiattr::MultiAttrOptions options;
  options.base.gem2 = SmallGem2();
  options.id_bits = 16;
  auto db = std::make_unique<multiattr::MultiAttrDb>(std::move(options));
  for (int64_t id = 0; id < 48; ++id) {
    EXPECT_TRUE(db->InsertRecord({id, {id % 13 - 6, (id * 7) % 19 - 9},
                                  "payload-" + std::to_string(id)})
                    .ok);
  }
  return db;
}

/// ShardFaultTest's store: S=4 over 120 workload keys in [0, 50000].
std::unique_ptr<shard::ShardedDb> ShardFaultStore() {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 50'000;
  wopts.seed = 77;
  workload::WorkloadGenerator gen(wopts);
  shard::ShardOptions options;
  options.base.gem2 = SmallGem2();
  options.bounds = gen.ShardBounds(4);
  auto db = std::make_unique<shard::ShardedDb>(std::move(options));
  for (const auto& op : gen.Batch(120)) EXPECT_TRUE(db->Insert(op.object).ok);
  return db;
}

// --- ForgeryCatalogueGolden --------------------------------------------------

void ExpectGolden(const std::map<std::string, uint64_t>& golden,
                  const std::map<std::string, uint64_t>& got) {
  for (const auto& [sweep, digest] : golden) {
    EXPECT_EQ(got.count(sweep) ? got.at(sweep) : 0, digest) << sweep;
  }
}

// The range sweep (single and wire families alternating) at its default
// seed and rounds, ranges drawn in [0, 320].
TEST(ForgeryCatalogueGolden, RangeSweep) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"MbTree", 5773579277103551039ull},    {"SmbTree", 16463199124581489744ull},
      {"Lsm", 8584971736710139023ull},       {"Gem2", 7860533947579268131ull},
      {"Gem2Star", 12344578368993306674ull}, {"Sharded4", 1998149817542369559ull},
  };
  fault::SweepOptions options;
  options.families = {Family::kSingle, Family::kWire};
  options.domain_hi = 320;
  std::map<std::string, uint64_t> got;
  std::map<std::string, int> flat_gem2;
  for (AdsKind kind : kKinds) {
    Fold fold;
    fold.Sweep(*FlatKeyStore(kind), options);
    got[testutil::KindName(kind)] = fold.Finish();
    if (kind == AdsKind::kGem2) flat_gem2 = fold.attempts();
  }
  Fold sharded;
  sharded.Sweep(*ShardedKeyStore(), options);
  got["Sharded4"] = sharded.Finish();
  ExpectGolden(kGolden, got);
  // The sharded sweep forges inside the slices: every operator the flat
  // GEM2 sweep draws (all but forge_upper_splits) also gets rounds there, so
  // a family that goes silent on composite answers fails here.
  EXPECT_EQ(flat_gem2.size(), 13u);
  for (const auto& [op, n] : flat_gem2) {
    EXPECT_GT(sharded.attempts().count(op) ? sharded.attempts().at(op) : 0, 0) << op;
  }
}

// The spec sweep at its default seed and rounds: range, AND, OR and COUNT.
TEST(ForgeryCatalogueGolden, SpecSweep) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"Gem2", 2553471185509568848ull},
      {"MultiAttr2", 12014403123034565942ull},
  };
  std::map<std::string, uint64_t> got;
  {
    QuerySpec both;
    both.predicates = {{core::PredicateKind::kRange, 0, 20, 200},
                       {core::PredicateKind::kRange, 0, 100, 280}};
    QuerySpec either = both;
    either.op = core::BoolOp::kOr;
    either.predicates[1] = {core::PredicateKind::kRange, 0, 240, 310};
    QuerySpec count = QuerySpec::Range(30, 260);
    count.aggregate = core::AggregateKind::kCount;
    fault::SweepOptions options;
    options.families = {Family::kSpec};
    options.specs = {QuerySpec::Range(40, 220), QuerySpec::Range(0, 400), both, either,
                     count};
    Fold fold;
    fold.Sweep(*FlatKeyStore(AdsKind::kGem2), options);
    got["Gem2"] = fold.Finish();
  }
  {
    QuerySpec both;
    both.predicates = {{core::PredicateKind::kRange, 0, -3, 4},
                       {core::PredicateKind::kRange, 1, -5, 2}};
    QuerySpec either = both;
    either.op = core::BoolOp::kOr;
    QuerySpec count = QuerySpec::Range(-4, 6, 1);
    count.aggregate = core::AggregateKind::kCount;
    fault::SweepOptions options;
    options.families = {Family::kSpec};
    options.specs = {QuerySpec::Range(-2, 5), both, either, count};
    Fold fold;
    fold.Sweep(*RecordStore(), options);
    got["MultiAttr2"] = fold.Finish();
  }
  ExpectGolden(kGolden, got);
}

// ShardFaultTest's and BatchedVerify's composite forgeries: every composite
// operator 40 times from one stream, and the uniform composite sweeps.
TEST(ForgeryCatalogueGolden, CompositeSweeps) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"ShardFault/each", 8159266192093577446ull},
      {"ShardFault/uniform", 14103479592745132630ull},
      {"BatchedVerify", 16340549930329407588ull},
  };
  std::map<std::string, uint64_t> got;
  fault::SweepOptions options;
  options.families = {Family::kComposite};
  {
    const std::unique_ptr<shard::ShardedDb> db = ShardFaultStore();
    options.specs = {QuerySpec::Range(0, 50'000)};
    fault::Forgery honest;
    honest.answer = db->ExecuteSpec(options.specs[0]);
    Fold each;
    Rng rng(4242);
    for (const fault::Operator& op : fault::Operators(Family::kComposite)) {
      for (int trial = 0; trial < 40; ++trial) {
        if (!op.applies(honest, {})) continue;
        fault::Forgery forged = honest;
        ASSERT_TRUE(op.forge(forged, {}, rng)) << op.name;
        each.Add(op.name, forged);
      }
    }
    got["ShardFault/each"] = each.Finish();
    Fold uniform;
    options.rounds = 25;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      options.seed = seed;
      uniform.Sweep(*db, options);
    }
    got["ShardFault/uniform"] = uniform.Finish();
  }
  {
    Fold fold;
    options.seed = 2727;
    options.rounds = 80;
    options.specs = {QuerySpec::Range(0, 300)};
    fold.Sweep(*ShardedKeyStore({120, 240}), options);
    got["BatchedVerify"] = fold.Finish();
  }
  ExpectGolden(kGolden, got);
}

// --- The chain-state family --------------------------------------------------

/// One store with a spec whose answer reads every contract's state, the
/// honest answer and VO_chain, and the VO_chain read one write earlier.
struct World {
  std::unique_ptr<core::RangeStore> store;
  QuerySpec spec;
  SpecResponse answer;
  std::vector<chain::AuthenticatedState> states;
  std::vector<chain::AuthenticatedState> earlier;
};

/// Reads VO_chain, runs `write`, and reads it again with the answer to
/// `world->spec`, so `earlier` is sealed at a lower height than `states`.
void Snapshot(World* world, const std::function<void()>& write) {
  world->earlier = world->store->ReadChainState();
  write();
  world->states = world->store->ReadChainState();
  world->answer = world->store->ExecuteSpec(world->spec);
  ASSERT_NE(world->earlier.front().header.state_root,
            world->states.front().header.state_root);
  const core::VerifiedSpecResult honest =
      world->store->VerifySpecAgainst(world->states, world->spec, world->answer);
  ASSERT_TRUE(honest.ok) << honest.error;
}

World FlatWorld(AdsKind kind) {
  core::DbOptions options;
  options.kind = kind;
  options.gem2 = SmallGem2();
  if (kind == AdsKind::kGem2Star) options.split_points = {67, 134};
  auto db = std::make_unique<core::AuthenticatedDb>(options);
  for (Key k = 1; k <= 199; ++k) {
    EXPECT_TRUE(db->Insert({k, "v" + std::to_string(k)}).ok);
  }
  World world;
  world.spec = QuerySpec::Range(1, 200);
  core::AuthenticatedDb* raw = db.get();
  world.store = std::move(db);
  Snapshot(&world, [raw] { EXPECT_TRUE(raw->Insert({200, "v200"}).ok); });
  return world;
}

World ShardedWorld() {
  shard::ShardOptions options;
  options.bounds = {50, 100, 150};
  options.base.gem2 = SmallGem2();
  auto db = std::make_unique<shard::ShardedDb>(std::move(options));
  for (Key k = 1; k <= 199; ++k) {
    EXPECT_TRUE(db->Insert({k, "v" + std::to_string(k)}).ok);
  }
  World world;
  world.spec = QuerySpec::Range(1, 200);
  shard::ShardedDb* raw = db.get();
  world.store = std::move(db);
  // The write lands in the last shard only, so the earlier states of the
  // other shards carry today's digests under an older header.
  Snapshot(&world, [raw] { EXPECT_TRUE(raw->Insert({200, "v200"}).ok); });
  return world;
}

World MultiAttrWorld() {
  multiattr::MultiAttrOptions options;
  options.base.gem2 = SmallGem2();
  options.id_bits = 16;
  auto db = std::make_unique<multiattr::MultiAttrDb>(std::move(options));
  for (int64_t id = 0; id < 48; ++id) {
    EXPECT_TRUE(db->InsertRecord({id, {id % 13 - 6, (id * 7) % 19 - 9},
                                  "payload-" + std::to_string(id)})
                    .ok);
  }
  World world;
  world.spec.op = core::BoolOp::kOr;
  world.spec.predicates = {{core::PredicateKind::kRange, 0, -6, 6},
                           {core::PredicateKind::kRange, 1, -9, 9}};
  multiattr::MultiAttrDb* raw = db.get();
  world.store = std::move(db);
  Snapshot(&world, [raw] {
    EXPECT_TRUE(raw->InsertRecord({48, {0, 0}, "payload-48"}).ok);
  });
  return world;
}

fault::SweepOptions ChainStateSweep(const World& world) {
  fault::SweepOptions options;
  options.families = {Family::kChainState};
  options.specs = {world.spec};
  options.earlier = world.earlier;
  return options;
}

TEST(ForgeryCatalogueGolden, ChainStateSweep) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"MbTree", 6971533308769567901ull},    {"SmbTree", 10756813572031654374ull},
      {"Lsm", 15219392615822549168ull},      {"Gem2", 7769258986653908843ull},
      {"Gem2Star", 12311106525860146687ull}, {"Sharded4", 7813792230984216762ull},
      {"MultiAttr2", 13888095336697088668ull},
  };
  std::map<std::string, uint64_t> got;
  auto fold = [](World world) {
    Fold fold;
    fold.Sweep(*world.store, ChainStateSweep(world));
    return fold.Finish();
  };
  for (AdsKind kind : kKinds) {
    got[testutil::KindName(kind)] = fold(FlatWorld(kind));
  }
  got["Sharded4"] = fold(ShardedWorld());
  got["MultiAttr2"] = fold(MultiAttrWorld());
  ExpectGolden(kGolden, got);
}

/// Runs the chain-state family over `world`: exactly `attempts` forgeries
/// per operator, each rejected by every check it is put to.
void ExpectAllForgeriesRejected(World& world, const std::map<std::string, int>& attempts) {
  const fault::SweepReport report = fault::RunForgerySweep(
      *world.store, ChainStateSweep(world), [](const fault::Round& r) {
        if (r.op.name != "mixed_headers") return;
        EXPECT_EQ(r.verdict->error, "VO_chain states are not anchored at one header");
      });
  EXPECT_EQ(report.attempts_by_op, attempts);
  EXPECT_EQ(report.rejected_verify, report.attempted);
  for (const std::string& forgery : report.forgeries) ADD_FAILURE() << forgery;
}

class ChainStateForgery : public ::testing::TestWithParam<AdsKind> {};

TEST_P(ChainStateForgery, FlatStoreRejectsEveryForgery) {
  // One state: each digest dropped, duplicated, relabelled and (but the
  // last) swapped with the next, then the state emptied and re-headed.
  const std::map<AdsKind, int> digests = {
      {AdsKind::kMbTree, 1}, {AdsKind::kSmbTree, 1}, {AdsKind::kLsm, 6},
      {AdsKind::kGem2, 6},   {AdsKind::kGem2Star, 16},
  };
  const int n = digests.at(GetParam());
  std::map<std::string, int> attempts = {
      {"drop_digest", n},   {"duplicate_digest", n}, {"relabel_digest", n},
      {"empty_state", 1},   {"stale_header", 1},
  };
  if (n > 1) attempts["reorder_digests"] = n - 1;
  World world = FlatWorld(GetParam());
  ExpectAllForgeriesRejected(world, attempts);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ChainStateForgery, testutil::AllKinds(),
                         testutil::KindParamName);

TEST(ChainStateForgery, ShardedStoreRejectsEveryForgery) {
  World world = ShardedWorld();
  ASSERT_EQ(world.states.size(), 4u);
  ExpectAllForgeriesRejected(world, {{"drop_digest", 21},
                                     {"duplicate_digest", 21},
                                     {"relabel_digest", 21},
                                     {"reorder_digests", 17},
                                     {"swap_contract_digests", 3},
                                     {"empty_state", 4},
                                     {"stale_header", 4},
                                     {"mixed_headers", 4}});
}

TEST(ChainStateForgery, MultiAttrStoreRejectsEveryForgery) {
  World world = MultiAttrWorld();
  ASSERT_EQ(world.states.size(), 2u);
  ExpectAllForgeriesRejected(world, {{"drop_digest", 10},
                                     {"duplicate_digest", 10},
                                     {"relabel_digest", 10},
                                     {"reorder_digests", 8},
                                     {"swap_contract_digests", 1},
                                     {"empty_state", 2},
                                     {"stale_header", 2},
                                     {"mixed_headers", 2}});
}

TEST(ChainStateForgery, WithheldP0NoLongerDropsAPartition) {
  // GEM2, m=2, Smax=16, keys 1..200, query [1, 200]: withholding P0's
  // digest and answer used to verify 24 of the 200 rows as the full answer.
  World world = FlatWorld(AdsKind::kGem2);
  const core::VerifiedSpecResult honest =
      world.store->VerifySpecAgainst(world.states, world.spec, world.answer);
  ASSERT_TRUE(honest.ok) << honest.error;
  EXPECT_EQ(honest.objects.size(), 200u);

  const std::vector<chain::DigestEntry>& digests = world.states[0].digests;
  const auto p0 = std::find_if(digests.begin(), digests.end(),
                               [](const chain::DigestEntry& d) { return d.label == "P0"; });
  ASSERT_NE(p0, digests.end());
  fault::Target target;
  target.digest = static_cast<size_t>(p0 - digests.begin());
  fault::Forgery forged{world.answer, world.states, {}};
  Rng rng;
  ASSERT_TRUE(Op("drop_digest").applies(forged, target));
  ASSERT_TRUE(Op("drop_digest").forge(forged, target, rng));
  ASSERT_EQ(forged.states[0].digests.size(), digests.size() - 1);
  ASSERT_LT(forged.answer.conjuncts[0].trees.size(), world.answer.conjuncts[0].trees.size());

  const core::VerifiedSpecResult r =
      world.store->VerifySpecAgainst(forged.states, world.spec, forged.answer);
  EXPECT_FALSE(r.ok) << r.objects.size() << " rows accepted";
  EXPECT_EQ(r.error, "conjunct 0: VO_chain inclusion proofs do not match the block state root");
}

TEST(ChainStateForgery, MixedHeadersAcrossSlicesAreRejected) {
  // Shard 0's earlier state carries the same digests as today's under an
  // older header; each state verifies on its own, the list does not.
  World world = ShardedWorld();
  EXPECT_EQ(world.earlier[0].digests, world.states[0].digests);
  std::vector<chain::AuthenticatedState> mixed = world.states;
  mixed[0] = world.earlier[0];
  EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(mixed[0]));
  const core::VerifiedSpecResult r =
      world.store->VerifySpecAgainst(mixed, world.spec, world.answer);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "VO_chain states are not anchored at one header");
}

}  // namespace
}  // namespace gem2
