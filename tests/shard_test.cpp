// Sharded multi-contract RangeStore tests: seeded equivalence against an
// unsharded AuthenticatedDb (merged verified results element-for-element
// equal, S in {1,2,4,8}, uniform and zipfian, with deletes), per-shard gas
// neutrality, scatter-plan / composite-forgery rejection, and options
// validation.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "core/wire.h"
#include "fault/adversary.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"
#include "workload/workload.h"

namespace gem2::shard {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using core::QueryResponse;
using core::QuerySpec;
using core::VerifiedSpecResult;

DbOptions SmallGem2Base() {
  DbOptions base;
  base.kind = AdsKind::kGem2;
  base.gem2.m = 2;
  base.gem2.smax = 16;
  return base;
}

// ---------------------------------------------------------------------------
// Chain state reads
// ---------------------------------------------------------------------------

/// Every byte a client receives in one state: contract, header digest, each
/// digest with its label, and the leaf's proof path.
std::string StateBytes(const chain::AuthenticatedState& state) {
  std::string out = state.contract;
  auto append = [&out](const Hash& h) {
    out.append(reinterpret_cast<const char*>(h.data()), h.size());
  };
  append(state.header.Digest());
  for (const chain::DigestEntry& entry : state.digests) {
    out += entry.label;
    append(entry.digest);
  }
  for (const crypto::MerkleProofStep& step : state.proof) {
    append(step.sibling);
    out += step.sibling_on_left ? 'L' : 'R';
  }
  return out;
}

TEST(ShardChainState, EightShardReadComputesTheStateRootOnce) {
  ShardOptions opts;
  opts.base = SmallGem2Base();
  opts.bounds = {100, 200, 300, 400, 500, 600, 700};
  ShardedDb db(std::move(opts));
  ASSERT_EQ(db.num_shards(), 8u);
  for (Key k = 0; k < 800; k += 3) db.Insert({k, "v" + std::to_string(k)});
  const chain::StateCommitStats& stats = db.environment().commit_stats();

  // Pending transactions: the read seals them, and that seal's root is the
  // only one computed.
  uint64_t before = stats.root_computations;
  const std::vector<chain::AuthenticatedState> states = db.ReadChainState();
  EXPECT_EQ(stats.root_computations - before, 1u);
  ASSERT_EQ(states.size(), 8u);

  // Nothing pending: one root computation again, and the same bytes.
  before = stats.root_computations;
  const std::vector<chain::AuthenticatedState> again = db.ReadChainState();
  EXPECT_EQ(stats.root_computations - before, 1u);

  // Per-name reads, and a name listed twice, give byte-identical states.
  std::vector<std::string> names;
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_FALSE(states[i].digests.empty());
    EXPECT_EQ(StateBytes(again[i]), StateBytes(states[i]));
    EXPECT_EQ(StateBytes(db.environment().ReadAuthenticatedState(
                  states[i].contract)),
              StateBytes(states[i]));
    EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(states[i]));
    names.push_back(states[i].contract);
  }
  names.push_back(states[3].contract);
  const std::vector<chain::AuthenticatedState> repeated =
      db.environment().ReadAuthenticatedStates(names);
  ASSERT_EQ(repeated.size(), 9u);
  EXPECT_EQ(StateBytes(repeated[8]), StateBytes(states[3]));
  EXPECT_THROW(db.environment().ReadAuthenticatedStates({"no-such-contract"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Routing and introspection
// ---------------------------------------------------------------------------

TEST(ShardRouting, KeysRouteByPartitionBounds) {
  ShardOptions opts;
  opts.base = SmallGem2Base();
  opts.bounds = {100, 200, 300};
  ShardedDb db(std::move(opts));

  ASSERT_EQ(db.num_shards(), 4u);
  EXPECT_EQ(db.BackendName(), "sharded(4)/GEM2-tree");

  // Shard i owns [bounds[i-1], bounds[i] - 1].
  EXPECT_EQ(db.ShardOf(0), 0u);
  EXPECT_EQ(db.ShardOf(99), 0u);
  EXPECT_EQ(db.ShardOf(100), 1u);
  EXPECT_EQ(db.ShardOf(199), 1u);
  EXPECT_EQ(db.ShardOf(200), 2u);
  EXPECT_EQ(db.ShardOf(299), 2u);
  EXPECT_EQ(db.ShardOf(300), 3u);
  EXPECT_EQ(db.ShardOf(kKeyMax), 3u);

  // Writes land in the owning shard's contract only.
  db.Insert({50, "a"});
  db.Insert({150, "b"});
  db.Insert({151, "c"});
  db.Insert({400, "d"});
  EXPECT_EQ(db.shard(0).size(), 1u);
  EXPECT_EQ(db.shard(1).size(), 2u);
  EXPECT_EQ(db.shard(2).size(), 0u);
  EXPECT_EQ(db.shard(3).size(), 1u);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_TRUE(db.Contains(150));
  EXPECT_FALSE(db.Contains(152));
  db.CheckConsistency();

  // All shard contracts anchor at one header of the one shared chain.
  auto states = db.ReadChainState();
  ASSERT_EQ(states.size(), 4u);
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(states[i].contract, ShardedDb::ShardContractName(i));
    EXPECT_EQ(states[i].header.Digest(), states[0].header.Digest());
  }
}

TEST(ShardBoundsGeneration, ExactCountStrictlyAscendingForBothDistributions) {
  for (auto dist : {workload::KeyDistribution::kUniform,
                    workload::KeyDistribution::kZipfian}) {
    workload::WorkloadOptions wopts;
    wopts.distribution = dist;
    wopts.seed = 7;
    workload::WorkloadGenerator gen(wopts);
    for (size_t shards : {1u, 2u, 4u, 8u, 16u}) {
      auto bounds = gen.ShardBounds(shards);
      ASSERT_EQ(bounds.size(), shards - 1) << "S=" << shards;
      for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]) << "S=" << shards;
      if (!bounds.empty()) {
        EXPECT_GT(bounds.front(), wopts.domain_min);
        EXPECT_LE(bounds.back(), wopts.domain_max);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: sharded == unsharded, element for element
// ---------------------------------------------------------------------------

struct EquivParam {
  size_t shards;
  workload::KeyDistribution dist;
};

class ShardEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(ShardEquivalenceTest, VerifiedResultsMatchUnsharded) {
  const EquivParam param = GetParam();

  workload::WorkloadOptions wopts;
  wopts.distribution = param.dist;
  wopts.domain_max = 200'000;
  wopts.update_ratio = 0.25;
  wopts.seed = 9000 + param.shards;
  workload::WorkloadGenerator gen(wopts);

  ShardOptions sopts;
  sopts.base = SmallGem2Base();
  sopts.bounds = gen.ShardBounds(param.shards);
  ShardedDb sharded(std::move(sopts));
  AuthenticatedDb unsharded(SmallGem2Base());

  // Identical op stream into both stores, through the common interface.
  core::RangeStore& a = sharded;
  core::RangeStore& b = unsharded;
  for (const auto& op : gen.Batch(240)) {
    if (op.type == workload::Operation::Type::kInsert) {
      ASSERT_TRUE(a.Insert(op.object).ok);
      ASSERT_TRUE(b.Insert(op.object).ok);
    } else {
      ASSERT_TRUE(a.Update(op.object).ok);
      ASSERT_TRUE(b.Update(op.object).ok);
    }
  }
  const auto& keys = gen.inserted_keys();
  for (size_t i = 0; i < keys.size(); i += 7) {
    ASSERT_TRUE(a.Delete(keys[i]).ok);
    ASSERT_TRUE(b.Delete(keys[i]).ok);
  }
  EXPECT_EQ(a.size(), b.size());
  sharded.CheckConsistency();

  auto check_range = [&](Key lb, Key ub) {
    const QuerySpec range = QuerySpec::Range(lb, ub);
    VerifiedSpecResult vs = a.AuthenticatedSpec(range);
    VerifiedSpecResult vu = b.AuthenticatedSpec(range);
    ASSERT_TRUE(vs.ok) << vs.error;
    ASSERT_TRUE(vu.ok) << vu.error;
    EXPECT_EQ(vs.objects, vu.objects);
    EXPECT_EQ(vs.tombstones_filtered, vu.tombstones_filtered);

    // The same answer survives the wire: serialize, parse, verify.
    VerifiedSpecResult via_wire = a.VerifySpecWire(range, a.SpecWire(range));
    ASSERT_TRUE(via_wire.ok) << via_wire.error;
    EXPECT_EQ(via_wire.objects, vs.objects);
  };

  for (double sel : {0.01, 0.05, 0.10}) {
    auto q = gen.NextQuery(sel);
    check_range(q.lb, q.ub);
  }
  check_range(wopts.domain_min, wopts.domain_max);  // crosses every seam

  // Verification against pre-fetched chain state (cached-VO_chain client).
  const QuerySpec everything =
      QuerySpec::Range(wopts.domain_min, wopts.domain_max);
  VerifiedSpecResult against = sharded.VerifySpecAgainst(
      sharded.ReadChainState(), everything, a.ExecuteSpec(everything));
  ASSERT_TRUE(against.ok) << against.error;
  EXPECT_EQ(against.objects, b.AuthenticatedSpec(everything).objects);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardEquivalenceTest,
    ::testing::Values(EquivParam{1, workload::KeyDistribution::kUniform},
                      EquivParam{2, workload::KeyDistribution::kUniform},
                      EquivParam{4, workload::KeyDistribution::kUniform},
                      EquivParam{8, workload::KeyDistribution::kUniform},
                      EquivParam{1, workload::KeyDistribution::kZipfian},
                      EquivParam{2, workload::KeyDistribution::kZipfian},
                      EquivParam{4, workload::KeyDistribution::kZipfian},
                      EquivParam{8, workload::KeyDistribution::kZipfian}),
    [](const auto& info) {
      return std::string(info.param.dist == workload::KeyDistribution::kUniform
                             ? "Uniform"
                             : "Zipfian") +
             "S" + std::to_string(info.param.shards);
    });

// ---------------------------------------------------------------------------
// Gas neutrality: a shard's contract meters exactly like an unsharded
// contract holding the same keys (fig7-style op stream)
// ---------------------------------------------------------------------------

TEST(ShardGas, PerShardGasBitIdenticalToUnshardedSameKeys) {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 100'000;
  wopts.seed = 31;
  workload::WorkloadGenerator gen(wopts);

  const size_t kShards = 4;
  ShardOptions sopts;
  sopts.base = SmallGem2Base();
  sopts.bounds = gen.ShardBounds(kShards);
  ShardedDb sharded(sopts);

  // One unsharded reference db per shard, fed exactly the keys that shard
  // owns. Default contract name on purpose: storage gas is name-independent.
  std::vector<std::unique_ptr<AuthenticatedDb>> refs;
  for (size_t i = 0; i < kShards; ++i)
    refs.push_back(std::make_unique<AuthenticatedDb>(SmallGem2Base()));

  auto expect_same_gas = [](const chain::TxReceipt& got,
                            const chain::TxReceipt& want, Key key) {
    ASSERT_TRUE(got.ok);
    ASSERT_TRUE(want.ok);
    EXPECT_EQ(got.gas_used, want.gas_used) << "key " << key;
  };

  auto ops = gen.Batch(160);
  for (const auto& op : ops) {
    size_t s = sharded.ShardOf(op.object.key);
    expect_same_gas(sharded.Insert(op.object), refs[s]->Insert(op.object),
                    op.object.key);
  }
  // Updates and deletes over a sample of the inserted population.
  const auto& keys = gen.inserted_keys();
  for (size_t i = 0; i < keys.size(); i += 5) {
    size_t s = sharded.ShardOf(keys[i]);
    Object updated{keys[i], "updated-value"};
    expect_same_gas(sharded.Update(updated), refs[s]->Update(updated), keys[i]);
  }
  for (size_t i = 2; i < keys.size(); i += 9) {
    size_t s = sharded.ShardOf(keys[i]);
    expect_same_gas(sharded.Delete(keys[i]), refs[s]->Delete(keys[i]), keys[i]);
  }
}

// ---------------------------------------------------------------------------
// Composite forgeries: the scatter-plan check plus per-slice verification
// rejects every structured mutation
// ---------------------------------------------------------------------------

class ShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::WorkloadOptions wopts;
    wopts.domain_max = 50'000;
    wopts.seed = 77;
    gen_.emplace(wopts);

    ShardOptions sopts;
    sopts.base = SmallGem2Base();
    sopts.bounds = gen_->ShardBounds(4);
    db_ = std::make_unique<ShardedDb>(std::move(sopts));
    for (const auto& op : gen_->Batch(120)) ASSERT_TRUE(db_->Insert(op.object).ok);

    lb_ = 0;
    ub_ = wopts.domain_max;
    response_ = testutil::RangeConjunct(*db_, lb_, ub_);
    ASSERT_EQ(response_.slices.size(), 4u);
    ASSERT_TRUE(testutil::VerifyConjunct(*db_, lb_, ub_, response_).ok);
  }

  std::optional<workload::WorkloadGenerator> gen_;
  std::unique_ptr<ShardedDb> db_;
  Key lb_ = 0, ub_ = 0;
  QueryResponse response_;
};

TEST_F(ShardFaultTest, EveryCompositeOperatorIsRejected) {
  fault::Forgery honest;
  honest.answer.conjuncts = {response_};
  Rng rng(4242);
  for (const fault::Operator& op : fault::Operators(fault::Family::kComposite)) {
    ASSERT_TRUE(op.applies(honest, {})) << op.name;
    for (int trial = 0; trial < 40; ++trial) {
      fault::Forgery forged = honest;
      ASSERT_TRUE(op.forge(forged, {}, rng)) << op.name;
      VerifiedSpecResult vr =
          testutil::VerifyConjunctImage(*db_, lb_, ub_, forged.image);
      EXPECT_FALSE(vr.ok) << op.name << " trial " << trial
                          << " accepted: " << vr.error;
      EXPECT_FALSE(vr.error.empty());
    }
  }
}

TEST_F(ShardFaultTest, SweepOfUniformCompositeMutationsIsFullyRejected) {
  // Strict 100% rejection: composite operators are all targeted.
  fault::SweepOptions options;
  options.families = {fault::Family::kComposite};
  options.specs = {QuerySpec::Range(lb_, ub_)};
  options.rounds = 25;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    const fault::SweepReport report = fault::RunForgerySweep(*db_, options);
    EXPECT_EQ(report.attempted, options.rounds);
    EXPECT_TRUE(report.AllRejected())
        << (report.forgeries.empty() ? "" : report.forgeries[0]);
  }
}

TEST_F(ShardFaultTest, CrossShapeResponsesAreRejected) {
  // A single (unsharded-shape) response never verifies against a sharded
  // client: it does not match the scatter plan.
  AuthenticatedDb single(SmallGem2Base());
  for (const auto& obj :
       testutil::VerifyConjunct(*db_, lb_, ub_, response_).objects) {
    ASSERT_TRUE(single.Insert(obj).ok);
  }
  QueryResponse flat = testutil::RangeConjunct(single, lb_, ub_);
  VerifiedSpecResult vr = testutil::VerifyConjunct(*db_, lb_, ub_, flat);
  EXPECT_FALSE(vr.ok);

  // And a composite never verifies against a single-contract client.
  VerifiedSpecResult reverse =
      testutil::VerifyConjunct(single, lb_, ub_, response_);
  EXPECT_FALSE(reverse.ok);
  EXPECT_NE(reverse.error.find("composite"), std::string::npos);
}

TEST_F(ShardFaultTest, TruncatedAndVersionSkewedWireImagesFailVerification) {
  Bytes wire = db_->SpecWire(QuerySpec::Range(lb_, ub_));
  ASSERT_FALSE(wire.empty());

  Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(wire.size() / 2));
  VerifiedSpecResult vr =
      db_->VerifySpecWire(QuerySpec::Range(lb_, ub_), truncated);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "malformed wire image");

  Bytes skewed = wire;
  skewed[0] = 1;  // an older format version
  vr = db_->VerifySpecWire(QuerySpec::Range(lb_, ub_), skewed);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "malformed wire image");
}

// ---------------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------------

TEST(DbOptionsValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(DbOptions{}.Validate());
}

TEST(DbOptionsValidate, RejectsEmptyContractName) {
  DbOptions o;
  o.contract_name.clear();
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsFanoutBelowTwo) {
  DbOptions o;
  o.gem2.fanout = 1;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsZeroIndexMergeSlots) {
  DbOptions o;
  o.gem2.m = 0;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsZeroMergeThreshold) {
  DbOptions o;
  o.gem2.smax = 0;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsGem2StarWithoutSplitPoints) {
  DbOptions o;
  o.kind = AdsKind::kGem2Star;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsUnsortedSplitPoints) {
  DbOptions o;
  o.kind = AdsKind::kGem2Star;
  o.split_points = {200, 100};
  EXPECT_THROW(o.Validate(), std::invalid_argument);
  o.split_points = {100, 100};
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsZeroGasLimit) {
  DbOptions o;
  o.env.gas_limit = 0;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, RejectsZeroTxsPerBlock) {
  DbOptions o;
  o.env.txs_per_block = 0;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(DbOptionsValidate, ConstructorValidates) {
  DbOptions o;
  o.gem2.m = 0;
  EXPECT_THROW(AuthenticatedDb db(o), std::invalid_argument);
}

TEST(ShardOptionsValidate, AcceptsSingleShard) {
  ShardOptions o;
  o.base = SmallGem2Base();
  EXPECT_NO_THROW(o.Validate());
}

TEST(ShardOptionsValidate, RejectsUnsortedBounds) {
  ShardOptions o;
  o.base = SmallGem2Base();
  o.bounds = {200, 100};
  EXPECT_THROW(o.Validate(), std::invalid_argument);
  o.bounds = {100, 100};
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(ShardOptionsValidate, RejectsCallerSuppliedSharedEnv) {
  chain::Environment env{chain::EnvironmentOptions{}};
  ShardOptions o;
  o.base = SmallGem2Base();
  o.base.shared_env = &env;
  EXPECT_THROW(o.Validate(), std::invalid_argument);
}

TEST(ShardOptionsValidate, PropagatesBaseValidation) {
  ShardOptions o;
  o.base = SmallGem2Base();
  o.base.gem2.smax = 0;
  EXPECT_THROW(ShardedDb db(std::move(o)), std::invalid_argument);
}

}  // namespace
}  // namespace gem2::shard
