// Adversarial-SP harness: hundreds of seeded structured forgeries and byte
// corruptions against every ADS kind must all be rejected by the wire codec
// or client verification — the paper's tamper-evidence claim, measured.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>

#include "ads_kinds.h"
#include "core/authenticated_db.h"
#include "fault/adversary.h"
#include "fault/fault.h"
#include "fault/mutator.h"
#include "multiattr/multiattr_db.h"
#include "range_conjunct.h"
#include "seed_util.h"
#include "workload/workload.h"

namespace gem2::fault {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using testutil::SeedReporter;

std::unique_ptr<AuthenticatedDb> MakeSeededDb(AdsKind kind, uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;  // matches AdversaryOptions' query domain
  wopts.seed = seed;
  workload::WorkloadGenerator gen(wopts);

  DbOptions options;
  options.kind = kind;
  options.gem2.m = 4;
  options.gem2.smax = 64;
  options.env.gas_limit = 1'000'000'000'000ull;
  if (kind == AdsKind::kGem2Star) options.split_points = gen.SplitPoints(8);

  auto db = std::make_unique<AuthenticatedDb>(options);
  const size_t inserts =
      (kind == AdsKind::kSmbTree || kind == AdsKind::kLsm) ? 150 : 300;
  for (const workload::Operation& op : gen.Batch(inserts)) {
    if (!db->Contains(op.object.key)) EXPECT_TRUE(db->Insert(op.object).ok);
  }
  return db;
}

class AdversarialSweep : public ::testing::TestWithParam<AdsKind> {};

TEST_P(AdversarialSweep, FiveHundredForgeriesAllRejected) {
  SeedReporter seed(2029);
  auto db = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));

  AdversaryOptions options;
  options.seed = seed;
  options.mutations = 500;  // the acceptance floor, per ADS
  AdversaryReport report = RunAdversarialSweep(*db, options);

  EXPECT_EQ(report.attempted, options.mutations);
  EXPECT_TRUE(report.AllRejected()) << report.forged() << " forgeries accepted; first: "
                                    << (report.forgeries.empty() ? "" : report.forgeries[0]);
  // Every attempt is accounted for: rejected at the codec, rejected by the
  // client, or a byte flip that decoded back to the canonical original.
  EXPECT_EQ(report.rejected_parse + report.rejected_verify + report.canonical_noop,
            report.attempted);
  // Structured forgeries dominate and land on the verifier, not just the
  // codec: the sweep must exercise the security argument, not the framing.
  EXPECT_GT(report.rejected_verify, report.attempted / 4);

  // Operator coverage: the always-applicable operators certainly ran, and
  // the sweep touched a broad slice of the catalogue.
  EXPECT_GT(report.attempts_by_op[MutationOpName(MutationOp::kShiftRangeBounds)], 0);
  EXPECT_GT(report.attempts_by_op[MutationOpName(MutationOp::kCorruptWireBytes)], 0);
  EXPECT_GE(report.attempts_by_op.size(), 8u) << testutil::KindName(GetParam());
  if (GetParam() == AdsKind::kGem2Star) {
    EXPECT_GT(report.attempts_by_op[MutationOpName(MutationOp::kForgeUpperSplits)], 0);
  } else {
    // Only GEM2* carries upper-level split points to forge.
    EXPECT_EQ(report.attempts_by_op.count(MutationOpName(MutationOp::kForgeUpperSplits)), 0u);
  }

  // The adversary must not have perturbed the database: an honest query
  // still verifies afterwards.
  EXPECT_TRUE(db->AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
}

TEST_P(AdversarialSweep, ReportReproducesFromSeedAlone) {
  SeedReporter seed(404);
  auto db = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));

  AdversaryOptions options;
  options.seed = seed;
  options.mutations = 120;
  const AdversaryReport first = RunAdversarialSweep(*db, options);
  const AdversaryReport second = RunAdversarialSweep(*db, options);
  EXPECT_EQ(first, second);

  // And from a from-scratch rebuild of the same world, not just the same
  // instance: the logged seed is the whole reproduction recipe.
  auto rebuilt = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));
  EXPECT_EQ(RunAdversarialSweep(*rebuilt, options), first);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AdversarialSweep, testutil::AllKinds(),
                         testutil::KindParamName);

class StaleReplay : public ::testing::TestWithParam<AdsKind> {};

TEST_P(StaleReplay, CapturedResponseFailsAgainstAdvancedChain) {
  SeedReporter seed(7171);
  auto db = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));

  std::string why;
  EXPECT_TRUE(StaleReplayRejected(*db, 0, 1'000'000, /*extra_inserts=*/3,
                                  DeriveSeed(seed, 2), &why));
  EXPECT_FALSE(why.empty());

  // The replay harness's own inserts advanced the chain; fresh answers are
  // unaffected.
  EXPECT_TRUE(db->AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StaleReplay, testutil::AllKinds(),
                         testutil::KindParamName);

// Each structured operator, applied directly, yields an image that fails
// parse or verification — std::nullopt is only legal for the conditional
// operators on responses lacking the material they forge.
TEST(Mutator, EveryStructuredOperatorProducesARejectedImage) {
  SeedReporter seed(31337);
  auto db = MakeSeededDb(AdsKind::kGem2Star, DeriveSeed(seed, 1));
  const core::QueryResponse response =
      testutil::RangeConjunct(*db, 1000, 900'000);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 1000, 900'000, response).ok);

  ResponseMutator mutator(DeriveSeed(seed, 2));
  int applied = 0;
  for (MutationOp op : kAllMutationOps) {
    std::optional<Mutation> m = mutator.Apply(op, response);
    if (!m.has_value()) continue;
    ++applied;
    EXPECT_EQ(m->op, op);
    EXPECT_EQ(m->byte_level, op == MutationOp::kCorruptWireBytes);
    core::VerifiedSpecResult vr =
        testutil::VerifyConjunctImage(*db, 1000, 900'000, m->wire);
    if (vr.ok) {
      // Only a byte-level flip may be benign, and then only if nothing
      // semantic changed (canonical re-serialization is the original).
      ASSERT_TRUE(m->byte_level) << MutationOpName(op) << " accepted";
      auto parsed = core::ParseResponse(m->wire);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(core::SerializeResponse(*parsed, core::WireVersion::kV3),
                core::SerializeResponse(response, core::WireVersion::kV3))
          << MutationOpName(op) << " accepted with semantic change";
    }
  }
  // A wide query against a populated GEM2* database has objects, multiple
  // trees, hash sites, and split points: the whole catalogue applies.
  EXPECT_EQ(applied, static_cast<int>(kAllMutationOps.size()));
}

// The same harness over GEM2* with a duplicate-value alphabet, where
// repeated value hashes are common; half its rounds are the surgical wire
// operators.
std::unique_ptr<AuthenticatedDb> MakeV3SweepDb(uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;
  wopts.seed = seed;
  workload::WorkloadGenerator gen(wopts);

  DbOptions options;
  options.kind = AdsKind::kGem2Star;
  options.gem2.m = 4;
  options.gem2.smax = 64;
  options.env.gas_limit = 1'000'000'000'000ull;
  options.split_points = gen.SplitPoints(8);

  auto db = std::make_unique<AuthenticatedDb>(options);
  for (const workload::Operation& op : gen.Batch(300)) {
    if (db->Contains(op.object.key)) continue;
    EXPECT_TRUE(
        db->Insert({op.object.key,
                    "dup-" + std::to_string(static_cast<uint64_t>(op.object.key) % 3)})
            .ok);
  }
  return db;
}

TEST(WireV3Adversary, FiveHundredForgeriesAllRejected) {
  SeedReporter seed(6007);
  auto db = MakeV3SweepDb(DeriveSeed(seed, 1));

  AdversaryOptions options;
  options.seed = seed;
  options.mutations = 500;  // the acceptance floor, matching the sweep above
  AdversaryReport report = RunAdversarialSweep(*db, options);

  EXPECT_EQ(report.attempted, options.mutations);
  EXPECT_TRUE(report.AllRejected())
      << report.forged() << " forgeries accepted; first: "
      << (report.forgeries.empty() ? "" : report.forgeries[0]);
  EXPECT_EQ(report.rejected_parse + report.rejected_verify + report.canonical_noop,
            report.attempted);
  // Both rejection lines fire: the surgical operators mostly die in the
  // codec, the structured catalogue on the verifier.
  EXPECT_GT(report.rejected_verify, report.attempted / 8);
  EXPECT_GT(report.rejected_parse, report.attempted / 8);

  // The v3-specific operators all ran, alongside the structured catalogue.
  for (WireV3MutationOp op : kAllWireV3MutationOps) {
    EXPECT_GT(report.attempts_by_op[WireV3MutationOpName(op)], 0)
        << WireV3MutationOpName(op);
  }
  EXPECT_GT(report.attempts_by_op[MutationOpName(MutationOp::kShiftRangeBounds)], 0);

  // The adversary must not have perturbed the database.
  EXPECT_TRUE(db->AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
}

TEST(WireV3Adversary, ReportReproducesFromSeedAlone) {
  SeedReporter seed(6121);
  auto db = MakeV3SweepDb(DeriveSeed(seed, 1));

  AdversaryOptions options;
  options.seed = seed;
  options.mutations = 120;
  const AdversaryReport first = RunAdversarialSweep(*db, options);
  EXPECT_EQ(RunAdversarialSweep(*db, options), first);

  auto rebuilt = MakeV3SweepDb(DeriveSeed(seed, 1));
  EXPECT_EQ(RunAdversarialSweep(*rebuilt, options), first);
}

// Each v3 surgical operator, applied directly, yields a rejected image; on
// a response without result records the length operator declines rather
// than forge something unrelated.
TEST(Mutator, EveryWireV3OperatorProducesARejectedImage) {
  SeedReporter seed(90210);
  DbOptions options;
  options.kind = AdsKind::kGem2Star;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  options.split_points = {100, 200};
  auto db = std::make_unique<AuthenticatedDb>(options);
  for (Key k = 1; k <= 60; ++k) {
    ASSERT_TRUE(db->Insert({k * 5, "value-" + std::to_string(k % 3)}).ok);
  }
  const core::QueryResponse response = testutil::RangeConjunct(*db, 40, 220);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 40, 220, response).ok);

  ResponseMutator mutator(DeriveSeed(seed, 2));
  for (int round = 0; round < 20; ++round) {
    for (WireV3MutationOp op : kAllWireV3MutationOps) {
      std::optional<WireV3Mutation> m = mutator.ApplyWireV3(op, response);
      ASSERT_TRUE(m.has_value()) << WireV3MutationOpName(op);
      EXPECT_EQ(m->op, op);
      core::VerifiedSpecResult vr =
          testutil::VerifyConjunctImage(*db, 40, 220, m->wire);
      EXPECT_FALSE(vr.ok) << WireV3MutationOpName(op) << " accepted";
    }
  }

  // Past every key: the VO is all boundary and pruned structure.
  const core::QueryResponse empty = testutil::RangeConjunct(*db, 600, 900);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 600, 900, empty).ok);
  EXPECT_FALSE(
      mutator.ApplyWireV3(WireV3MutationOp::kValueLengthSkew, empty).has_value());
  // The key-chain operator still works there.
  std::optional<WireV3Mutation> delta =
      mutator.ApplyWireV3(WireV3MutationOp::kDeltaKeyCorrupt, empty);
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(testutil::VerifyConjunctImage(*db, 600, 900, delta->wire).ok);
}

// The spec operators read a shipped object's attributes from the store's
// shape, not from whether its bytes decode as a record: every payload of
// this single-attribute store is also a valid record encoding.
TEST(Mutator, SpecOperatorsReadAttributesFromTheStoreShape) {
  DbOptions options;
  options.kind = AdsKind::kGem2;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  AuthenticatedDb db(options);
  const std::string record_like = multiattr::EncodeRecord({5, {1, 2}, ""});
  ASSERT_TRUE(multiattr::DecodeRecord(record_like).has_value());
  for (Key k = 0; k < 40; ++k) ASSERT_TRUE(db.Insert({k, record_like}).ok);
  core::QuerySpec spec;
  spec.predicates = {{core::PredicateKind::kRange, 0, 0, 29},
                     {core::PredicateKind::kRange, 0, 10, 39}};
  const core::SpecResponse response = db.ExecuteSpec(spec);
  ResponseMutator mutator(1);

  // The pre-filter withholds exactly the keys the other predicate rejects.
  std::optional<SpecMutation> prefilter = mutator.ApplySpec(
      SpecMutationOp::kPrefilterConjunct, response, ValueShape::kPayload);
  ASSERT_TRUE(prefilter.has_value());
  std::optional<core::SpecResponse> forged =
      core::ParseSpecResponse(prefilter->wire);
  ASSERT_TRUE(forged.has_value());
  std::vector<Key> shipped;
  for (const core::TreeResultSet& tree : forged->conjuncts[0].trees) {
    for (const Object& obj : tree.objects) shipped.push_back(obj.key);
  }
  std::sort(shipped.begin(), shipped.end());
  std::vector<Key> both;
  for (Key k = 10; k <= 29; ++k) both.push_back(k);
  EXPECT_EQ(shipped, both);
  EXPECT_FALSE(db.VerifySpecFor(spec, *forged).ok);

  // A payload store has no other attribute to rewrite.
  EXPECT_FALSE(mutator.ApplySpec(SpecMutationOp::kRewriteOtherAttr, response,
                                 ValueShape::kPayload)
                   .has_value());
}

TEST(SeedPlumbing, DeriveSeedSeparatesStreams) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(99, 7), DeriveSeed(99, 7));
}

}  // namespace
}  // namespace gem2::fault
