// Adversarial-SP harness: hundreds of seeded structured forgeries and byte
// corruptions against every ADS kind must all be rejected by the wire codec
// or client verification — the paper's tamper-evidence claim, measured.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <optional>
#include <string_view>

#include "ads_kinds.h"
#include "core/authenticated_db.h"
#include "fault/adversary.h"
#include "fault/fault.h"
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

const Operator& Op(std::string_view name) {
  const auto all = Catalogue();
  const auto it = std::find_if(all.begin(), all.end(),
                               [name](const Operator& op) { return op.name == name; });
  EXPECT_NE(it, all.end()) << name;
  return *it;
}

/// The range sweep: structured forgeries on even rounds, surgical wire
/// forgeries on odd ones.
SweepOptions RangeSweep(uint64_t seed, int rounds) {
  SweepOptions options;
  options.seed = seed;
  options.families = {Family::kSingle, Family::kWire};
  options.rounds = rounds;
  return options;
}

/// `honest` forged by `op`; std::nullopt when it does not apply.
std::optional<Forgery> Forge(const Operator& op, const Forgery& honest, Rng& rng,
                             const Target& target = {}) {
  if (!op.applies(honest, target)) return std::nullopt;
  Forgery forged = honest;
  if (!op.forge(forged, target, rng)) return std::nullopt;
  return forged;
}

Forgery RangeAnswer(core::RangeStore& db, Key lb, Key ub) {
  Forgery honest;
  honest.answer = db.ExecuteSpec(core::QuerySpec::Range(lb, ub));
  return honest;
}

std::unique_ptr<AuthenticatedDb> MakeSeededDb(AdsKind kind, uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;  // matches SweepOptions' query domain
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

  const SweepOptions options = RangeSweep(seed, 500);  // the acceptance floor, per ADS
  SweepReport report = RunForgerySweep(*db, options);

  EXPECT_EQ(report.attempted, options.rounds);
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
  EXPECT_GT(report.attempts_by_op["shift_range_bounds"], 0);
  EXPECT_GT(report.attempts_by_op["corrupt_wire_bytes"], 0);
  EXPECT_GE(report.attempts_by_op.size(), 8u) << testutil::KindName(GetParam());
  if (GetParam() == AdsKind::kGem2Star) {
    EXPECT_GT(report.attempts_by_op["forge_upper_splits"], 0);
  } else {
    // Only GEM2* carries upper-level split points to forge.
    EXPECT_EQ(report.attempts_by_op.count("forge_upper_splits"), 0u);
  }

  // The adversary must not have perturbed the database: an honest query
  // still verifies afterwards.
  EXPECT_TRUE(db->AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
}

TEST_P(AdversarialSweep, ReportReproducesFromSeedAlone) {
  SeedReporter seed(404);
  auto db = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));

  const SweepOptions options = RangeSweep(seed, 120);
  const SweepReport first = RunForgerySweep(*db, options);
  const SweepReport second = RunForgerySweep(*db, options);
  EXPECT_EQ(first, second);

  // And from a from-scratch rebuild of the same world, not just the same
  // instance: the logged seed is the whole reproduction recipe.
  auto rebuilt = MakeSeededDb(GetParam(), DeriveSeed(seed, 1));
  EXPECT_EQ(RunForgerySweep(*rebuilt, options), first);
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

// Each single-family operator, applied directly, yields an image that fails
// parse or verification — declining is only legal for the conditional
// operators on responses lacking the material they forge.
TEST(Mutator, EveryStructuredOperatorProducesARejectedImage) {
  SeedReporter seed(31337);
  auto db = MakeSeededDb(AdsKind::kGem2Star, DeriveSeed(seed, 1));
  const Forgery honest = RangeAnswer(*db, 1000, 900'000);
  const core::QueryResponse& response = honest.answer.conjuncts[0];
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 1000, 900'000, response).ok);

  Rng rng(DeriveSeed(seed, 2));
  int applied = 0;
  for (const Operator& op : Operators(Family::kSingle)) {
    std::optional<Forgery> m = Forge(op, honest, rng);
    if (!m.has_value()) continue;
    ++applied;
    core::VerifiedSpecResult vr =
        testutil::VerifyConjunctImage(*db, 1000, 900'000, m->image);
    if (vr.ok) {
      // Only a blind flip may be benign, and then only if nothing semantic
      // changed (canonical re-serialization is the original).
      ASSERT_EQ(op.attack, AttackClass::kMalformed) << op.name << " accepted";
      auto parsed = core::ParseResponse(m->image);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(core::SerializeResponse(*parsed, core::WireVersion::kV3),
                core::SerializeResponse(response, core::WireVersion::kV3))
          << op.name << " accepted with semantic change";
    }
  }
  // A wide query against a populated GEM2* database has objects, multiple
  // trees, hash sites, and split points: the whole family applies.
  EXPECT_EQ(applied, static_cast<int>(Operators(Family::kSingle).size()));
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

  const SweepOptions options = RangeSweep(seed, 500);  // the acceptance floor
  SweepReport report = RunForgerySweep(*db, options);

  EXPECT_EQ(report.attempted, options.rounds);
  EXPECT_TRUE(report.AllRejected())
      << report.forged() << " forgeries accepted; first: "
      << (report.forgeries.empty() ? "" : report.forgeries[0]);
  EXPECT_EQ(report.rejected_parse + report.rejected_verify + report.canonical_noop,
            report.attempted);
  // Both rejection lines fire: the surgical operators mostly die in the
  // codec, the structured catalogue on the verifier.
  EXPECT_GT(report.rejected_verify, report.attempted / 8);
  EXPECT_GT(report.rejected_parse, report.attempted / 8);

  // The wire operators all ran, alongside the single family.
  for (const Operator& op : Operators(Family::kWire)) {
    EXPECT_GT(report.attempts_by_op[std::string(op.name)], 0) << op.name;
  }
  EXPECT_GT(report.attempts_by_op["shift_range_bounds"], 0);

  // The adversary must not have perturbed the database.
  EXPECT_TRUE(db->AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
}

TEST(WireV3Adversary, ReportReproducesFromSeedAlone) {
  SeedReporter seed(6121);
  auto db = MakeV3SweepDb(DeriveSeed(seed, 1));

  const SweepOptions options = RangeSweep(seed, 120);
  const SweepReport first = RunForgerySweep(*db, options);
  EXPECT_EQ(RunForgerySweep(*db, options), first);

  auto rebuilt = MakeV3SweepDb(DeriveSeed(seed, 1));
  EXPECT_EQ(RunForgerySweep(*rebuilt, options), first);
}

// Each wire operator, applied directly, yields a rejected image; on
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
  const Forgery honest = RangeAnswer(*db, 40, 220);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 40, 220, honest.answer.conjuncts[0]).ok);

  Rng rng(DeriveSeed(seed, 2));
  for (int round = 0; round < 20; ++round) {
    for (const Operator& op : Operators(Family::kWire)) {
      std::optional<Forgery> m = Forge(op, honest, rng);
      ASSERT_TRUE(m.has_value()) << op.name;
      core::VerifiedSpecResult vr =
          testutil::VerifyConjunctImage(*db, 40, 220, m->image);
      EXPECT_FALSE(vr.ok) << op.name << " accepted";
    }
  }

  // Past every key: the VO is all boundary and pruned structure.
  const Forgery empty = RangeAnswer(*db, 600, 900);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 600, 900, empty.answer.conjuncts[0]).ok);
  EXPECT_FALSE(Op("value_length_skew").applies(empty, {}));
  // The key-chain operator still works there.
  std::optional<Forgery> delta = Forge(Op("delta_key_corrupt"), empty, rng);
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(testutil::VerifyConjunctImage(*db, 600, 900, delta->image).ok);
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
  Forgery honest;
  honest.answer = db.ExecuteSpec(spec);
  Rng rng(1);
  const Target payloads;  // the key is each value's only attribute

  // The pre-filter withholds exactly the keys the other predicate rejects.
  std::optional<Forgery> prefilter = Forge(Op("prefilter_conjunct"), honest, rng, payloads);
  ASSERT_TRUE(prefilter.has_value());
  std::optional<core::SpecResponse> forged =
      core::ParseSpecResponse(prefilter->image);
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
  EXPECT_FALSE(Op("rewrite_other_attr").applies(honest, payloads));
}

TEST(SeedPlumbing, DeriveSeedSeparatesStreams) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(99, 7), DeriveSeed(99, 7));
}

}  // namespace
}  // namespace gem2::fault
