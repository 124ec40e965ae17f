// Composite client verification: a sharded client verifies a composite's
// slices one after another in plan order, and the first failing slice
// decides the error. The pre-gathered-state path (VerifySpecAgainst) must
// agree with the chain-reading path (VerifySpecFor) on honest responses and
// on every seeded composite forgery.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/authenticated_db.h"
#include "core/wire.h"
#include "fault/fault.h"
#include "fault/mutator.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"

namespace gem2::core {
namespace {

/// Three shards over keys 5, 10, ..., 300: every slice of [0, 300] holds
/// records.
std::unique_ptr<shard::ShardedDb> MakeWorld() {
  shard::ShardOptions options;
  options.bounds = {120, 240};
  options.base.kind = AdsKind::kGem2;
  options.base.gem2.m = 2;
  options.base.gem2.smax = 16;
  auto db = std::make_unique<shard::ShardedDb>(std::move(options));
  for (Key k = 1; k <= 60; ++k) {
    EXPECT_TRUE(db->Insert({k * 5, "value-" + std::to_string(k % 3)}).ok);
  }
  return db;
}

/// A copy of `answer` whose conjunct has the first record of each listed
/// slice rewritten: each listed slice then fails its own VO check.
SpecResponse ForgeSlices(const SpecResponse& answer,
                         std::initializer_list<size_t> slices) {
  SpecResponse forged = CloneSpecResponse(answer);
  for (size_t i : slices) {
    bool rewritten = false;
    for (TreeResultSet& tree : forged.conjuncts[0].slices.at(i).response.trees) {
      if (tree.objects.empty()) continue;
      tree.objects[0].value = "forged";
      rewritten = true;
      break;
    }
    EXPECT_TRUE(rewritten) << "slice " << i << " has no record to forge";
  }
  return forged;
}

// Honest composites verify against pre-gathered state exactly as through
// the chain-reading path, and every parse-surviving composite forgery is
// rejected by both with the same error.
TEST(BatchedVerify, CompositeAgainstStateMatchesChainReadingPath) {
  const std::unique_ptr<shard::ShardedDb> world = MakeWorld();
  shard::ShardedDb& db = *world;
  const auto states = db.ReadChainState();

  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{
           {40, 220}, {0, 300}, {130, 250}, {600, 900}}) {
    QueryResponse response = testutil::RangeConjunct(db, lb, ub);
    VerifiedSpecResult against =
        testutil::VerifyConjunctAgainst(db, states, lb, ub, response);
    VerifiedSpecResult full = testutil::VerifyConjunct(db, lb, ub, response);
    EXPECT_TRUE(against.ok) << against.error;
    EXPECT_TRUE(full.ok) << full.error;
    EXPECT_EQ(against.objects, full.objects) << "[" << lb << ", " << ub << "]";
  }

  fault::ResponseMutator mutator(fault::DeriveSeed(2727, 1));
  QueryResponse full = testutil::RangeConjunct(db, 0, 300);
  ASSERT_EQ(full.slices.size(), 3u);
  int parsed_count = 0;
  for (int round = 0; round < 80; ++round) {
    fault::CompositeMutation mutation = mutator.MutateComposite(full);
    auto parsed = ParseResponse(mutation.wire);
    if (!parsed.has_value()) continue;
    ++parsed_count;
    const std::string op = fault::CompositeMutationOpName(mutation.op);
    VerifiedSpecResult against = testutil::VerifyConjunctAgainst(
        db, states, parsed->lb, parsed->ub, *parsed);
    VerifiedSpecResult chain_read =
        testutil::VerifyConjunct(db, parsed->lb, parsed->ub, *parsed);
    EXPECT_FALSE(against.ok) << "composite forgery accepted: " << op;
    EXPECT_FALSE(chain_read.ok) << "composite forgery accepted: " << op;
    EXPECT_EQ(against.error, chain_read.error) << op;
  }
  EXPECT_GT(parsed_count, 20);
}

// Two forged slices: the composite is rejected with the error of the first
// forged slice in plan order, on both client paths, for a plain range and
// for an aggregate (boundary-mode) answer.
TEST(BatchedVerify, TwoForgedSlicesRejectWithTheFirstInPlanOrder) {
  const std::unique_ptr<shard::ShardedDb> world = MakeWorld();
  shard::ShardedDb& db = *world;
  const auto states = db.ReadChainState();

  QuerySpec count = QuerySpec::Range(0, 300);
  count.aggregate = AggregateKind::kCount;
  for (const QuerySpec& spec : {QuerySpec::Range(0, 300), count}) {
    const SpecResponse answer = db.ExecuteSpec(spec);
    ASSERT_EQ(answer.conjuncts.size(), 1u);
    ASSERT_EQ(answer.conjuncts[0].slices.size(), 3u);
    ASSERT_TRUE(db.VerifySpecAgainst(states, spec, answer).ok);

    const VerifiedSpecResult first =
        db.VerifySpecAgainst(states, spec, ForgeSlices(answer, {0}));
    const VerifiedSpecResult last =
        db.VerifySpecAgainst(states, spec, ForgeSlices(answer, {2}));
    ASSERT_FALSE(first.ok);
    ASSERT_FALSE(last.ok);
    EXPECT_NE(first.error.find("shard 0: "), std::string::npos) << first.error;
    EXPECT_NE(last.error.find("shard 2: "), std::string::npos) << last.error;

    const SpecResponse both = ForgeSlices(answer, {0, 2});
    const VerifiedSpecResult against = db.VerifySpecAgainst(states, spec, both);
    EXPECT_FALSE(against.ok);
    EXPECT_EQ(against.error, first.error);
    EXPECT_TRUE(against.objects.empty());
    const VerifiedSpecResult chain_read = db.VerifySpecFor(spec, both);
    EXPECT_FALSE(chain_read.ok);
    EXPECT_EQ(chain_read.error, first.error);
  }
}

TEST(BatchedVerify, BatchedHashingIsTheDefaultAndV3TheWireFormat) {
  AuthenticatedDb db;
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);
  EXPECT_EQ(UnwrapTracedWire(db.SpecWire(QuerySpec::Range(0, 10))).image[0], 3);
}

}  // namespace
}  // namespace gem2::core
