// Client verification: a sharded client verifies a composite's slices one
// after another in plan order, and the first failing slice decides the
// error. The pre-gathered-state path (VerifySpecAgainst) must agree with the
// chain-reading path (VerifySpecFor) on honest responses and on every seeded
// composite forgery, and VerifySpecFor's verdicts on every backend are pinned
// by recorded digests.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ads_kinds.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "deferred_roots_util.h"
#include "fault/adversary.h"
#include "multiattr/multiattr_db.h"
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
  SpecResponse forged = answer;
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

  ASSERT_EQ(testutil::RangeConjunct(db, 0, 300).slices.size(), 3u);
  fault::SweepOptions sweep;
  sweep.seed = 2727;
  sweep.families = {fault::Family::kComposite};
  sweep.rounds = 80;
  sweep.specs = {QuerySpec::Range(0, 300)};
  int parsed_count = 0;
  const fault::SweepReport report =
      fault::RunForgerySweep(db, sweep, [&](const fault::Round& round) {
        if (round.parsed == nullptr) return;
        ++parsed_count;
        // Pinned to the range the forgery claims, so each slice's own checks
        // decide.
        const QueryResponse& parsed = round.parsed->conjuncts[0];
        VerifiedSpecResult against = testutil::VerifyConjunctAgainst(
            db, states, parsed.lb, parsed.ub, parsed);
        VerifiedSpecResult chain_read =
            testutil::VerifyConjunct(db, parsed.lb, parsed.ub, parsed);
        EXPECT_FALSE(against.ok) << "composite forgery accepted: " << round.op.name;
        EXPECT_FALSE(chain_read.ok) << "composite forgery accepted: " << round.op.name;
        EXPECT_EQ(against.error, chain_read.error) << round.op.name;
      });
  EXPECT_TRUE(report.AllRejected());
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

/// Folds everything a client sees of one verdict into `fnv`, except
/// vo_chain_bytes, which depends on the state tree's layout.
void MixVerdict(const VerifiedSpecResult& r, testutil::Fnv* fnv) {
  fnv->Mix(r.ok ? 1 : 0);
  fnv->Mix(r.error);
  fnv->Mix(r.objects.size());
  for (const Object& o : r.objects) {
    fnv->Mix(static_cast<uint64_t>(o.key));
    fnv->Mix(o.value);
  }
  fnv->Mix(r.tombstones_filtered);
  fnv->Mix(r.vo_sp_bytes);
  fnv->Mix(r.aggregates.has_value() ? 1 : 0);
  if (r.aggregates.has_value()) {
    fnv->Mix(r.aggregates->count);
    fnv->Mix(static_cast<uint64_t>(r.aggregates->min_key.value_or(0)));
    fnv->Mix(static_cast<uint64_t>(r.aggregates->max_key.value_or(0)));
    fnv->Mix(static_cast<uint64_t>(r.aggregates->sum.value_or(0)));
  }
}

/// VerifySpecFor's verdict on every honest answer to `specs`, then on each
/// of 60 seeded spec forgeries, then the sweep's report, folded into one
/// digest. The header the verdicts were checked against must commit
/// ReferenceStateRoot over the store's chain state.
uint64_t FoldVerdicts(RangeStore& db, const std::vector<QuerySpec>& specs) {
  testutil::Fnv fnv;
  for (const QuerySpec& spec : specs) {
    const VerifiedSpecResult r = db.VerifySpecFor(spec, db.ExecuteSpec(spec));
    EXPECT_TRUE(r.ok) << ToString(spec) << ": " << r.error;
    MixVerdict(r, &fnv);
  }
  fault::SweepOptions sweep;
  sweep.seed = 4242;
  sweep.families = {fault::Family::kSpec};
  sweep.rounds = 60;
  sweep.specs = specs;
  const fault::SweepReport report =
      fault::RunForgerySweep(db, sweep, [&fnv](const fault::Round& round) {
        fnv.Mix(round.parsed != nullptr ? 1 : 0);
        if (round.verdict != nullptr) MixVerdict(*round.verdict, &fnv);
      });
  EXPECT_TRUE(report.AllRejected());
  for (int n : {report.attempted, report.rejected_parse, report.rejected_verify,
                report.canonical_noop, report.forged()}) {
    fnv.Mix(static_cast<uint64_t>(n));
  }
  for (const auto& [op, n] : report.attempts_by_op) {
    fnv.Mix(op);
    fnv.Mix(static_cast<uint64_t>(n));
  }
  const std::vector<chain::AuthenticatedState> states = db.ReadChainState();
  std::vector<testutil::ContractDigests> committed;
  for (const chain::AuthenticatedState& state : states) {
    committed.emplace_back(state.contract, state.digests);
  }
  EXPECT_EQ(states.front().header.state_root,
            testutil::ReferenceStateRoot(committed));
  return fnv.value();
}

/// Range, AND, OR and COUNT over a single-attribute store's keys 5..300.
std::vector<QuerySpec> KeySpecs() {
  QuerySpec both;
  both.predicates = {{PredicateKind::kRange, 0, 20, 200},
                     {PredicateKind::kRange, 0, 100, 280}};
  QuerySpec either = both;
  either.op = BoolOp::kOr;
  either.predicates[1] = {PredicateKind::kRange, 0, 240, 310};
  QuerySpec count = QuerySpec::Range(30, 260);
  count.aggregate = AggregateKind::kCount;
  return {QuerySpec::Range(40, 220), QuerySpec::Range(0, 400), both, either,
          count};
}

/// Keys 5, 10, ..., 300 with every seventh deleted (tombstones in range).
void PopulateKeys(RangeStore& db) {
  for (Key k = 1; k <= 60; ++k) {
    ASSERT_TRUE(db.Insert({k * 5, "value-" + std::to_string(k % 3)}).ok);
  }
  for (Key k = 7; k <= 60; k += 7) ASSERT_TRUE(db.Delete(k * 5).ok);
}

// VerifySpecFor verdicts (ok, error, objects, tombstones, VO_sp bytes,
// aggregates) on honest and forged answers, on a flat store of every ADS
// kind, an S=4 sharded store and a 2-attribute store. The digests were
// recorded while VerifySpecFor still verified each conjunct and each shard
// slice through its own chain read and light client; Sharded4's was
// re-recorded when mutate_inner_conjunct began forging inside slices.
TEST(ClientVerifyGolden, VerifySpecForMatchesRecordedVerdicts) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"MbTree", 11563809169346182297ull},
      {"SmbTree", 1888121953292226724ull},
      {"Lsm", 4066041358829413412ull},
      {"Gem2", 11579358182971572731ull},
      {"Gem2Star", 9139870914653915306ull},
      {"Sharded4", 8852702471762477288ull},
      {"MultiAttr2", 18054184738381722792ull},
  };
  std::map<std::string, uint64_t> got;
  for (AdsKind kind : {AdsKind::kMbTree, AdsKind::kSmbTree, AdsKind::kLsm,
                       AdsKind::kGem2, AdsKind::kGem2Star}) {
    DbOptions options;
    options.kind = kind;
    options.gem2.m = 2;
    options.gem2.smax = 16;
    if (kind == AdsKind::kGem2Star) options.split_points = {100, 200};
    AuthenticatedDb db(options);
    PopulateKeys(db);
    got[testutil::KindName(kind)] = FoldVerdicts(db, KeySpecs());
  }
  {
    shard::ShardOptions options;
    options.bounds = {80, 160, 240};
    options.base.gem2.m = 2;
    options.base.gem2.smax = 16;
    shard::ShardedDb db(std::move(options));
    PopulateKeys(db);
    got["Sharded4"] = FoldVerdicts(db, KeySpecs());
  }
  {
    multiattr::MultiAttrOptions options;
    options.base.gem2.m = 2;
    options.base.gem2.smax = 16;
    options.id_bits = 16;
    multiattr::MultiAttrDb db(std::move(options));
    for (int64_t id = 0; id < 48; ++id) {
      ASSERT_TRUE(db.InsertRecord({id, {id % 13 - 6, (id * 7) % 19 - 9},
                                   "payload-" + std::to_string(id)})
                      .ok);
    }
    for (int64_t id = 0; id < 48; id += 5) ASSERT_TRUE(db.DeleteRecord(id).ok);
    QuerySpec both;
    both.predicates = {{PredicateKind::kRange, 0, -3, 4},
                       {PredicateKind::kRange, 1, -5, 2}};
    QuerySpec either = both;
    either.op = BoolOp::kOr;
    QuerySpec count = QuerySpec::Range(-4, 6, 1);
    count.aggregate = AggregateKind::kCount;
    got["MultiAttr2"] =
        FoldVerdicts(db, {QuerySpec::Range(-2, 5), both, either, count});
  }
  for (const auto& [store, golden] : kGolden) {
    EXPECT_EQ(got[store], golden) << store;
  }
}

TEST(BatchedVerify, BatchedHashingIsTheDefaultAndV3TheWireFormat) {
  AuthenticatedDb db;
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);
  EXPECT_EQ(UnwrapTracedWire(db.SpecWire(QuerySpec::Range(0, 10))).image[0], 3);
}

}  // namespace
}  // namespace gem2::core
