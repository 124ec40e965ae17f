// End-to-end integration: data owner -> (blockchain + SP) -> client, for
// every ADS kind, over uniform and zipfian workloads, with full client-side
// verification and brute-force result cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/authenticated_db.h"
#include "range_conjunct.h"
#include "workload/workload.h"

namespace gem2::core {
namespace {

using workload::KeyDistribution;
using workload::Operation;
using workload::WorkloadGenerator;
using workload::WorkloadOptions;

DbOptions MakeOptions(AdsKind kind, const WorkloadGenerator& gen) {
  DbOptions options;
  options.kind = kind;
  options.gem2.m = 4;
  options.gem2.smax = 64;
  options.env.gas_limit = 1'000'000'000'000ull;  // study gas, don't abort
  if (kind == AdsKind::kGem2Star) {
    options.split_points = gen.SplitPoints(8);
  }
  return options;
}

class EndToEnd
    : public ::testing::TestWithParam<std::tuple<AdsKind, KeyDistribution>> {};

TEST_P(EndToEnd, InsertQueryVerify) {
  auto [kind, dist] = GetParam();
  WorkloadOptions wopts;
  wopts.distribution = dist;
  wopts.domain_max = 100'000;
  wopts.update_ratio = 0.2;
  wopts.seed = 7;
  WorkloadGenerator gen(wopts);

  AuthenticatedDb db(MakeOptions(kind, gen));

  std::map<Key, std::string> truth;
  const size_t kOps = (kind == AdsKind::kSmbTree || kind == AdsKind::kLsm)
                          ? 150   // O(N) per-op structures: keep it fast
                          : 400;
  for (size_t i = 0; i < kOps; ++i) {
    Operation op = gen.Next();
    chain::TxReceipt r = op.type == Operation::Type::kInsert
                             ? db.Insert(op.object)
                             : db.Update(op.object);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.gas_used, 0u);
    truth[op.object.key] = op.object.value;
  }

  db.CheckConsistency();

  // Several query ranges, including empty and full.
  const std::pair<Key, Key> ranges[] = {{0, 1000},
                                        {500, 50'000},
                                        {-10, -1},
                                        {0, 200'000},
                                        {truth.begin()->first, truth.begin()->first}};
  for (auto [lb, ub] : ranges) {
    VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(lb, ub));
    ASSERT_TRUE(vr.ok) << AdsKindName(kind) << ": " << vr.error;

    std::vector<Object> expect;
    for (const auto& [k, v] : truth) {
      if (k >= lb && k <= ub) expect.push_back({k, v});
    }
    ASSERT_EQ(vr.objects.size(), expect.size())
        << AdsKindName(kind) << " range [" << lb << "," << ub << "]";
    EXPECT_EQ(vr.objects, expect);
    EXPECT_GT(vr.vo_chain_bytes, 0u);
  }

  // The chain itself must validate.
  std::string error;
  EXPECT_TRUE(db.environment().blockchain().Validate(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EndToEnd,
    ::testing::Combine(::testing::Values(AdsKind::kMbTree, AdsKind::kSmbTree,
                                         AdsKind::kLsm, AdsKind::kGem2,
                                         AdsKind::kGem2Star),
                       ::testing::Values(KeyDistribution::kUniform,
                                         KeyDistribution::kZipfian)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case AdsKind::kMbTree:
          name = "MbTree";
          break;
        case AdsKind::kSmbTree:
          name = "SmbTree";
          break;
        case AdsKind::kLsm:
          name = "Lsm";
          break;
        case AdsKind::kGem2:
          name = "Gem2";
          break;
        case AdsKind::kGem2Star:
          name = "Gem2Star";
          break;
      }
      return name + (std::get<1>(info.param) == KeyDistribution::kUniform
                         ? "Uniform"
                         : "Zipfian");
    });

TEST(EndToEndTamper, ClientRejectsTamperedResponses) {
  WorkloadOptions wopts;
  wopts.domain_max = 10'000;
  WorkloadGenerator gen(wopts);
  DbOptions options = MakeOptions(AdsKind::kGem2, gen);
  AuthenticatedDb db(options);
  for (const Operation& op : gen.Batch(200)) {
    ASSERT_TRUE(db.Insert(op.object).ok);
  }

  QueryResponse honest = testutil::RangeConjunct(db, 100, 5000);
  ASSERT_TRUE(testutil::VerifyConjunct(db, honest.lb, honest.ub, honest).ok);

  // Tamper 1: modify a returned value.
  {
    QueryResponse bad = testutil::RangeConjunct(db, 100, 5000);
    bool mutated = false;
    for (auto& tree : bad.trees) {
      if (!tree.objects.empty()) {
        tree.objects[0].value = "forged";
        mutated = true;
        break;
      }
    }
    ASSERT_TRUE(mutated);
    EXPECT_FALSE(testutil::VerifyConjunct(db, bad.lb, bad.ub, bad).ok);
  }

  // Tamper 2: drop a whole tree's answer.
  {
    QueryResponse bad = testutil::RangeConjunct(db, 100, 5000);
    bad.trees.pop_back();
    EXPECT_FALSE(testutil::VerifyConjunct(db, bad.lb, bad.ub, bad).ok);
  }

  // Tamper 3: drop a result object (completeness violation).
  {
    QueryResponse bad = testutil::RangeConjunct(db, 100, 5000);
    for (auto& tree : bad.trees) {
      if (!tree.objects.empty()) {
        tree.objects.pop_back();
        break;
      }
    }
    EXPECT_FALSE(testutil::VerifyConjunct(db, bad.lb, bad.ub, bad).ok);
  }

  // Tamper 4: inject an extra object.
  {
    QueryResponse bad = testutil::RangeConjunct(db, 100, 5000);
    bad.trees[0].objects.push_back({1234, "injected"});
    EXPECT_FALSE(testutil::VerifyConjunct(db, bad.lb, bad.ub, bad).ok);
  }
}

TEST(EndToEndGas, Gem2BeatsMbTreeOnInserts) {
  // The headline claim, at small scale: inserting the same stream costs the
  // GEM2-tree materially less gas than the MB-tree.
  WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;
  WorkloadGenerator gen(wopts);
  std::vector<Operation> ops = gen.Batch(600);

  auto total_gas = [&](AdsKind kind) {
    WorkloadGenerator g2(wopts);
    DbOptions options = MakeOptions(kind, g2);
    AuthenticatedDb db(options);
    uint64_t total = 0;
    for (const Operation& op : ops) total += db.Insert(op.object).gas_used;
    return total;
  };

  const uint64_t gem2 = total_gas(AdsKind::kGem2);
  const uint64_t mb = total_gas(AdsKind::kMbTree);
  EXPECT_LT(gem2, mb) << "GEM2 " << gem2 << " vs MB " << mb;
}

TEST(EndToEndChain, BlocksCommitStateAndValidate) {
  WorkloadOptions wopts;
  WorkloadGenerator gen(wopts);
  DbOptions options = MakeOptions(AdsKind::kGem2, gen);
  options.env.txs_per_block = 4;
  options.env.difficulty_bits = 6;  // non-trivial PoW
  AuthenticatedDb db(options);
  for (const Operation& op : gen.Batch(30)) ASSERT_TRUE(db.Insert(op.object).ok);

  chain::Environment& env = db.environment();
  env.SealBlock();
  EXPECT_GE(env.blockchain().height(), 30u / 4u);
  std::string error;
  EXPECT_TRUE(env.blockchain().Validate(&error)) << error;

  // Every block's PoW must satisfy the difficulty.
  for (const chain::Block& b : env.blockchain().blocks()) {
    EXPECT_TRUE(chain::SatisfiesPow(b.header.Digest(), b.header.difficulty_bits));
  }
}

}  // namespace
}  // namespace gem2::core
