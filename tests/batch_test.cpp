// Batch ingestion and intrinsic-fee tests: InsertBatch runs many inserts in a
// single metered transaction — one intrinsic fee, one gasLimit budget.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"

namespace gem2::core {
namespace {

DbOptions Options(gas::Gas base_fee = 0, gas::Gas limit = 1'000'000'000'000ull) {
  DbOptions o;
  o.kind = AdsKind::kGem2;
  o.gem2.m = 2;
  o.gem2.smax = 16;
  o.env.tx_base_fee = base_fee;
  o.env.gas_limit = limit;
  return o;
}

std::vector<Object> MakeBatch(Key from, Key to) {
  std::vector<Object> objects;
  for (Key k = from; k <= to; ++k) objects.push_back({k, "v" + std::to_string(k)});
  return objects;
}

TEST(Batch, SingleTransactionForManyObjects) {
  AuthenticatedDb db(Options());
  const uint64_t txs_before = db.environment().num_transactions();
  chain::TxReceipt r = db.InsertBatch(MakeBatch(1, 25));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(db.environment().num_transactions(), txs_before + 1);
  EXPECT_EQ(db.size(), 25u);

  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(1, 25));
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_EQ(vr.objects.size(), 25u);
  db.CheckConsistency();
}

TEST(Batch, EquivalentStateToSingleInserts) {
  AuthenticatedDb batched(Options());
  AuthenticatedDb singles(Options());
  batched.InsertBatch(MakeBatch(1, 40));
  for (const Object& obj : MakeBatch(1, 40)) singles.Insert(obj);
  EXPECT_EQ(batched.ChainDigests(), singles.ChainDigests());
}

TEST(Batch, IntrinsicFeeChargedOncePerTransaction) {
  constexpr gas::Gas kFee = 21'000;
  AuthenticatedDb batched(Options(kFee));
  chain::TxReceipt rb = batched.InsertBatch(MakeBatch(1, 10));
  EXPECT_EQ(rb.breakdown.intrinsic, kFee);

  AuthenticatedDb singles(Options(kFee));
  uint64_t intrinsic_total = 0;
  for (const Object& obj : MakeBatch(1, 10)) {
    intrinsic_total += singles.Insert(obj).breakdown.intrinsic;
  }
  EXPECT_EQ(intrinsic_total, 10 * kFee);

  // With the fee enabled, batching is strictly cheaper for the same work.
  EXPECT_LT(rb.gas_used,
            singles.environment().total_gas_used());
}

TEST(Batch, RejectsDuplicatesUpFront) {
  AuthenticatedDb db(Options());
  db.Insert({5, "v"});
  EXPECT_THROW(db.InsertBatch(MakeBatch(4, 6)), std::invalid_argument);
  std::vector<Object> dup = {{100, "a"}, {100, "b"}};
  EXPECT_THROW(db.InsertBatch(dup), std::invalid_argument);
  // Failed validation leaves no partial state.
  EXPECT_FALSE(db.Contains(4));
  EXPECT_EQ(db.size(), 1u);
}

TEST(Batch, OversizedBatchAbortsAtomically) {
  // A batch too large for the gasLimit aborts as one transaction: nothing
  // lands on-chain or at the SP.
  AuthenticatedDb db(Options(0, gas::kDefaultGasLimit));
  chain::TxReceipt r = db.InsertBatch(MakeBatch(1, 500));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(db.poisoned());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_FALSE(db.Contains(1));
}

TEST(Batch, EmptyBatchIsANoOpTransaction) {
  AuthenticatedDb db(Options());
  chain::TxReceipt r = db.InsertBatch({});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(db.size(), 0u);
}

}  // namespace
}  // namespace gem2::core
