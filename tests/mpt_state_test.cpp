// End-to-end tests with the Ethereum-style Merkle Patricia Trie as the block
// state commitment (EnvironmentOptions::state_commitment = kPatriciaTrie):
// VO_chain proofs become MPT inclusion proofs, and the whole authenticated
// query pipeline must keep working — and keep rejecting tampering.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"
#include "range_conjunct.h"

namespace gem2::core {
namespace {

DbOptions MptOptions(AdsKind kind) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 2;
  o.gem2.smax = 16;
  o.env.state_commitment = chain::StateCommitment::kPatriciaTrie;
  o.env.gas_limit = 1'000'000'000'000ull;
  if (kind == AdsKind::kGem2Star) o.split_points = {500};
  return o;
}

class MptStateTest : public ::testing::TestWithParam<AdsKind> {};

TEST_P(MptStateTest, EndToEndWithPatriciaCommitment) {
  AuthenticatedDb db(MptOptions(GetParam()));
  for (Key k = 1; k <= 120; ++k) db.Insert({k * 7, "v" + std::to_string(k)});
  db.Update({7, "updated"});
  db.Delete(14);

  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(1, 500));
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_EQ(vr.objects.size(), 70u);  // keys 7..497 step 7, minus deleted 14
  EXPECT_EQ(vr.tombstones_filtered, 1u);
  EXPECT_EQ(vr.objects[0].value, "updated");
  EXPECT_GT(vr.vo_chain_bytes, 0u);
  db.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MptStateTest,
                         ::testing::Values(AdsKind::kMbTree, AdsKind::kSmbTree,
                                           AdsKind::kGem2, AdsKind::kGem2Star),
                         [](const auto& info) {
                           switch (info.param) {
                             case AdsKind::kMbTree:
                               return "MbTree";
                             case AdsKind::kSmbTree:
                               return "SmbTree";
                             case AdsKind::kLsm:
                               return "Lsm";
                             case AdsKind::kGem2:
                               return "Gem2";
                             case AdsKind::kGem2Star:
                               return "Gem2Star";
                           }
                           return "Unknown";
                         });

TEST(MptState, TamperedDigestRejected) {
  AuthenticatedDb db(MptOptions(AdsKind::kGem2));
  for (Key k = 1; k <= 40; ++k) db.Insert({k, "v"});
  QueryResponse r = testutil::RangeConjunct(db, 1, 40);

  chain::AuthenticatedState state = db.environment().ReadAuthenticatedState("ads");
  ASSERT_EQ(state.commitment, chain::StateCommitment::kPatriciaTrie);
  ASSERT_FALSE(state.digests.empty());
  EXPECT_FALSE(state.digests[0].mpt_proof.empty());
  EXPECT_TRUE(state.digests[0].proof.empty());

  // Honest state verifies; a flipped digest or proof byte does not.
  EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(state));
  chain::AuthenticatedState bad = state;
  bad.digests[0].entry.digest[5] ^= 1;
  EXPECT_FALSE(chain::Environment::VerifyAuthenticatedState(bad));
  chain::AuthenticatedState bad2 = state;
  bad2.digests[0].mpt_proof[0][3] ^= 1;
  EXPECT_FALSE(chain::Environment::VerifyAuthenticatedState(bad2));

  VerifiedResult vr = VerifyResponse(state, true, AdsKind::kGem2, r);
  EXPECT_TRUE(vr.ok) << vr.error;
  VerifiedResult vr_bad = VerifyResponse(bad, true, AdsKind::kGem2, r);
  EXPECT_FALSE(vr_bad.ok);
}

TEST(MptState, StaleSnapshotRejected) {
  AuthenticatedDb db(MptOptions(AdsKind::kGem2));
  for (Key k = 1; k <= 30; ++k) db.Insert({k, "v"});
  QueryResponse stale = testutil::RangeConjunct(db, 1, 30);
  db.Update({1, "fresh"});
  EXPECT_FALSE(testutil::VerifyConjunct(db, stale.lb, stale.ub, stale).ok);
  QueryResponse fresh = testutil::RangeConjunct(db, 1, 30);
  EXPECT_TRUE(testutil::VerifyConjunct(db, fresh.lb, fresh.ub, fresh).ok);
}

}  // namespace
}  // namespace gem2::core
