// Deletion tests (paper Section V-B: deletion = update with a dummy object).
// Tombstoned objects keep participating in every digest and completeness
// proof; the client filters them from verified results.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"
#include "core/tombstone.h"
#include "range_conjunct.h"

namespace gem2::core {
namespace {

DbOptions Options(AdsKind kind) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 2;
  o.gem2.smax = 16;
  if (kind == AdsKind::kGem2Star) o.split_points = {50};
  o.env.gas_limit = 1'000'000'000'000ull;
  return o;
}

class DeletionTest : public ::testing::TestWithParam<AdsKind> {};

TEST_P(DeletionTest, DeletedKeysVanishFromVerifiedResults) {
  AuthenticatedDb db(Options(GetParam()));
  for (Key k = 1; k <= 30; ++k) db.Insert({k, "v" + std::to_string(k)});
  ASSERT_EQ(db.size(), 30u);

  db.Delete(5);
  db.Delete(17);
  EXPECT_EQ(db.size(), 28u);
  EXPECT_FALSE(db.Contains(5));
  EXPECT_TRUE(db.Contains(6));

  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(1, 30));
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_EQ(vr.objects.size(), 28u);
  EXPECT_EQ(vr.tombstones_filtered, 2u);
  for (const Object& obj : vr.objects) {
    EXPECT_NE(obj.key, 5);
    EXPECT_NE(obj.key, 17);
  }
  db.CheckConsistency();
}

TEST_P(DeletionTest, ReinsertRevivesDeletedKey) {
  AuthenticatedDb db(Options(GetParam()));
  db.Insert({7, "first"});
  db.Delete(7);
  EXPECT_FALSE(db.Contains(7));
  db.Insert({7, "second"});
  EXPECT_TRUE(db.Contains(7));
  EXPECT_EQ(db.size(), 1u);

  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(7, 7));
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_EQ(vr.objects.size(), 1u);
  EXPECT_EQ(vr.objects[0].value, "second");
  db.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DeletionTest,
                         ::testing::Values(AdsKind::kMbTree, AdsKind::kSmbTree,
                                           AdsKind::kLsm, AdsKind::kGem2,
                                           AdsKind::kGem2Star),
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

TEST(Deletion, ErrorsOnBogusOperations) {
  AuthenticatedDb db(Options(AdsKind::kGem2));
  EXPECT_THROW(db.Delete(1), std::invalid_argument);
  db.Insert({1, "v"});
  db.Delete(1);
  EXPECT_THROW(db.Delete(1), std::invalid_argument);          // already deleted
  EXPECT_THROW(db.Update({1, "nv"}), std::invalid_argument);  // deleted
  // Re-inserting a deleted key revives it (not an error).
  EXPECT_TRUE(db.Insert({1, "v2"}).ok);
  // Inserting a live key is an error.
  EXPECT_THROW(db.Insert({1, "v3"}), std::invalid_argument);
}

TEST(Deletion, TombstoneValueIsUnambiguous) {
  EXPECT_TRUE(IsTombstone(TombstoneValue()));
  EXPECT_FALSE(IsTombstone(""));
  EXPECT_FALSE(IsTombstone("GEM2_TOMBSTONE"));
  EXPECT_EQ(TombstoneValue().size(), 16u);
  EXPECT_EQ(TombstoneValue()[0], '\0');
}

TEST(Deletion, SpCannotHideTombstones) {
  // A malicious SP cannot silently drop tombstoned objects from the response:
  // they are part of the digests like any other entry.
  AuthenticatedDb db(Options(AdsKind::kGem2));
  for (Key k = 1; k <= 10; ++k) db.Insert({k, "v"});
  db.Delete(4);

  QueryResponse r = testutil::RangeConjunct(db, 1, 10);
  for (auto& tree : r.trees) {
    std::erase_if(tree.objects, [](const Object& o) { return o.key == 4; });
  }
  EXPECT_FALSE(testutil::VerifyConjunct(db, r.lb, r.ub, r).ok);
}

TEST(Deletion, DeleteThenRangeOnOtherKeysUnaffected) {
  AuthenticatedDb db(Options(AdsKind::kGem2));
  for (Key k = 1; k <= 20; ++k) db.Insert({k, "v" + std::to_string(k)});
  auto before = db.ChainDigests();
  db.Delete(10);
  // Deletion is an on-chain update: the digest set changes.
  EXPECT_NE(db.ChainDigests(), before);
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(1, 9));
  ASSERT_TRUE(vr.ok);
  EXPECT_EQ(vr.objects.size(), 9u);
  EXPECT_EQ(vr.tombstones_filtered, 0u);  // 10 outside the queried range
}

}  // namespace
}  // namespace gem2::core
