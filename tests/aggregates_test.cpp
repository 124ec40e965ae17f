// Client-side authenticated aggregates: derived only from verified results.
#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/authenticated_db.h"

namespace gem2::core {
namespace {

DbOptions SmallGem2() {
  DbOptions o;
  o.kind = AdsKind::kGem2;
  o.gem2.m = 2;
  o.gem2.smax = 16;
  return o;
}

TEST(Aggregates, CountMinMaxSum) {
  AuthenticatedDb db(SmallGem2());
  for (Key k = 1; k <= 10; ++k) db.Insert({k * 10, std::to_string(k * 100)});

  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(25, 75));
  ASSERT_TRUE(vr.ok);
  auto agg = Aggregate(vr);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 5u);  // keys 30,40,50,60,70
  EXPECT_EQ(*agg->min_key, 30);
  EXPECT_EQ(*agg->max_key, 70);
  ASSERT_TRUE(agg->sum.has_value());
  EXPECT_EQ(*agg->sum, 300 + 400 + 500 + 600 + 700);
}

TEST(Aggregates, EmptyRange) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({5, "100"});
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(10, 20));
  ASSERT_TRUE(vr.ok);
  auto agg = Aggregate(vr);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 0u);
  EXPECT_FALSE(agg->min_key.has_value());
  EXPECT_FALSE(agg->sum.has_value());
}

TEST(Aggregates, NonNumericPayloadsDisableSum) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({1, "100"});
  db.Insert({2, "not a number"});
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(0, 10));
  ASSERT_TRUE(vr.ok);
  auto agg = Aggregate(vr);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 2u);
  EXPECT_FALSE(agg->sum.has_value());
}

TEST(Aggregates, RefusesUnverifiedResults) {
  VerifiedSpecResult bad;
  bad.ok = false;
  EXPECT_FALSE(Aggregate(bad).has_value());
}

TEST(Aggregates, DeletedObjectsExcluded) {
  AuthenticatedDb db(SmallGem2());
  for (Key k = 1; k <= 5; ++k) db.Insert({k, "10"});
  db.Delete(3);
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(1, 5));
  ASSERT_TRUE(vr.ok);
  auto agg = Aggregate(vr);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 4u);
  EXPECT_EQ(*agg->sum, 40);
}

TEST(Aggregates, NegativeNumbersAndKeys) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({-10, "-5"});
  db.Insert({-5, "15"});
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(-100, 0));
  ASSERT_TRUE(vr.ok);
  auto agg = Aggregate(vr);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(*agg->min_key, -10);
  EXPECT_EQ(*agg->max_key, -5);
  EXPECT_EQ(*agg->sum, 10);
}

}  // namespace
}  // namespace gem2::core
