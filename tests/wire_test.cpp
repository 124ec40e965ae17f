// SP -> client wire protocol tests: responses round-trip through bytes with
// identical verification outcomes; corrupted images never verify.
#include <gtest/gtest.h>

#include <random>

#include "ads/vo.h"
#include "ads_kinds.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "range_conjunct.h"

namespace gem2::core {
namespace {

Bytes Image(const QueryResponse& response) {
  return SerializeResponse(response, WireVersion::kV3);
}

std::unique_ptr<AuthenticatedDb> MakeDb(AdsKind kind) {
  DbOptions options;
  options.kind = kind;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  if (kind == AdsKind::kGem2Star) options.split_points = {100, 200};
  auto db = std::make_unique<AuthenticatedDb>(options);
  for (Key k = 1; k <= 60; ++k) db->Insert({k * 5, "value-" + std::to_string(k)});
  return db;
}

class WireTest : public ::testing::TestWithParam<AdsKind> {};

TEST_P(WireTest, RoundTripsAndVerifies) {
  auto db = MakeDb(GetParam());
  QueryResponse response = testutil::RangeConjunct(*db, 40, 220);
  Bytes wire = Image(response);

  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lb, response.lb);
  EXPECT_EQ(parsed->ub, response.ub);
  EXPECT_EQ(parsed->trees.size(), response.trees.size());
  EXPECT_EQ(parsed->upper_splits, response.upper_splits);

  VerifiedSpecResult direct =
      testutil::VerifyConjunct(*db, response.lb, response.ub, response);
  VerifiedSpecResult via_wire = testutil::VerifyConjunct(*db, 40, 220, *parsed);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(via_wire.ok) << via_wire.error;
  EXPECT_EQ(via_wire.objects, direct.objects);
  EXPECT_EQ(Image(*parsed), wire);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WireTest, testutil::AllKinds(),
                         testutil::KindParamName);

TEST_P(WireTest, EmptyResultSetRoundTrips) {
  // Keys live at 5..300; this range is past all of them: a completeness
  // proof with zero results still has to cross the wire intact.
  auto db = MakeDb(GetParam());
  QueryResponse response = testutil::RangeConjunct(*db, 600, 900);
  Bytes wire = Image(response);
  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  VerifiedSpecResult vr = testutil::VerifyConjunct(*db, 600, 900, *parsed);
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_TRUE(vr.objects.empty());
  EXPECT_EQ(Image(*parsed), wire);
}

TEST_P(WireTest, SingleEntryResultRoundTrips) {
  auto db = MakeDb(GetParam());
  // Exactly key 30*5.
  QueryResponse response = testutil::RangeConjunct(*db, 150, 150);
  Bytes wire = Image(response);
  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  VerifiedSpecResult vr = testutil::VerifyConjunct(*db, 150, 150, *parsed);
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_EQ(vr.objects.size(), 1u);
  EXPECT_EQ(vr.objects[0].key, 150);
  EXPECT_EQ(Image(*parsed), wire);
}

TEST(Wire, EmptyDatabaseFullRangeRoundTrips) {
  DbOptions options;
  options.kind = AdsKind::kGem2;
  AuthenticatedDb db(options);
  QueryResponse response = testutil::RangeConjunct(db, kKeyMin, kKeyMax);
  Bytes wire = Image(response);
  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  VerifiedSpecResult vr =
      testutil::VerifyConjunct(db, kKeyMin, kKeyMax, *parsed);
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_TRUE(vr.objects.empty());
  EXPECT_EQ(Image(*parsed), wire);
}

TEST(Wire, VoNestingAtTheCapParsesAndAboveIsRejected) {
  // Hand-built wire image: `nodes` single-child node frames wrapped around
  // one result entry. Real trees never nest anywhere near this deep, but the
  // codec parses adversarial bytes and must bound its own recursion.
  auto deep = [](uint32_t nodes) {
    // version, kind single, lb = 0, ub - lb = 0, no splits, one tree with
    // an empty label and one object, VO root present.
    Bytes b = {3, 0, 0, 0, 0, 1, 0, 1, 1};
    for (uint32_t i = 0; i < nodes; ++i) {
      b.push_back(4);  // node tag: 3 + one child
    }
    b.push_back(1);  // result-entry tag
    b.push_back(0);  // key delta 0
    b.push_back(1);  // value length
    b.push_back('v');
    return b;
  };

  auto at_cap = ParseResponse(deep(ads::kMaxVoDepth));
  ASSERT_TRUE(at_cap.has_value());
  EXPECT_EQ(Image(*at_cap), deep(ads::kMaxVoDepth));

  EXPECT_FALSE(ParseResponse(deep(ads::kMaxVoDepth + 1)).has_value());
  EXPECT_FALSE(ParseResponse(deep(ads::kMaxVoDepth + 100)).has_value());
}

TEST(Wire, RejectsMalformedInput) {
  EXPECT_FALSE(ParseResponse({}).has_value());
  EXPECT_FALSE(ParseResponse({7}).has_value());
  auto db = MakeDb(AdsKind::kGem2);
  Bytes wire = Image(testutil::RangeConjunct(*db, 0, 1000));
  Bytes truncated(wire.begin(), wire.begin() + wire.size() / 3);
  EXPECT_FALSE(ParseResponse(truncated).has_value());
  Bytes padded = wire;
  padded.push_back(1);
  EXPECT_FALSE(ParseResponse(padded).has_value());
}

TEST(Wire, VersionAndKindTagsAreEnforced) {
  auto db = MakeDb(AdsKind::kGem2);
  Bytes wire = Image(testutil::RangeConjunct(*db, 0, 1000));
  ASSERT_GE(wire.size(), 2u);
  EXPECT_EQ(wire[0], 3);  // the format version
  EXPECT_EQ(wire[1], 0);  // kind: single

  // Every other version fails parsing, the retired v2 included...
  for (uint8_t v : {0, 1, 2, 4, 255}) {
    Bytes other = wire;
    other[0] = v;
    EXPECT_FALSE(ParseResponse(other).has_value()) << "version " << int(v);
  }
  // ...and so does an unknown response-kind tag.
  for (uint8_t k : {2, 7, 255}) {
    Bytes other = wire;
    other[1] = k;
    EXPECT_FALSE(ParseResponse(other).has_value()) << "kind " << int(k);
  }
  // The client surfaces both as a failed result, never an exception.
  Bytes old_version = wire;
  old_version[0] = 2;
  VerifiedSpecResult vr =
      testutil::VerifyConjunctImage(*db, 0, 1000, old_version);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "malformed wire image");
}

TEST(Wire, CompositeRoundTripsAndRejectsTruncation) {
  auto db = MakeDb(AdsKind::kGem2);
  QueryResponse composite;
  composite.lb = 40;
  composite.ub = 220;
  composite.slices.push_back({0, testutil::RangeConjunct(*db, 40, 100)});
  composite.slices.push_back({1, testutil::RangeConjunct(*db, 101, 220)});

  Bytes wire = Image(composite);
  ASSERT_GE(wire.size(), 2u);
  EXPECT_EQ(wire[0], 3);
  EXPECT_EQ(wire[1], 1);  // kind: composite

  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lb, composite.lb);
  EXPECT_EQ(parsed->ub, composite.ub);
  EXPECT_TRUE(parsed->trees.empty());
  ASSERT_EQ(parsed->slices.size(), 2u);
  EXPECT_EQ(parsed->slices[0].shard, 0u);
  EXPECT_EQ(parsed->slices[1].shard, 1u);
  EXPECT_EQ(parsed->slices[0].response.lb, 40);
  EXPECT_EQ(parsed->slices[0].response.ub, 100);
  EXPECT_EQ(parsed->slices[1].response.lb, 101);
  EXPECT_EQ(parsed->slices[1].response.ub, 220);
  EXPECT_EQ(Image(*parsed), wire);

  // Truncation anywhere must fail parsing, never crash or misparse.
  for (size_t cut : {wire.size() - 1, wire.size() / 2, wire.size() / 4, size_t{3}}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ParseResponse(truncated).has_value()) << "cut at " << cut;
  }
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(ParseResponse(padded).has_value());
}

TEST(Wire, NestedCompositeSlicesAreRejected) {
  auto db = MakeDb(AdsKind::kGem2);
  QueryResponse inner_composite;
  inner_composite.lb = 0;
  inner_composite.ub = 100;
  inner_composite.slices.push_back({0, testutil::RangeConjunct(*db, 0, 100)});

  QueryResponse nested;
  nested.lb = 0;
  nested.ub = 100;
  nested.slices.push_back({0, std::move(inner_composite)});
  // A slice is a single body with no kind byte, so the format cannot
  // express nesting: the inner composite's own slices never reach the wire,
  // and the image decodes as one empty slice that no client accepts.
  Bytes wire = Image(nested);
  auto parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->slices.size(), 1u);
  EXPECT_TRUE(parsed->slices[0].response.slices.empty());
  EXPECT_TRUE(parsed->slices[0].response.trees.empty());
  EXPECT_EQ(Image(*parsed), wire);
  EXPECT_FALSE(testutil::VerifyConjunct(*db, 0, 100, *parsed).ok);
}

TEST(Wire, CorruptedImagesNeverVerify) {
  auto db = MakeDb(AdsKind::kGem2);
  QueryResponse response = testutil::RangeConjunct(*db, 0, 1000);
  ASSERT_TRUE(
      testutil::VerifyConjunct(*db, response.lb, response.ub, response).ok);
  Bytes wire = Image(response);

  std::mt19937_64 rng(77);
  int parsed_count = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Bytes bad = wire;
    bad[rng() % bad.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    if (bad == wire) continue;
    auto parsed = ParseResponse(bad);
    if (!parsed.has_value()) continue;
    ++parsed_count;
    // Anything that still parses must fail verification against the range
    // the client actually issued — unless the flip only touched redundant
    // framing, in which case the canonical re-serialization must equal the
    // original (nothing changed).
    VerifiedSpecResult vr = testutil::VerifyConjunct(*db, 0, 1000, *parsed);
    if (vr.ok) {
      EXPECT_EQ(Image(*parsed), wire) << "trial " << trial;
    }
  }
  EXPECT_GT(parsed_count, 0);
}

TEST(Wire, SizeTracksVoAccounting) {
  auto db = MakeDb(AdsKind::kGem2);
  QueryResponse response = testutil::RangeConjunct(*db, 50, 150);
  // The image ships every payload and compresses the rest: the fixed-width
  // proof accounting (VoSpBytes) and the payload framing (a key and a
  // length per object) bound it from above.
  uint64_t payloads = 0, objects = 0;
  for (const TreeResultSet& tree : response.trees) {
    for (const Object& obj : tree.objects) payloads += obj.value.size();
    objects += tree.objects.size();
  }
  const size_t image = Image(response).size();
  EXPECT_GT(image, payloads);
  EXPECT_LE(image, VoSpBytes(response) + payloads + 16 * objects);
}

}  // namespace
}  // namespace gem2::core
