// Wire v3 tests: canonical round-trips with identical verification outcomes,
// result records riding in their VO entries (encoder refusals, fail-closed
// framing), the compression win over the retired fixed-width v2 layout,
// exhaustive truncation/bit-flip rejection, golden image digests, and
// fail-closed rejection of v2 images.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "ads_kinds.h"
#include "core/aggregates.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "deferred_roots_util.h"
#include "multiattr/multiattr_db.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"
#include "wire_v2_fixture.h"

namespace gem2::core {
namespace {

DbOptions Options(AdsKind kind) {
  DbOptions options;
  options.kind = kind;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  if (kind == AdsKind::kGem2Star) options.split_points = {100, 200};
  return options;
}

/// Keys 5..300; values drawn from a three-string alphabet.
void Fill(RangeStore& db) {
  for (Key k = 1; k <= 60; ++k) db.Insert({k * 5, "value-" + std::to_string(k % 3)});
}

std::unique_ptr<AuthenticatedDb> MakeDb(AdsKind kind) {
  auto db = std::make_unique<AuthenticatedDb>(Options(kind));
  Fill(*db);
  return db;
}

/// Size of the fixed-width v2 image of `r`, from the retired layout:
/// [version][kind][lb][ub][u64 nsplits][splits][u64 ntrees], then per tree a
/// u64-prefixed label, u64-counted objects (key, u64-prefixed value) and a
/// u64-prefixed VO whose encoding is ads::VoSizeBytes bytes long; a
/// composite embeds one such image per slice behind a shard index and a
/// length.
uint64_t V2ImageBytes(const QueryResponse& r) {
  if (!r.slices.empty()) {
    uint64_t n = 2 + 8 + 8 + 8;
    for (const ShardSlice& slice : r.slices) n += 8 + 8 + V2ImageBytes(slice.response);
    return n;
  }
  uint64_t n = 2 + 8 + 8 + 8 + 8 * r.upper_splits.size() + 8;
  for (const TreeResultSet& tree : r.trees) {
    n += 8 + tree.label.size() + 8 + 8 + ads::VoSizeBytes(tree.vo);
    for (const Object& obj : tree.objects) n += 8 + 8 + obj.value.size();
  }
  return n;
}

class WireV3Test : public ::testing::TestWithParam<AdsKind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, WireV3Test, testutil::AllKinds(),
                         testutil::KindParamName);

TEST_P(WireV3Test, RoundTripsCanonicallyAndVerifies) {
  auto db = MakeDb(GetParam());
  QueryResponse response = testutil::RangeConjunct(*db, 40, 220);
  Bytes v3 = wirev3::Serialize(response);
  ASSERT_GE(v3.size(), 3u);
  EXPECT_EQ(v3[0], wirev3::kVersion);
  EXPECT_EQ(v3[1], 0);  // kind: single

  auto parsed = wirev3::Parse(v3);
  ASSERT_TRUE(parsed.has_value());
  // Canonical: the accepted image re-serializes to the identical bytes.
  EXPECT_EQ(wirev3::Serialize(*parsed), v3);
  EXPECT_EQ(VoSpBytes(*parsed), VoSpBytes(response));

  VerifiedSpecResult direct =
      testutil::VerifyConjunct(*db, response.lb, response.ub, response);
  VerifiedSpecResult via_wire = testutil::VerifyConjunct(*db, 40, 220, *parsed);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(via_wire.ok) << via_wire.error;
  EXPECT_EQ(via_wire.objects, direct.objects);
}

TEST_P(WireV3Test, EmptyResultSetRoundTrips) {
  auto db = MakeDb(GetParam());
  // Past every key.
  QueryResponse response = testutil::RangeConjunct(*db, 600, 900);
  Bytes v3 = SerializeResponse(response, WireVersion::kV3);
  auto parsed = ParseResponse(v3);  // version dispatch off the leading byte
  ASSERT_TRUE(parsed.has_value());
  VerifiedSpecResult vr = testutil::VerifyConjunct(*db, 600, 900, *parsed);
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_TRUE(vr.objects.empty());
  EXPECT_EQ(SerializeResponse(*parsed, WireVersion::kV3), v3);
}

TEST_P(WireV3Test, CompressesAgainstV2) {
  auto db = MakeDb(GetParam());
  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{{40, 220}, {0, 300}}) {
    QueryResponse response = testutil::RangeConjunct(*db, lb, ub);
    const size_t v2 = V2ImageBytes(response);
    const size_t v3 = SerializeResponse(response, WireVersion::kV3).size();
    // The acceptance floor is a 25% reduction; in practice v3 lands nearer
    // 60% (delta keys, varints, each result key once).
    EXPECT_LE(v3 * 4, v2 * 3) << "[" << lb << ", " << ub << "]";
  }
}

TEST_P(WireV3Test, WireQueriesShipV3AndVerify) {
  // The SP ships v3 with no configuration at all, and the client verifies it.
  auto db = MakeDb(GetParam());
  EXPECT_EQ(db->wire_version(), WireVersion::kV3);
  const QuerySpec range = QuerySpec::Range(40, 220);
  Bytes wire = db->SpecWire(range);
  EXPECT_EQ(UnwrapTracedWire(wire).image[0], wirev3::kVersion);
  VerifiedSpecResult vr = db->VerifySpecWire(range, wire);
  ASSERT_TRUE(vr.ok) << vr.error;
  VerifiedSpecResult direct = db->AuthenticatedSpec(range);
  EXPECT_EQ(vr.objects, direct.objects);
}

TEST(WireV3, VarintsAreCanonical) {
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{0xffffffff}, ~uint64_t{0}}) {
    Bytes b;
    wirev3::AppendVarint(&b, v);
    size_t pos = 0;
    auto back = wirev3::ReadVarint(b, &pos);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, b.size());
  }
  size_t pos = 0;
  // Non-minimal: {0x80, 0x00} is a two-byte zero.
  Bytes overlong{0x80, 0x00};
  EXPECT_FALSE(wirev3::ReadVarint(overlong, &pos).has_value());
  // Truncated continuation.
  pos = 0;
  Bytes truncated{0x80};
  EXPECT_FALSE(wirev3::ReadVarint(truncated, &pos).has_value());
  // 65-bit overflow: the 10th byte may only be 0x01.
  pos = 0;
  Bytes overflow(9, 0xff);
  overflow.push_back(0x02);
  EXPECT_FALSE(wirev3::ReadVarint(overflow, &pos).has_value());
}

TEST(WireV3, ZigzagRoundTripsTheExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 62,
                    kKeyMin, kKeyMax}) {
    EXPECT_EQ(wirev3::ZigzagDecode(wirev3::ZigzagEncode(v)), v);
  }
  EXPECT_EQ(wirev3::ZigzagEncode(0), 0u);
  EXPECT_EQ(wirev3::ZigzagEncode(-1), 1u);
  EXPECT_EQ(wirev3::ZigzagEncode(1), 2u);
}

TEST(WireV3, TruncationAtEveryOffsetIsRejected) {
  auto db = MakeDb(AdsKind::kGem2);
  Bytes v3 = wirev3::Serialize(testutil::RangeConjunct(*db, 150, 150));
  ASSERT_TRUE(wirev3::Parse(v3).has_value());
  for (size_t cut = 0; cut < v3.size(); ++cut) {
    Bytes truncated(v3.begin(), v3.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ParseResponse(truncated).has_value()) << "cut at " << cut;
  }
  Bytes padded = v3;
  padded.push_back(0);
  EXPECT_FALSE(ParseResponse(padded).has_value());
}

TEST(WireV3, BitFlipAtEveryOffsetNeverAcceptsASemanticChange) {
  auto db = MakeDb(AdsKind::kGem2Star);
  QueryResponse response = testutil::RangeConjunct(*db, 150, 150);
  ASSERT_TRUE(testutil::VerifyConjunct(*db, 150, 150, response).ok);
  Bytes v3 = wirev3::Serialize(response);

  int parsed_count = 0;
  for (size_t offset = 0; offset < v3.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = v3;
      bad[offset] ^= static_cast<uint8_t>(1u << bit);
      auto parsed = ParseResponse(bad);
      if (!parsed.has_value()) continue;
      ++parsed_count;
      // Anything that still parses must fail client verification — unless
      // the canonical re-serialization proves nothing semantic changed,
      // which for a strictly canonical codec means the original image.
      VerifiedSpecResult vr = testutil::VerifyConjunct(*db, 150, 150, *parsed);
      if (vr.ok) {
        EXPECT_EQ(SerializeResponse(*parsed, WireVersion::kV3), v3)
            << "offset " << offset << " bit " << bit;
      }
    }
  }
  // The flips that survive the codec are exactly the ones verification is
  // for; the sweep must have exercised that second line of defense.
  EXPECT_GT(parsed_count, 0);
}

TEST(WireV3, ShardedScatterGatherShipsV3EndToEnd) {
  shard::ShardedDb db({.base = Options(AdsKind::kGem2), .bounds = {150}});
  Fill(db);
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);

  // The seam-crossing composite serializes as one v3 image with a shared
  // table and verifies through the ordinary wire path.
  QueryResponse response = testutil::RangeConjunct(db, 40, 220);
  ASSERT_EQ(response.slices.size(), 2u);
  Bytes v3 = SerializeResponse(response, WireVersion::kV3);
  EXPECT_EQ(v3[0], wirev3::kVersion);
  EXPECT_LE(v3.size() * 4, V2ImageBytes(response) * 3);

  VerifiedSpecResult vr = db.VerifySpecWire(
      QuerySpec::Range(40, 220), db.SpecWire(QuerySpec::Range(40, 220)));
  ASSERT_TRUE(vr.ok) << vr.error;
  VerifiedSpecResult direct = testutil::VerifyConjunct(db, 40, 220, response);
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(vr.objects, direct.objects);
}

TEST(WireV3, UnknownKindAndVersionBytesAreRejected) {
  auto db = MakeDb(AdsKind::kGem2);
  Bytes v3 = wirev3::Serialize(testutil::RangeConjunct(*db, 40, 220));
  for (uint8_t k : {2, 7, 255}) {
    Bytes other = v3;
    other[1] = k;
    EXPECT_FALSE(ParseResponse(other).has_value()) << "kind " << int(k);
  }
  // A v3 body relabeled with any other version byte dies in that parser.
  for (uint8_t v : {0, 1, 2, 4, 255}) {
    Bytes other = v3;
    other[0] = v;
    EXPECT_FALSE(ParseResponse(other).has_value()) << "version " << int(v);
  }
  // The client surfaces it as a failed result, never an exception.
  Bytes relabeled = v3;
  relabeled[0] = 2;
  VerifiedSpecResult vr =
      testutil::VerifyConjunctImage(*db, 40, 220, relabeled);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "malformed wire image");
}

/// lb 0, ub 100, one tree "t" whose VO is one node: a result entry (key 10,
/// value "abc") then a boundary entry (key 20).
QueryResponse HandBuilt() {
  Hash h{};
  h.fill(0x5a);
  QueryResponse r;
  r.ub = 100;
  r.trees.push_back({"t", {{10, "abc"}}, {}});
  r.trees[0].vo.elements = {ads::VoElement::Node(2), ads::VoElement::Result(10),
                            ads::VoElement::Boundary(20, h)};
  return r;
}

TEST(WireV3, ResultRecordsRideInTheirEntries) {
  const Bytes image = wirev3::Serialize(HandBuilt());
  // version, kind, zz(lb), ub-lb, nsplits, ntrees, |label|, label,
  // nobjects, VO present, node tag 3+2, then the result entry: tag,
  // zzdelta(10), |value|, value; then the boundary entry: tag, zzdelta(10),
  // hash32.
  const Bytes head{3, 0, 0, 100, 0, 1, 1, 't', 1, 1, 5, 1, 20, 3, 'a', 'b', 'c', 2, 20};
  ASSERT_EQ(image.size(), head.size() + 32);
  ASSERT_TRUE(std::equal(head.begin(), head.end(), image.begin()));
  auto parsed = wirev3::Parse(image);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trees[0].objects, (std::vector<Object>{{10, "abc"}}));
  EXPECT_EQ(wirev3::Serialize(*parsed), image);

  auto patched = [&image](size_t at, uint8_t byte) {
    Bytes b = image;
    b[at] = byte;
    return b;
  };
  // A value length past the image end, or one that strands the value's
  // tail for the parser to read as the next child.
  EXPECT_FALSE(wirev3::Parse(patched(13, 0x7f)).has_value());
  EXPECT_FALSE(wirev3::Parse(patched(13, 2)).has_value());
  // nobjects must equal the number of result entries.
  EXPECT_FALSE(wirev3::Parse(patched(8, 0)).has_value());
  EXPECT_FALSE(wirev3::Parse(patched(8, 2)).has_value());
  // A node tag whose arity exceeds what the remaining bytes can hold (40
  // bytes follow it, at most 13 children of 3 bytes), one byte or ten.
  EXPECT_FALSE(wirev3::Parse(patched(10, 3 + 14)).has_value());
  Bytes wide(image.begin(), image.begin() + 10);
  wirev3::AppendVarint(&wide, 3 + (uint64_t{1} << 40));
  wide.insert(wide.end(), image.begin() + 11, image.end());
  EXPECT_FALSE(wirev3::Parse(wide).has_value());
  // Tag 0 is no child.
  EXPECT_FALSE(wirev3::Parse(patched(10, 0)).has_value());

  // A truncated value: the result entry last, cut inside its value.
  QueryResponse last = HandBuilt();
  auto& children = last.trees[0].vo.elements;
  std::swap(children[1], children[2]);
  children[1].lo = 5;
  const Bytes tail = wirev3::Serialize(last);
  ASSERT_TRUE(wirev3::Parse(tail).has_value());
  for (size_t cut = 1; cut <= 3; ++cut) {
    EXPECT_FALSE(
        wirev3::Parse(Bytes(tail.begin(), tail.end() - static_cast<long>(cut))).has_value());
  }
}

TEST(WireV3, EncoderRefusesRecordsTheVoDoesNotProve) {
  ASSERT_NO_THROW(wirev3::Serialize(HandBuilt()));
  QueryResponse extra = HandBuilt();
  extra.trees[0].objects.push_back({30, "d"});
  EXPECT_THROW(wirev3::Serialize(extra), std::invalid_argument);
  QueryResponse missing = HandBuilt();
  missing.trees[0].objects.clear();
  EXPECT_THROW(wirev3::Serialize(missing), std::invalid_argument);
  QueryResponse moved = HandBuilt();
  moved.trees[0].objects[0].key = 11;
  EXPECT_THROW(wirev3::Serialize(moved), std::invalid_argument);
  // Two result entries whose records are listed out of VO order.
  QueryResponse swapped = HandBuilt();
  swapped.trees[0].vo.elements[2].kind = ads::VoElement::Kind::kResult;
  swapped.trees[0].objects = {{20, "e"}, {10, "abc"}};
  EXPECT_THROW(wirev3::Serialize(swapped), std::invalid_argument);
  swapped.trees[0].objects = {{10, "abc"}, {20, "e"}};
  EXPECT_NO_THROW(wirev3::Serialize(swapped));
  // An expanded node with no children has no tag.
  QueryResponse empty_node = HandBuilt();
  empty_node.trees[0].objects.clear();
  empty_node.trees[0].vo.elements = {ads::VoElement::Node(0)};
  EXPECT_THROW(wirev3::Serialize(empty_node), std::invalid_argument);
  // Elements that do not form one tree: a node owed more children than
  // follow, or elements past the root's subtree.
  QueryResponse short_node = HandBuilt();
  short_node.trees[0].vo.elements[0].children = 3;
  EXPECT_THROW(wirev3::Serialize(short_node), std::invalid_argument);
  QueryResponse trailing = HandBuilt();
  trailing.trees[0].vo.elements[0].children = 1;
  EXPECT_THROW(wirev3::Serialize(trailing), std::invalid_argument);
}

TEST(WireV3, AggregateImagesKeepOnlyRecordsShorterThanAHash) {
  // A record ships whole while varint(|value|) + value fits in a hash's 32
  // bytes: 31 bytes of value is kept, 32 is demoted.
  EXPECT_TRUE(KeepsRecordInAggregate(""));
  EXPECT_TRUE(KeepsRecordInAggregate(std::string(31, 'x')));
  EXPECT_FALSE(KeepsRecordInAggregate(std::string(32, 'x')));
  EXPECT_FALSE(KeepsRecordInAggregate(std::string(200, 'x')));

  const QuerySpec count{BoolOp::kAnd, {{PredicateKind::kRange, 0, 40, 220}},
                        AggregateKind::kCount};
  // Short values: the aggregate's conjunct is the full range answer, byte
  // for byte.
  AuthenticatedDb short_db(Options(AdsKind::kGem2));
  Fill(short_db);
  const SpecResponse kept = short_db.ExecuteSpec(count);
  EXPECT_EQ(wirev3::Serialize(kept.conjuncts[0]),
            wirev3::Serialize(testutil::RangeConjunct(short_db, 40, 220)));
  EXPECT_TRUE(short_db.VerifySpecWire(
      count, SerializeSpecResponse(kept, WireVersion::kV3)).ok);

  // Long values: the answer ships hashes only, and the same range's answer
  // with its records, in the aggregate's envelope, is a well-formed conjunct
  // the shape rule forbids.
  AuthenticatedDb long_db(Options(AdsKind::kGem2));
  for (Key k = 1; k <= 60; ++k) {
    long_db.Insert({k * 5, std::string(32, static_cast<char>('a' + k % 3))});
  }
  SpecResponse response = long_db.ExecuteSpec(count);
  for (const TreeResultSet& tree : response.conjuncts[0].trees) {
    EXPECT_TRUE(tree.objects.empty());
  }
  const Bytes honest = SerializeSpecResponse(response, WireVersion::kV3);
  ASSERT_TRUE(ParseSpecResponse(honest).has_value());
  ASSERT_TRUE(long_db.VerifySpecWire(count, honest).ok);
  response.conjuncts[0] = testutil::RangeConjunct(long_db, 40, 220);
  ASSERT_FALSE(response.conjuncts[0].trees.empty());
  const Bytes forged = SerializeSpecResponse(response, WireVersion::kV3);
  EXPECT_FALSE(ParseSpecResponse(forged).has_value());
  EXPECT_EQ(long_db.VerifySpecWire(count, forged).error, "malformed wire image");
  EXPECT_EQ(long_db.VerifySpecFor(count, response).error,
            "conjunct 0: aggregate response ships a record longer than its hash");
}

/// FNV-1a over each image's length and bytes.
uint64_t ImagesDigest(const std::vector<Bytes>& images) {
  testutil::Fnv fnv;
  for (const Bytes& image : images) fnv.Mix(std::string(image.begin(), image.end()));
  return fnv.value();
}

/// Ranges from empty to a third of the key space, every 16 keys.
uint64_t RangeDigest(const RangeStore& db) {
  std::vector<Bytes> images;
  for (Key lb = 0; lb < 320; lb += 16) {
    images.push_back(SerializeResponse(
        testutil::RangeConjunct(db, lb, lb + lb % 100), WireVersion::kV3));
  }
  return ImagesDigest(images);
}

/// Spec answers over two attributes: AND and OR pairs, each followed by its
/// COUNT and SUM twins over one predicate. `and_pairs` selects the AND pairs
/// (answered from one conjunct); otherwise the digest covers the OR pairs
/// and the aggregates (answered one conjunct per predicate).
uint64_t SpecDigest(bool and_pairs) {
  multiattr::MultiAttrDb db({.base = Options(AdsKind::kGem2),
                             .num_attrs = 2,
                             .id_bits = 16,
                             .shard_bounds = {}});
  for (int i = 0; i < 60; ++i) {
    db.InsertRecord({i, {i * 7 % 41 - 20, i * 13 % 37 - 18}, "p" + std::to_string(i % 3)});
  }
  std::vector<Bytes> images;
  for (Key i = 0; i < 6; ++i) {
    const Predicate a{PredicateKind::kRange, 0, -20 + 3 * i, 5 * i - 4};
    const Predicate b{PredicateKind::kRange, 1, -18 + 2 * i, 4 * i};
    for (const QuerySpec& spec :
         {QuerySpec{i % 2 ? BoolOp::kOr : BoolOp::kAnd, {a, b}},
          QuerySpec{BoolOp::kAnd, {a}, AggregateKind::kCount},
          QuerySpec{BoolOp::kAnd, {b}, AggregateKind::kSum}}) {
      const bool and_pair = spec.op == BoolOp::kAnd && spec.predicates.size() == 2;
      if (and_pair != and_pairs) continue;
      images.push_back(SerializeSpecResponse(db.ExecuteSpec(spec), WireVersion::kV3));
    }
  }
  return ImagesDigest(images);
}

TEST(WireV3, ImagesMatchRecordedDigests) {
  // Responses of every shape must keep their exact bytes: flat GEM2, GEM2*
  // with split points, 4-shard GEM2 composites, AND/OR specs and COUNT/SUM
  // aggregates. The digests were recorded from the encoder that ships each
  // result record inside its VO entry, with bare hashes and one-varint node
  // tags; the two spec digests, from the varint record codec with
  // aggregates keeping the records no longer than a hash.
  auto flat = MakeDb(AdsKind::kGem2);
  EXPECT_EQ(RangeDigest(*flat), 18266049008412873762ull);
  EXPECT_EQ(RangeDigest(*MakeDb(AdsKind::kGem2Star)), 3871809363641887366ull);
  shard::ShardedDb sharded({.base = Options(AdsKind::kGem2), .bounds = {75, 150, 225}});
  Fill(sharded);
  EXPECT_EQ(RangeDigest(sharded), 13022848956925603728ull);
  EXPECT_EQ(SpecDigest(/*and_pairs=*/false), 3796840994084137434ull);
  EXPECT_EQ(SpecDigest(/*and_pairs=*/true), 2104474953977797120ull);
}

Bytes FromHex(const char* hex) {
  Bytes out;
  for (const char* p = hex; p[0] != 0 && p[1] != 0; p += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(std::string(p, 2), nullptr, 16)));
  }
  return out;
}

TEST(WireV3, RetiredV2ImagesFailClosed) {
  const Bytes single = FromHex(testutil::kV2SingleHex);
  const Bytes spec_image = FromHex(testutil::kV2SpecHex);
  const Bytes composite = FromHex(testutil::kV2CompositeHex);
  for (const Bytes* image : {&single, &spec_image, &composite}) {
    ASSERT_GE(image->size(), 2u);
    EXPECT_EQ((*image)[0], 2);
  }
  EXPECT_FALSE(ParseResponse(single).has_value());
  EXPECT_FALSE(ParseResponse(composite).has_value());
  EXPECT_FALSE(ParseSpecResponse(spec_image).has_value());
  EXPECT_FALSE(ParseResponse(spec_image).has_value());
  EXPECT_FALSE(ParseSpecResponse(single).has_value());

  // The client, in the world the images were captured from, reports them
  // as malformed and never throws; a v3 answer there verifies.
  AuthenticatedDb db(Options(AdsKind::kGem2));
  for (Key k : {5, 10}) db.Insert({k, "v" + std::to_string(k)});
  const QuerySpec spec = QuerySpec::Range(5, 10);
  for (const Bytes& image : {single, composite, spec_image}) {
    VerifiedSpecResult vr;
    EXPECT_NO_THROW(vr = db.VerifySpecWire(spec, image));
    EXPECT_EQ(vr.error, "malformed wire image");
  }
  EXPECT_TRUE(db.VerifySpecWire(spec, db.SpecWire(spec)).ok);
}

}  // namespace
}  // namespace gem2::core
