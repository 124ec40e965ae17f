// Wire v3 tests: canonical round-trips with identical verification outcomes,
// the subtree-table dedup and its canonicality checks, the compression win
// over the retired fixed-width v2 layout, exhaustive truncation/bit-flip
// rejection, golden image digests, and fail-closed rejection of v2 images.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "ads_kinds.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "deferred_roots_util.h"
#include "multiattr/multiattr_db.h"
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

/// Keys 5..300; values drawn from a three-string alphabet: repeated value
/// hashes across boundary entries are what populate the subtree-hash table.
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
  QueryResponse response = db->Query(40, 220);
  Bytes v3 = wirev3::Serialize(response);
  ASSERT_GE(v3.size(), 3u);
  EXPECT_EQ(v3[0], wirev3::kVersion);
  EXPECT_EQ(v3[1], 0);  // kind: single

  auto parsed = wirev3::Parse(v3);
  ASSERT_TRUE(parsed.has_value());
  // Canonical: the accepted image re-serializes to the identical bytes.
  EXPECT_EQ(wirev3::Serialize(*parsed), v3);
  EXPECT_EQ(VoSpBytes(*parsed), VoSpBytes(response));

  VerifiedResult direct = db->Verify(response);
  VerifiedResult via_wire = db->VerifyFor(40, 220, *parsed);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(via_wire.ok) << via_wire.error;
  EXPECT_EQ(via_wire.objects, direct.objects);
}

TEST_P(WireV3Test, EmptyResultSetRoundTrips) {
  auto db = MakeDb(GetParam());
  QueryResponse response = db->Query(600, 900);  // past every key
  Bytes v3 = SerializeResponse(response, WireVersion::kV3);
  auto parsed = ParseResponse(v3);  // version dispatch off the leading byte
  ASSERT_TRUE(parsed.has_value());
  VerifiedResult vr = db->VerifyFor(600, 900, *parsed);
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_TRUE(vr.objects.empty());
  EXPECT_EQ(SerializeResponse(*parsed, WireVersion::kV3), v3);
}

TEST_P(WireV3Test, CompressesAgainstV2) {
  auto db = MakeDb(GetParam());
  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{{40, 220}, {0, 300}}) {
    QueryResponse response = db->Query(lb, ub);
    const size_t v2 = V2ImageBytes(response);
    const size_t v3 = SerializeResponse(response, WireVersion::kV3).size();
    // The acceptance floor is a 25% reduction; in practice v3 lands nearer
    // 60% (delta keys + varints + the hash table).
    EXPECT_LE(v3 * 4, v2 * 3) << "[" << lb << ", " << ub << "]";
  }
}

TEST_P(WireV3Test, WireQueriesShipV3AndVerify) {
  // The SP ships v3 with no configuration at all, and the client verifies it.
  auto db = MakeDb(GetParam());
  EXPECT_EQ(db->wire_version(), WireVersion::kV3);
  Bytes wire = db->QueryWire(40, 220);
  EXPECT_EQ(UnwrapTracedWire(wire).image[0], wirev3::kVersion);
  VerifiedResult vr = db->VerifyWire(40, 220, wire);
  ASSERT_TRUE(vr.ok) << vr.error;
  VerifiedResult direct = db->Verify(db->Query(40, 220));
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

/// Hash references of one body — boundary value hashes and pruned content
/// hashes — in serialization order.
void CollectHashes(const ads::VoChild& child, std::vector<Hash>* out) {
  if (const auto* e = std::get_if<ads::VoEntry>(&child)) {
    if (!e->is_result) out->push_back(e->value_hash);
  } else if (const auto* p = std::get_if<ads::VoPruned>(&child)) {
    out->push_back(p->content_hash);
  } else {
    for (const ads::VoChild& c : std::get<ads::VoNodePtr>(child)->children) {
      CollectHashes(c, out);
    }
  }
}

std::vector<Hash> BodyHashes(const QueryResponse& r) {
  std::vector<Hash> hashes;
  for (const TreeResultSet& tree : r.trees) {
    if (tree.vo.root) CollectHashes(*tree.vo.root, &hashes);
  }
  return hashes;
}

/// Offset of the one occurrence of `h` in `image`.
size_t OffsetOf(const Bytes& image, const Hash& h) {
  auto it = std::search(image.begin(), image.end(), h.begin(), h.end());
  EXPECT_NE(it, image.end());
  EXPECT_EQ(std::search(it + 1, image.end(), h.begin(), h.end()), image.end());
  return static_cast<size_t>(it - image.begin());
}

Bytes Overwrite(Bytes image, size_t offset, const Hash& h) {
  std::copy(h.begin(), h.end(), image.begin() + static_cast<long>(offset));
  return image;
}

TEST(WireV3, TableDedupsRepeatedHashesAndStaysStrict) {
  // GEM2* over the three-string value alphabet: this range's VO carries
  // several repeated boundary value hashes (empirically, three table slots).
  auto db = MakeDb(AdsKind::kGem2Star);
  QueryResponse response = db->Query(40, 220);
  Bytes v3 = wirev3::Serialize(response);
  auto table = wirev3::LocateTable(v3);
  ASSERT_TRUE(table.has_value());
  ASSERT_GE(table->count, 2u);
  ASSERT_TRUE(wirev3::Parse(v3).has_value());

  // Duplicate table entries are non-canonical: copying slot 0 over slot 1
  // must kill the parse.
  Bytes dup = v3;
  std::copy(dup.begin() + static_cast<long>(table->offset),
            dup.begin() + static_cast<long>(table->offset) + 32,
            dup.begin() + static_cast<long>(table->offset) + 32);
  EXPECT_FALSE(wirev3::Parse(dup).has_value());

  // An unreferenced table entry is non-canonical too: growing the table by a
  // fresh hash (count patched) leaves a slot nothing points at.
  Bytes padded(v3.begin(), v3.begin() + 2);
  wirev3::AppendVarint(&padded, table->count + 1);
  padded.insert(padded.end(), v3.begin() + static_cast<long>(table->offset),
                v3.begin() + static_cast<long>(table->offset + 32 * table->count));
  Bytes fresh(32, 0xa5);  // not a hash this response contains
  padded.insert(padded.end(), fresh.begin(), fresh.end());
  padded.insert(padded.end(),
                v3.begin() + static_cast<long>(table->offset + 32 * table->count),
                v3.end());
  EXPECT_FALSE(wirev3::Parse(padded).has_value());

  // The repeat checks, in the first and last slice of a composite: three
  // GEM2 shards over a two-string value alphabet, so every slice ships
  // inline hashes (pruned subtrees) and references a table slot (a value
  // hash its boundary entries repeat). Each forgery rewrites 32 hash bytes
  // in place, so the framing stays intact and only the canonicality checks
  // can reject it.
  shard::ShardedDb sharded({.base = Options(AdsKind::kGem2), .bounds = {300, 700}});
  for (Key k = 1; k <= 200; ++k) {
    sharded.Insert({k * 5, "value-" + std::to_string(k % 2)});
  }
  const QueryResponse composite = sharded.Query(150, 850);
  ASSERT_EQ(composite.slices.size(), 3u);
  const Bytes image = wirev3::Serialize(composite);
  ASSERT_TRUE(wirev3::Parse(image).has_value());

  std::map<Hash, int> uses;
  for (const ShardSlice& slice : composite.slices) {
    for (const Hash& h : BodyHashes(slice.response)) ++uses[h];
  }
  std::vector<Hash> slots;
  for (const auto& [h, n] : uses) {
    if (n >= 2) slots.push_back(h);
  }
  ASSERT_EQ(slots.size(), 2u);
  std::vector<Hash> first_inlined;
  for (size_t s : {size_t{0}, composite.slices.size() - 1}) {
    SCOPED_TRACE("slice " + std::to_string(s));
    std::vector<Hash> inlined, tabled;
    for (const Hash& h : BodyHashes(composite.slices[s].response)) {
      (uses[h] == 1 ? inlined : tabled).push_back(h);
    }
    ASSERT_GE(inlined.size(), 2u);
    ASSERT_FALSE(tabled.empty());
    if (first_inlined.empty()) first_inlined = inlined;
    const Hash& other_slot = tabled.front() == slots[0] ? slots[1] : slots[0];
    for (const Bytes& forged : {
             // A repeated inline hash, within the slice and across slices.
             Overwrite(image, OffsetOf(image, inlined.back()), inlined.front()),
             Overwrite(image, OffsetOf(image, inlined.back()), first_inlined.front()),
             // An inline hash shadowing a slot the slice references.
             Overwrite(image, OffsetOf(image, inlined.front()), tabled.front()),
             // A duplicate entry: that slot rewritten as the other one.
             Overwrite(image, OffsetOf(image, tabled.front()), other_slot)}) {
      EXPECT_FALSE(wirev3::Parse(forged).has_value());
    }
  }
}

TEST(WireV3, TruncationAtEveryOffsetIsRejected) {
  auto db = MakeDb(AdsKind::kGem2);
  Bytes v3 = wirev3::Serialize(db->Query(150, 150));
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
  QueryResponse response = db->Query(150, 150);
  ASSERT_TRUE(db->VerifyFor(150, 150, response).ok);
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
      VerifiedResult vr = db->VerifyFor(150, 150, *parsed);
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

TEST(WireV3, CompositeDedupsAcrossSlicesAndRoundTrips) {
  // Two slices of one MB-tree whose values split low/high around the middle:
  // each slice's boundary entries repeat a value hash, so the *global* table
  // dedups hashes across slice boundaries — the composite-specific win.
  DbOptions options;
  options.kind = AdsKind::kMbTree;
  auto db = std::make_unique<AuthenticatedDb>(options);
  for (Key k = 1; k <= 60; ++k) {
    db->Insert({k * 5, k <= 30 ? std::string("low") : std::string("high")});
  }
  QueryResponse composite;
  composite.lb = 40;
  composite.ub = 280;
  composite.slices.push_back({0, db->Query(40, 100)});
  composite.slices.push_back({1, db->Query(200, 280)});

  Bytes v3 = wirev3::Serialize(composite);
  ASSERT_GE(v3.size(), 3u);
  EXPECT_EQ(v3[0], wirev3::kVersion);
  EXPECT_EQ(v3[1], 1);  // kind: composite
  auto table = wirev3::LocateTable(v3);
  ASSERT_TRUE(table.has_value());
  EXPECT_GE(table->count, 1u);

  auto parsed = wirev3::Parse(v3);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(wirev3::Serialize(*parsed), v3);
  EXPECT_EQ(VoSpBytes(*parsed), VoSpBytes(composite));

  EXPECT_LE(v3.size() * 4, V2ImageBytes(composite) * 3);

  for (size_t cut : {v3.size() - 1, v3.size() / 2, v3.size() / 4, size_t{3}}) {
    Bytes truncated(v3.begin(), v3.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ParseResponse(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(WireV3, ShardedScatterGatherShipsV3EndToEnd) {
  shard::ShardedDb db({.base = Options(AdsKind::kGem2), .bounds = {150}});
  Fill(db);
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);

  // The seam-crossing composite serializes as one v3 image with a shared
  // table and verifies through the ordinary wire path.
  QueryResponse response = db.Query(40, 220);
  ASSERT_EQ(response.slices.size(), 2u);
  Bytes v3 = SerializeResponse(response, WireVersion::kV3);
  EXPECT_EQ(v3[0], wirev3::kVersion);
  EXPECT_LE(v3.size() * 4, V2ImageBytes(response) * 3);

  VerifiedResult vr = db.VerifyWire(40, 220, db.QueryWire(40, 220));
  ASSERT_TRUE(vr.ok) << vr.error;
  VerifiedResult direct = db.VerifyFor(40, 220, response);
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(vr.objects, direct.objects);
}

TEST(WireV3, UnknownKindAndVersionBytesAreRejected) {
  auto db = MakeDb(AdsKind::kGem2);
  Bytes v3 = wirev3::Serialize(db->Query(40, 220));
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
  // VerifyWire surfaces it as a failed result, never an exception.
  Bytes relabeled = v3;
  relabeled[0] = 2;
  VerifiedResult vr = db->VerifyWire(40, 220, relabeled);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "malformed wire image");
}

TEST(WireV3, HashesSharingAPrefixStayDistinct) {
  // Distinct hashes with equal first 8 bytes take the full-hash path of
  // both the encoder's table census and the parser's repeat check.
  Hash a{};
  a.fill(0x11);
  Hash b = a, c = a;
  b[31] = 0x22;
  c[8] = 0x33;
  auto image = [](const std::vector<Hash>& hashes) {
    auto node = std::make_unique<ads::VoNode>();
    for (size_t i = 0; i < hashes.size(); ++i) {
      const Key lo = static_cast<Key>(10 * i);
      node->children.push_back(ads::VoPruned{lo, lo + 5, hashes[i]});
    }
    QueryResponse r;
    r.ub = 1000;
    r.trees.push_back({"t", {}, {}});
    r.trees[0].vo.root = ads::VoChild(std::move(node));
    return wirev3::Serialize(r);
  };

  // b and a repeat, c does not: the table holds b then a (first-encounter
  // order) and c ships inline.
  const Bytes v3 = image({b, a, c, a, b});
  ASSERT_EQ(wirev3::LocateTable(v3)->count, 2u);
  EXPECT_LT(OffsetOf(v3, b), OffsetOf(v3, a));
  EXPECT_LT(OffsetOf(v3, a), OffsetOf(v3, c));
  auto parsed = wirev3::Parse(v3);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(wirev3::Serialize(*parsed), v3);

  // Distinct hashes sharing the prefix all ship inline and parse, but one
  // of them repeated inline is rejected.
  const Bytes inline_only = image({a, b, c});
  EXPECT_EQ(wirev3::LocateTable(inline_only)->count, 0u);
  EXPECT_TRUE(wirev3::Parse(inline_only).has_value());
  EXPECT_FALSE(
      wirev3::Parse(Overwrite(inline_only, OffsetOf(inline_only, c), a)).has_value());
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
    images.push_back(SerializeResponse(db.Query(lb, lb + lb % 100), WireVersion::kV3));
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
  // aggregates. The digests were recorded from the encoder that built its
  // subtree table with ordered maps.
  auto flat = MakeDb(AdsKind::kGem2);
  EXPECT_EQ(RangeDigest(*flat), 11816801156046116687ull);
  EXPECT_EQ(RangeDigest(*MakeDb(AdsKind::kGem2Star)), 16321200262805385161ull);
  shard::ShardedDb sharded({.base = Options(AdsKind::kGem2), .bounds = {75, 150, 225}});
  Fill(sharded);
  EXPECT_EQ(RangeDigest(sharded), 13178359340860986213ull);
  // OR pairs and aggregates kept their bytes when AND answers shrank to one
  // conjunct (recorded before that change); the AND digest was re-recorded
  // with it.
  EXPECT_EQ(SpecDigest(/*and_pairs=*/false), 9586633410342892288ull);
  EXPECT_EQ(SpecDigest(/*and_pairs=*/true), 6310807205635679127ull);
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
  VerifiedResult vr;
  EXPECT_NO_THROW(vr = db.VerifyWire(5, 10, single));
  EXPECT_EQ(vr.error, "malformed wire image");
  VerifiedSpecResult sr;
  EXPECT_NO_THROW(sr = db.VerifySpecWire(spec, spec_image));
  EXPECT_EQ(sr.error, "malformed wire image");
  EXPECT_TRUE(db.VerifySpecWire(spec, db.SpecWire(spec)).ok);
}

}  // namespace
}  // namespace gem2::core
