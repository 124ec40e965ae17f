// Multi-attribute boolean query tests: seeded AND/OR equivalence against
// brute-force record filtering (unsharded and sharded attribute indexes),
// server-computed aggregates vs brute force with tombstones, empty-conjunct /
// disjoint-range / out-of-domain edge cases, owner-surface validation, the
// record codec, and a >= 500-round seeded spec-forgery sweep asserting 100%
// rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ads/vo.h"
#include "common/random.h"
#include "core/authenticated_db.h"
#include "core/query_spec.h"
#include "core/tombstone.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "fault/adversary.h"
#include "multiattr/multiattr_db.h"
#include "seed_util.h"

namespace gem2::multiattr {
namespace {

using core::AdsKind;
using core::AggregateKind;
using core::BoolOp;
using core::Predicate;
using core::PredicateKind;
using core::QuerySpec;
using core::VerifiedSpecResult;
using core::WireVersion;

MultiAttrOptions SmallOptions(uint32_t num_attrs) {
  MultiAttrOptions opts;
  opts.base.kind = AdsKind::kGem2;
  opts.base.gem2.m = 2;
  opts.base.gem2.smax = 16;
  opts.num_attrs = num_attrs;
  opts.id_bits = 16;
  return opts;
}

/// Seeded population: `n` records, attribute values uniform in [-50, 50],
/// payloads padded by `pad` bytes, then every fourth record deleted
/// (tombstones in every index).
std::vector<MultiAttrRecord> Populate(MultiAttrDb* db, int n, uint64_t seed,
                                      std::set<int64_t>* deleted,
                                      size_t pad = 0) {
  Rng rng(seed);
  std::vector<MultiAttrRecord> records;
  for (int i = 0; i < n; ++i) {
    MultiAttrRecord r;
    r.id = i;
    for (uint32_t k = 0; k < db->num_attributes(); ++k) {
      r.attrs.push_back(rng.UniformInt(-50, 50));
    }
    r.value = "payload-" + std::to_string(i) + std::string(pad, '.');
    EXPECT_TRUE(db->InsertRecord(r).ok) << i;
    records.push_back(std::move(r));
  }
  for (int i = 0; i < n; i += 4) {
    EXPECT_TRUE(db->DeleteRecord(i).ok) << i;
    deleted->insert(i);
  }
  return records;
}

bool Matches(const MultiAttrRecord& r, const Predicate& p) {
  return r.attrs[p.attr] >= p.lb && r.attrs[p.attr] <= p.ub;
}

/// Brute-force reference: ids of live records satisfying the spec.
std::vector<int64_t> BruteForce(const std::vector<MultiAttrRecord>& records,
                                const std::set<int64_t>& deleted,
                                const QuerySpec& spec) {
  std::vector<int64_t> ids;
  for (const MultiAttrRecord& r : records) {
    if (deleted.count(r.id) != 0) continue;
    bool all = true;
    bool any = false;
    for (const Predicate& p : spec.predicates) {
      if (Matches(r, p)) {
        any = true;
      } else {
        all = false;
      }
    }
    if (spec.op == BoolOp::kAnd ? all : any) ids.push_back(r.id);
  }
  return ids;
}

void ExpectSpecEquals(MultiAttrDb& db,
                      const std::vector<MultiAttrRecord>& records,
                      const std::set<int64_t>& deleted, const QuerySpec& spec) {
  SCOPED_TRACE(core::ToString(spec));
  const std::vector<int64_t> expected = BruteForce(records, deleted, spec);

  // In-memory path and the full wire path must agree with brute force.
  for (bool over_wire : {false, true}) {
    VerifiedSpecResult vr = over_wire
                                ? db.VerifySpecWire(spec, db.SpecWire(spec))
                                : db.AuthenticatedSpec(spec);
    ASSERT_TRUE(vr.ok) << vr.error;
    ASSERT_EQ(vr.objects.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(vr.objects[i].key, expected[i]);
      // The composed value is the canonical record encoding: decode and
      // cross-check the payload against the owner's copy.
      auto rec = DecodeRecord(vr.objects[i].value);
      ASSERT_TRUE(rec.has_value());
      EXPECT_EQ(rec->id, expected[i]);
      EXPECT_EQ(rec->value,
                records[static_cast<size_t>(expected[i])].value);
    }
  }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

TEST(MultiAttrRecordCodec, RoundTripsAndFailsClosed) {
  MultiAttrRecord r;
  r.id = 77;
  r.attrs = {-5, 0, 123456789};
  r.value = std::string("binary\0payload", 14);
  const std::string encoded = EncodeRecord(r);
  auto decoded = DecodeRecord(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);

  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeRecord(encoded.substr(0, len)).has_value())
        << "prefix " << len;
  }
  EXPECT_FALSE(DecodeRecord(encoded + "x").has_value());

  // Hostile attribute count must not drive allocation: a record claiming
  // 2^63 attributes in a few bytes fails before any reserve.
  std::string bomb;
  core::wirev3::AppendVarint(&bomb, 77);
  core::wirev3::AppendVarint(&bomb, uint64_t{1} << 63);
  bomb += encoded.substr(2);
  EXPECT_FALSE(DecodeRecord(bomb).has_value());
}

TEST(MultiAttrRecordCodec, RoundTripsTheExtremes) {
  const uint32_t id_bits = SmallOptions(2).id_bits;
  const int64_t max_id = (int64_t(1) << id_bits) - 2;
  const std::vector<MultiAttrRecord> records = {
      {0, {}, ""},
      {max_id, {INT64_MIN, INT64_MAX, -1, 0}, ""},
      {0, {INT64_MIN}, std::string(300, '\0')},
      {max_id, {}, "payload"},
  };
  for (const MultiAttrRecord& r : records) {
    const std::string encoded = EncodeRecord(r);
    auto decoded = DecodeRecord(encoded);
    ASSERT_TRUE(decoded.has_value()) << r.id;
    EXPECT_EQ(*decoded, r);
    EXPECT_EQ(EncodeRecord(*decoded), encoded);
  }
  // The compact layout: id 0, no attributes, empty payload is two varints
  // and a zero length.
  EXPECT_EQ(EncodeRecord({0, {}, ""}), std::string("\0\0\0", 3));
  // An attribute at either end of the signed range takes ten varint bytes.
  EXPECT_EQ(EncodeRecord({0, {INT64_MIN}, ""}).size(), 1u + 1u + 10u + 1u);
}

TEST(MultiAttrRecordCodec, RejectsAnOverlongVarintInEveryField) {
  // id 5, attributes {3, -2}, payload "ab": five one-byte varints.
  const std::string canonical = EncodeRecord({5, {3, -2}, "ab"});
  ASSERT_EQ(canonical, std::string("\x05\x02\x06\x03\x02" "ab", 7));
  ASSERT_TRUE(DecodeRecord(canonical).has_value());
  // Field f re-spelled as a two-byte varint (low group | 0x80, then 0x00)
  // decodes to the same number, but is not the canonical encoding.
  for (size_t f = 0; f < 5; ++f) {
    std::string overlong = canonical;
    overlong[f] = static_cast<char>(overlong[f] | 0x80);
    overlong.insert(f + 1, 1, '\0');
    EXPECT_FALSE(DecodeRecord(overlong).has_value()) << "field " << f;
  }
  // More than 64 bits of id.
  std::string overflow(10, '\xff');
  overflow += std::string("\x00\x00", 2);
  EXPECT_FALSE(DecodeRecord(overflow).has_value());
}

// ---------------------------------------------------------------------------
// Composite key packing
// ---------------------------------------------------------------------------

TEST(MultiAttrKeys, CompositeKeysOrderByValueThenId) {
  MultiAttrDb db(SmallOptions(2));
  EXPECT_EQ(db.AttrMin(), -(Key(1) << 47));
  EXPECT_EQ(db.AttrMax(), (Key(1) << 47) - 1);

  // Primary order: attribute value (negative values sort below positive);
  // secondary: record id.
  EXPECT_LT(db.CompositeKey(-1, 100), db.CompositeKey(0, 0));
  EXPECT_LT(db.CompositeKey(0, 3), db.CompositeKey(0, 4));
  EXPECT_LT(db.CompositeKey(db.AttrMin(), 0), db.CompositeKey(0, 0));
  EXPECT_LT(db.CompositeKey(0, 0), db.CompositeKey(db.AttrMax(), 0));
  // The extremes pack without overflow.
  EXPECT_EQ(db.CompositeKey(db.AttrMin(), 0), kKeyMin);
}

// ---------------------------------------------------------------------------
// Owner surface
// ---------------------------------------------------------------------------

TEST(MultiAttrOwner, ValidatesRecordsAndManagesLifecycle) {
  MultiAttrDb db(SmallOptions(2));
  EXPECT_TRUE(db.InsertRecord({1, {10, 20}, "a"}).ok);

  EXPECT_THROW(db.InsertRecord({1, {0, 0}, "dup"}), std::invalid_argument);
  EXPECT_THROW(db.InsertRecord({2, {0}, "few"}), std::invalid_argument);
  EXPECT_THROW(db.InsertRecord({-1, {0, 0}, "neg"}), std::invalid_argument);
  EXPECT_THROW(db.InsertRecord({(1 << 16) - 1, {0, 0}, "reserved"}),
               std::invalid_argument);
  EXPECT_THROW(db.InsertRecord({3, {db.AttrMax() + 1, 0}, "oob"}),
               std::invalid_argument);

  // Object-level owner ops are not meaningful on records.
  EXPECT_THROW(db.Insert({9, "x"}), std::logic_error);
  EXPECT_THROW(db.Update({9, "x"}), std::logic_error);
  EXPECT_THROW(db.Delete(9), std::logic_error);
  EXPECT_THROW(db.InsertBatch({{9, "x"}}), std::logic_error);

  EXPECT_TRUE(db.Contains(1));
  EXPECT_EQ(db.size(), 1u);
  ASSERT_TRUE(db.FindRecord(1).has_value());
  EXPECT_EQ(db.FindRecord(1)->value, "a");

  EXPECT_TRUE(db.UpdateRecord(1, "b").ok);
  EXPECT_EQ(db.FindRecord(1)->value, "b");
  EXPECT_THROW(db.UpdateRecord(42, "?"), std::invalid_argument);

  EXPECT_TRUE(db.DeleteRecord(1).ok);
  EXPECT_FALSE(db.Contains(1));
  EXPECT_EQ(db.size(), 0u);
  EXPECT_FALSE(db.FindRecord(1).has_value());
  EXPECT_THROW(db.DeleteRecord(1), std::invalid_argument);

  db.CheckConsistency();
}

TEST(MultiAttrOwner, OptionsValidation) {
  MultiAttrOptions zero_attrs = SmallOptions(0);
  EXPECT_THROW(MultiAttrDb{std::move(zero_attrs)}, std::invalid_argument);

  MultiAttrOptions bad_bits = SmallOptions(2);
  bad_bits.id_bits = 41;
  EXPECT_THROW(MultiAttrDb{std::move(bad_bits)}, std::invalid_argument);

  MultiAttrOptions bad_bounds = SmallOptions(2);
  bad_bounds.shard_bounds = {10, 10};
  EXPECT_THROW(MultiAttrDb{std::move(bad_bounds)}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Seeded boolean equivalence vs brute force
// ---------------------------------------------------------------------------

class MultiAttrEquivalence : public ::testing::TestWithParam<WireVersion> {};

TEST_P(MultiAttrEquivalence, BooleanSpecsMatchBruteForce) {
  MultiAttrDb db(SmallOptions(3));
  ASSERT_EQ(db.wire_version(), GetParam());
  std::set<int64_t> deleted;
  std::vector<MultiAttrRecord> records = Populate(&db, 120, 0xA11CE, &deleted);
  db.CheckConsistency();

  Rng rng(0xBEEF);
  for (int round = 0; round < 24; ++round) {
    QuerySpec spec;
    spec.op = rng.Chance(0.5) ? BoolOp::kAnd : BoolOp::kOr;
    const int npred = static_cast<int>(rng.Uniform(1, 3));
    for (int p = 0; p < npred; ++p) {
      Key lo = rng.UniformInt(-60, 60);
      Key hi = rng.UniformInt(-60, 60);
      if (hi < lo) std::swap(lo, hi);
      spec.predicates.push_back(Predicate{
          PredicateKind::kRange,
          static_cast<uint32_t>(rng.Uniform(0, db.num_attributes() - 1)), lo,
          hi});
    }
    ExpectSpecEquals(db, records, deleted, spec);
  }
}

TEST_P(MultiAttrEquivalence, EdgeCaseSpecs) {
  MultiAttrDb db(SmallOptions(2));
  ASSERT_EQ(db.wire_version(), GetParam());
  std::set<int64_t> deleted;
  std::vector<MultiAttrRecord> records = Populate(&db, 60, 0xD0C5, &deleted);

  // An empty conjunct: no attribute value lives in [200, 300].
  QuerySpec empty_and;
  empty_and.predicates.push_back(Predicate{PredicateKind::kRange, 0, 200, 300});
  empty_and.predicates.push_back(Predicate{PredicateKind::kRange, 1, -50, 50});
  ExpectSpecEquals(db, records, deleted, empty_and);

  QuerySpec empty_or = empty_and;
  empty_or.op = BoolOp::kOr;
  ExpectSpecEquals(db, records, deleted, empty_or);

  // Disjoint ranges over the SAME attribute: AND is provably empty, OR is
  // the union of both sides.
  QuerySpec disjoint;
  disjoint.predicates.push_back(Predicate{PredicateKind::kRange, 0, -50, -1});
  disjoint.predicates.push_back(Predicate{PredicateKind::kRange, 0, 1, 50});
  ExpectSpecEquals(db, records, deleted, disjoint);
  EXPECT_TRUE(BruteForce(records, deleted, disjoint).empty());
  QuerySpec disjoint_or = disjoint;
  disjoint_or.op = BoolOp::kOr;
  ExpectSpecEquals(db, records, deleted, disjoint_or);

  // Ranges that miss the attribute domain entirely map to the reserved
  // recordless singleton and verify as provably empty.
  QuerySpec beyond = QuerySpec::Range(db.AttrMax() + 1, kKeyMax);
  ExpectSpecEquals(db, records, deleted, beyond);
  QuerySpec below = QuerySpec::Range(kKeyMin, db.AttrMin() - 1);
  ExpectSpecEquals(db, records, deleted, below);

  // Full-domain point and span queries.
  ExpectSpecEquals(db, records, deleted, QuerySpec::Range(kKeyMin, kKeyMax, 1));
  ExpectSpecEquals(db, records, deleted,
                   QuerySpec::Range(records[0].attrs[0], records[0].attrs[0]));
}

INSTANTIATE_TEST_SUITE_P(WireVersions, MultiAttrEquivalence,
                         ::testing::Values(WireVersion::kV3));

// ---------------------------------------------------------------------------
// Server-computed aggregates
// ---------------------------------------------------------------------------

/// Every VO entry of `tree`, in VO order.
std::vector<ads::VoElement*> Entries(core::TreeResultSet* tree) {
  std::vector<ads::VoElement*> entries;
  for (ads::VoElement& e : tree->vo.elements) {
    if (e.is_entry()) entries.push_back(&e);
  }
  return entries;
}

bool IsResult(const ads::VoElement* e) {
  return e->kind == ads::VoElement::Kind::kResult;
}

/// What an aggregate conjunct ships for its in-range entries, composite
/// slices included: records kept, and hashes standing in for records.
struct AnswerShape {
  std::vector<std::string> kept;
  size_t hashed = 0;
};

void MeasureShape(core::QueryResponse* r, AnswerShape* shape) {
  for (core::TreeResultSet& tree : r->trees) {
    for (const Object& obj : tree.objects) shape->kept.push_back(obj.value);
    for (const ads::VoElement* e : Entries(&tree)) {
      if (!IsResult(e) && e->lo >= r->lb && e->lo <= r->ub) ++shape->hashed;
    }
  }
  for (core::ShardSlice& slice : r->slices) MeasureShape(&slice.response, shape);
}

TEST(MultiAttrAggregates, MatchBruteForceInBothShapes) {
  // Records of 15-16 bytes ship whole: a 32-byte hash would be longer.
  // Records padded past 31 bytes ship as their hashes. Tombstones (16 bytes)
  // ship whole in both stores.
  for (size_t pad : {size_t{0}, size_t{30}}) {
    for (bool sharded : {false, true}) {
      SCOPED_TRACE("pad " + std::to_string(pad) +
                   (sharded ? ", sharded" : ", flat"));
      MultiAttrOptions opts = SmallOptions(2);
      if (sharded) opts.shard_bounds = {-20, 0, 20};
      MultiAttrDb db(std::move(opts));
      std::set<int64_t> deleted;
      std::vector<MultiAttrRecord> records =
          Populate(&db, 90, 0xA66, &deleted, pad);
      const bool long_records = EncodeRecord(records[1]).size() > 31;
      ASSERT_EQ(long_records, pad > 0);

      Rng rng(0x5EED);
      for (int round = 0; round < 12; ++round) {
        Key lo = rng.UniformInt(-60, 60);
        Key hi = rng.UniformInt(-60, 60);
        if (hi < lo) std::swap(lo, hi);
        const uint32_t attr = static_cast<uint32_t>(rng.Uniform(0, 1));

        // Brute-force aggregates over live records' attribute values.
        uint64_t count = 0, tombstones = 0;
        long long sum = 0;
        std::optional<Key> min_v, max_v;
        for (const MultiAttrRecord& r : records) {
          const Key v = r.attrs[attr];
          if (v < lo || v > hi) continue;
          if (deleted.count(r.id) != 0) {
            ++tombstones;
            continue;
          }
          ++count;
          sum += v;
          min_v = min_v.has_value() ? std::min(*min_v, v) : v;
          max_v = max_v.has_value() ? std::max(*max_v, v) : v;
        }

        const Bytes full = SerializeSpecResponse(
            db.ExecuteSpec(QuerySpec::Range(lo, hi, attr)), WireVersion::kV3);
        for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum,
                                   AggregateKind::kMin, AggregateKind::kMax}) {
          QuerySpec spec = QuerySpec::Range(lo, hi, attr);
          spec.aggregate = kind;
          SCOPED_TRACE(core::ToString(spec));

          core::SpecResponse response = db.ExecuteSpec(spec);
          ASSERT_EQ(response.conjuncts.size(), 1u);
          AnswerShape shape;
          MeasureShape(&response.conjuncts[0], &shape);
          if (long_records) {
            // Live records as hashes; only tombstones kept.
            EXPECT_EQ(shape.hashed, count);
            EXPECT_EQ(shape.kept.size(), tombstones);
            for (const std::string& v : shape.kept) {
              EXPECT_TRUE(core::IsTombstone(v));
            }
          } else {
            EXPECT_EQ(shape.hashed, 0u);
            EXPECT_EQ(shape.kept.size(), count + tombstones);
          }
          // Never larger than the full answer over the same predicate.
          const Bytes image = SerializeSpecResponse(response, WireVersion::kV3);
          EXPECT_LE(image.size(), full.size());
          if (long_records && count > 0) {
            EXPECT_LT(image.size(), full.size());
          }

          for (bool over_wire : {false, true}) {
            VerifiedSpecResult vr = over_wire ? db.VerifySpecWire(spec, image)
                                              : db.VerifySpecFor(spec, response);
            ASSERT_TRUE(vr.ok) << vr.error;
            EXPECT_TRUE(vr.objects.empty());
            EXPECT_EQ(vr.tombstones_filtered, tombstones);
            ASSERT_TRUE(vr.aggregates.has_value());
            EXPECT_EQ(vr.aggregates->count, count);
            EXPECT_EQ(vr.aggregates->min_key, min_v);
            EXPECT_EQ(vr.aggregates->max_key, max_v);
            if (count > 0) {
              ASSERT_TRUE(vr.aggregates->sum.has_value());
              EXPECT_EQ(*vr.aggregates->sum, sum);
            } else {
              EXPECT_FALSE(vr.aggregates->sum.has_value());
            }
          }
        }
      }
    }
  }
}

/// Applies `forge` to a copy of `honest` and counts it rejected when the
/// in-memory client refuses it and, if `wire` is set, so does the wire
/// client (the image's parser or verifier).
void ExpectRejected(MultiAttrDb& db, const QuerySpec& spec,
                    const core::SpecResponse& honest, bool wire,
                    const std::function<void(core::SpecResponse*)>& forge,
                    int* attempted, int* rejected) {
  core::SpecResponse forged = honest;
  forge(&forged);
  ++*attempted;
  bool refused = !db.VerifySpecFor(spec, forged).ok;
  if (wire) {
    refused = refused &&
              !db.VerifySpecWire(spec, SerializeSpecResponse(forged, WireVersion::kV3))
                   .ok;
  }
  if (refused) ++*rejected;
}

TEST(MultiAttrAggregates, KeptRecordsAreBoundToTheirEntries) {
  MultiAttrDb db(SmallOptions(2));
  std::set<int64_t> deleted;
  Populate(&db, 90, 0xB0B, &deleted);
  QuerySpec spec = QuerySpec::Range(-30, 30, 0);
  spec.aggregate = AggregateKind::kSum;
  const core::SpecResponse honest = db.ExecuteSpec(spec);
  ASSERT_TRUE(db.VerifySpecFor(spec, honest).ok);

  int attempted = 0, rejected = 0;
  const core::QueryResponse& conjunct = honest.conjuncts[0];
  for (size_t t = 0; t < conjunct.trees.size(); ++t) {
    for (size_t i = 0; i < conjunct.trees[t].objects.size(); ++i) {
      // Tampered: one byte of the kept record.
      ExpectRejected(db, spec, honest, true, [&](core::SpecResponse* f) {
        f->conjuncts[0].trees[t].objects[i].value[0] ^= 0x01;
      }, &attempted, &rejected);
      // Withheld: the record dropped while its entry still claims it.
      ExpectRejected(db, spec, honest, false, [&](core::SpecResponse* f) {
        auto& objects = f->conjuncts[0].trees[t].objects;
        objects.erase(objects.begin() + static_cast<long>(i));
      }, &attempted, &rejected);
      // Moved out of range: the record and its entry past the range's end.
      ExpectRejected(db, spec, honest, true, [&](core::SpecResponse* f) {
        core::QueryResponse& c = f->conjuncts[0];
        core::TreeResultSet& tree = c.trees[t];
        size_t result = 0;
        for (ads::VoElement* e : Entries(&tree)) {
          if (!IsResult(e) || result++ != i) continue;
          e->lo = c.ub + 1;
          tree.objects[i].key = c.ub + 1;
        }
      }, &attempted, &rejected);
    }
  }
  EXPECT_GT(attempted, 30);
  EXPECT_EQ(rejected, attempted);

  // A store of long records: restoring any one hashed entry's record (its
  // exact bytes, so the digests still match) breaks the shape rule.
  MultiAttrDb long_db(SmallOptions(2));
  std::set<int64_t> long_deleted;
  Populate(&long_db, 90, 0xB0B, &long_deleted, 30);
  const core::SpecResponse hashed = long_db.ExecuteSpec(spec);
  ASSERT_TRUE(long_db.VerifySpecFor(spec, hashed).ok);
  const int before = attempted;
  const core::QueryResponse& hc = hashed.conjuncts[0];
  for (size_t t = 0; t < hc.trees.size(); ++t) {
    core::TreeResultSet probe = {hc.trees[t].label, {}, hc.trees[t].vo};
    const std::vector<ads::VoElement*> entries = Entries(&probe);
    for (size_t j = 0; j < entries.size(); ++j) {
      if (IsResult(entries[j]) || entries[j]->lo < hc.lb ||
          entries[j]->lo > hc.ub) {
        continue;
      }
      ExpectRejected(long_db, spec, hashed, true, [&](core::SpecResponse* f) {
        core::TreeResultSet& tree = f->conjuncts[0].trees[t];
        std::vector<ads::VoElement*> es = Entries(&tree);
        size_t position = 0;
        for (size_t k = 0; k < j; ++k) position += IsResult(es[k]) ? 1 : 0;
        const int64_t id = es[j]->lo & ((int64_t(1) << 16) - 1);
        ASSERT_TRUE(long_db.FindRecord(id).has_value());
        *es[j] = ads::VoElement::Result(es[j]->lo);
        tree.objects.insert(tree.objects.begin() + static_cast<long>(position),
                            {es[j]->lo, EncodeRecord(*long_db.FindRecord(id))});
      }, &attempted, &rejected);
    }
  }
  EXPECT_GT(attempted - before, 10);
  EXPECT_EQ(rejected, attempted);
}

// ---------------------------------------------------------------------------
// Sharded attribute indexes
// ---------------------------------------------------------------------------

TEST(MultiAttrSharded, ShardedIndexesMatchUnsharded) {
  MultiAttrOptions sharded_opts = SmallOptions(2);
  sharded_opts.shard_bounds = {-20, 0, 20};
  MultiAttrDb sharded(std::move(sharded_opts));
  MultiAttrDb flat(SmallOptions(2));
  EXPECT_EQ(sharded.BackendName(), "multiattr(2)/sharded(4)/GEM2-tree");

  std::set<int64_t> deleted_s, deleted_f;
  std::vector<MultiAttrRecord> records =
      Populate(&sharded, 80, 0xF00D, &deleted_s);
  {
    std::vector<MultiAttrRecord> same = Populate(&flat, 80, 0xF00D, &deleted_f);
    ASSERT_EQ(same, records);
  }
  sharded.CheckConsistency();

  // Every attribute's shard contracts anchor at one shared header.
  auto states = sharded.ReadChainState();
  ASSERT_EQ(states.size(), 2u * 4u);
  for (const auto& s : states) {
    EXPECT_EQ(s.header.Digest(), states[0].header.Digest());
  }

  Rng rng(0xCAFE);
  for (int round = 0; round < 10; ++round) {
    QuerySpec spec;
    spec.op = rng.Chance(0.5) ? BoolOp::kAnd : BoolOp::kOr;
    const int npred = static_cast<int>(rng.Uniform(1, 2));
    for (int p = 0; p < npred; ++p) {
      Key lo = rng.UniformInt(-60, 60);
      Key hi = rng.UniformInt(-60, 60);
      if (hi < lo) std::swap(lo, hi);
      spec.predicates.push_back(
          Predicate{PredicateKind::kRange,
                    static_cast<uint32_t>(rng.Uniform(0, 1)), lo, hi});
    }
    SCOPED_TRACE(core::ToString(spec));
    ExpectSpecEquals(sharded, records, deleted_s, spec);

    VerifiedSpecResult a = sharded.AuthenticatedSpec(spec);
    VerifiedSpecResult b = flat.AuthenticatedSpec(spec);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (size_t i = 0; i < a.objects.size(); ++i) {
      EXPECT_EQ(a.objects[i].key, b.objects[i].key);
      EXPECT_EQ(a.objects[i].value, b.objects[i].value);
    }
  }

  // Aggregates work through sharded indexes too (boundary collection across
  // slices).
  QuerySpec count = QuerySpec::Range(-30, 30, 1);
  count.aggregate = AggregateKind::kCount;
  VerifiedSpecResult vr = sharded.AuthenticatedSpec(count);
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_TRUE(vr.aggregates.has_value());
  uint64_t expected = 0;
  for (const MultiAttrRecord& r : records) {
    if (deleted_s.count(r.id) == 0 && r.attrs[1] >= -30 && r.attrs[1] <= 30) {
      ++expected;
    }
  }
  EXPECT_EQ(vr.aggregates->count, expected);
  // The same against pre-fetched chain state, where each slice collects its
  // own boundary entries before the plan-order merge.
  VerifiedSpecResult against = sharded.VerifySpecAgainst(
      sharded.ReadChainState(), count, sharded.ExecuteSpec(count));
  ASSERT_TRUE(against.ok) << against.error;
  ASSERT_TRUE(against.aggregates.has_value());
  EXPECT_EQ(against.aggregates->count, expected);
}

// ---------------------------------------------------------------------------
// AND from one conjunct
// ---------------------------------------------------------------------------

/// Result payload bytes a conjunct ships, composite slices included.
uint64_t PayloadBytes(const core::QueryResponse& response) {
  uint64_t total = 0;
  for (const core::TreeResultSet& tree : response.trees) {
    for (const Object& obj : tree.objects) total += obj.value.size();
  }
  for (const core::ShardSlice& slice : response.slices) {
    total += PayloadBytes(slice.response);
  }
  return total;
}

/// Runs an AND spec through the in-memory, wire and chain-state paths of
/// `db`, checks each carries one conjunct, and returns the verified objects.
std::vector<Object> VerifiedAnd(core::RangeStore& db, const QuerySpec& spec) {
  const core::SpecResponse response = db.ExecuteSpec(spec);
  EXPECT_EQ(response.conjuncts.size(), 1u);
  EXPECT_LT(response.answering, spec.predicates.size());
  const VerifiedSpecResult direct = db.VerifySpecFor(spec, response);
  const VerifiedSpecResult wire = db.VerifySpecWire(spec, db.SpecWire(spec));
  const VerifiedSpecResult against =
      db.VerifySpecAgainst(db.ReadChainState(), spec, response);
  EXPECT_TRUE(direct.ok) << direct.error;
  EXPECT_TRUE(wire.ok) << wire.error;
  EXPECT_TRUE(against.ok) << against.error;
  EXPECT_EQ(wire.objects, direct.objects);
  EXPECT_EQ(against.objects, direct.objects);
  return direct.objects;
}

QuerySpec KeyAnd(std::vector<std::pair<Key, Key>> ranges) {
  QuerySpec spec;
  for (auto [lb, ub] : ranges) {
    spec.predicates.push_back(Predicate{PredicateKind::kRange, 0, lb, ub});
  }
  return spec;
}

TEST(AndFromOneConjunct, SingleAttributeBackendsFilterOnTheKey) {
  core::DbOptions base;
  base.kind = AdsKind::kGem2;
  base.gem2.m = 2;
  base.gem2.smax = 16;
  core::AuthenticatedDb flat(base);
  shard::ShardedDb sharded({.base = base, .bounds = {50, 100, 150}});
  std::map<Key, std::string> model;
  for (Key k = 0; k < 70; ++k) {
    const Key key = k * 3;
    const std::string value = "v" + std::to_string(k);
    ASSERT_TRUE(flat.Insert({key, value}).ok);
    ASSERT_TRUE(sharded.Insert({key, value}).ok);
    model[key] = value;
  }
  ASSERT_TRUE(flat.Delete(42).ok);
  ASSERT_TRUE(sharded.Delete(42).ok);
  model.erase(42);

  for (const QuerySpec& spec :
       {KeyAnd({{0, 120}, {30, 200}}), KeyAnd({{30, 200}, {0, 120}}),
        KeyAnd({{10, 180}, {40, 160}, {-5, 90}}), KeyAnd({{0, 40}, {41, 90}}),
        KeyAnd({{7, 7}, {0, 300}}), KeyAnd({{-100, 400}, {-100, 400}})}) {
    SCOPED_TRACE(core::ToString(spec));
    std::vector<Object> expected;
    for (const auto& [key, value] : model) {
      if (std::all_of(spec.predicates.begin(), spec.predicates.end(),
                      [key](const Predicate& p) {
                        return key >= p.lb && key <= p.ub;
                      })) {
        expected.push_back({key, value});
      }
    }
    EXPECT_EQ(VerifiedAnd(flat, spec), expected);
    EXPECT_EQ(VerifiedAnd(sharded, spec), expected);
  }
}

TEST(AndFromOneConjunct, ShardedMultiAttrMatchesBruteForce) {
  MultiAttrOptions opts = SmallOptions(3);
  opts.shard_bounds = {-25, 0, 25};
  MultiAttrDb db(std::move(opts));
  std::set<int64_t> deleted;
  std::vector<MultiAttrRecord> records = Populate(&db, 90, 0xA4D, &deleted);

  Rng rng(0x1C0);
  for (int round = 0; round < 16; ++round) {
    QuerySpec spec;
    const int npred = static_cast<int>(rng.Uniform(2, 3));
    for (int p = 0; p < npred; ++p) {
      Key lo = rng.UniformInt(-60, 60);
      Key hi = rng.UniformInt(-60, 60);
      if (hi < lo) std::swap(lo, hi);
      spec.predicates.push_back(
          Predicate{PredicateKind::kRange,
                    static_cast<uint32_t>(rng.Uniform(0, 2)), lo, hi});
    }
    SCOPED_TRACE(core::ToString(spec));
    ExpectSpecEquals(db, records, deleted, spec);
    const std::vector<Object> got = VerifiedAnd(db, spec);
    ASSERT_EQ(got.size(), BruteForce(records, deleted, spec).size());
  }
}

TEST(AndFromOneConjunct, PredicateMissingTheDomainAnswersEmpty) {
  MultiAttrDb db(SmallOptions(2));
  std::set<int64_t> deleted;
  std::vector<MultiAttrRecord> records = Populate(&db, 60, 0xE0, &deleted);

  QuerySpec spec;
  spec.predicates.push_back(Predicate{PredicateKind::kRange, 0, -50, 50});
  spec.predicates.push_back(
      Predicate{PredicateKind::kRange, 1, db.AttrMax() + 1, kKeyMax});
  // The recordless singleton is the smallest conjunct, so it answers.
  const core::SpecResponse response = db.ExecuteSpec(spec);
  ASSERT_EQ(response.conjuncts.size(), 1u);
  EXPECT_EQ(response.answering, 1u);
  EXPECT_EQ(response.conjuncts[0].lb, response.conjuncts[0].ub);
  EXPECT_TRUE(VerifiedAnd(db, spec).empty());
  ExpectSpecEquals(db, records, deleted, spec);
}

TEST(AndFromOneConjunct, ShipsTheSmallestConjunct) {
  MultiAttrOptions opts = SmallOptions(2);
  opts.shard_bounds = {-10, 10};
  MultiAttrDb db(std::move(opts));
  std::set<int64_t> deleted;
  Populate(&db, 80, 0x5A11, &deleted);

  Rng rng(0x51CE);
  std::vector<QuerySpec> specs;
  for (int round = 0; round < 20; ++round) {
    QuerySpec spec;
    const int npred = static_cast<int>(rng.Uniform(2, 4));
    for (int p = 0; p < npred; ++p) {
      Key lo = rng.UniformInt(-60, 60);
      Key hi = rng.UniformInt(-60, 60);
      if (hi < lo) std::swap(lo, hi);
      spec.predicates.push_back(
          Predicate{PredicateKind::kRange,
                    static_cast<uint32_t>(rng.Uniform(0, 1)), lo, hi});
    }
    specs.push_back(spec);
  }
  // Equal predicates tie: the lowest index answers.
  QuerySpec tie;
  tie.predicates.assign(3, Predicate{PredicateKind::kRange, 1, -20, 20});
  specs.push_back(tie);

  int later_answers = 0;
  for (const QuerySpec& spec : specs) {
    SCOPED_TRACE(core::ToString(spec));
    // Each predicate alone is answered by the conjunct the AND would ship
    // for it; the AND ships the one with the fewest VO_sp + payload bytes.
    std::vector<Bytes> images;
    uint32_t smallest = 0;
    uint64_t smallest_bytes = 0;
    for (uint32_t i = 0; i < spec.predicates.size(); ++i) {
      const Predicate& p = spec.predicates[i];
      const core::SpecResponse alone =
          db.ExecuteSpec(QuerySpec::Range(p.lb, p.ub, p.attr));
      const uint64_t bytes =
          core::VoSpBytes(alone.conjuncts[0]) + PayloadBytes(alone.conjuncts[0]);
      if (i == 0 || bytes < smallest_bytes) {
        smallest = i;
        smallest_bytes = bytes;
      }
      images.push_back(
          core::SerializeResponse(alone.conjuncts[0], WireVersion::kV3));
    }
    const core::SpecResponse response = db.ExecuteSpec(spec);
    ASSERT_EQ(response.conjuncts.size(), 1u);
    EXPECT_EQ(response.answering, smallest);
    EXPECT_EQ(core::SerializeResponse(response.conjuncts[0], WireVersion::kV3),
              images[smallest]);
    later_answers += smallest > 0;
  }
  EXPECT_GT(later_answers, 0);  // not always the first predicate
  EXPECT_EQ(db.ExecuteSpec(tie).answering, 0u);
}

TEST(AndFromOneConjunct, WireImageCarriesTheIndexAndFailsClosed) {
  MultiAttrDb db(SmallOptions(2));
  std::set<int64_t> deleted;
  Populate(&db, 40, 0x1D, &deleted);
  QuerySpec spec;
  spec.predicates.push_back(Predicate{PredicateKind::kRange, 0, -40, 40});
  spec.predicates.push_back(Predicate{PredicateKind::kRange, 1, -5, 5});
  const core::SpecResponse response = db.ExecuteSpec(spec);
  const Bytes image = core::SerializeSpecResponse(response, WireVersion::kV3);
  auto parsed = core::ParseSpecResponse(image);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->answering, response.answering);
  EXPECT_EQ(core::SerializeSpecResponse(*parsed, WireVersion::kV3), image);

  // The same answer under an OR spec has no index: one byte string per
  // shape, and neither parses as the other.
  core::SpecResponse as_or = response;
  as_or.spec.op = BoolOp::kOr;
  EXPECT_FALSE(core::ParseSpecResponse(
                   core::SerializeSpecResponse(as_or, WireVersion::kV3))
                   .has_value());
  core::SpecResponse two = response;
  two.conjuncts.push_back(response.conjuncts[0]);
  EXPECT_FALSE(core::ParseSpecResponse(
                   core::SerializeSpecResponse(two, WireVersion::kV3))
                   .has_value());
  core::SpecResponse outside = response;
  outside.answering = 2;
  EXPECT_FALSE(core::ParseSpecResponse(
                   core::SerializeSpecResponse(outside, WireVersion::kV3))
                   .has_value());
  // In memory, the client pins the same shape.
  EXPECT_FALSE(db.VerifySpecFor(spec, outside).ok);
  EXPECT_FALSE(db.VerifySpecFor(spec, two).ok);
}

// ---------------------------------------------------------------------------
// Spec forgery sweep: >= 500 seeded forgeries, 100% rejection
// ---------------------------------------------------------------------------

TEST(MultiAttrForgery, SpecSweepRejectsEverything) {
  testutil::SeedReporter seed(7);
  for (uint64_t round_seed : {seed.seed(), seed.seed() + 1}) {
    MultiAttrDb db(SmallOptions(2));
    std::set<int64_t> deleted;
    std::vector<MultiAttrRecord> records = Populate(&db, 70, 0xDEAD, &deleted);

    fault::SweepOptions opts;
    opts.seed = round_seed;
    opts.families = {fault::Family::kSpec};
    opts.rounds = 500;
    // Cover every composition the operators target: AND/OR pairs over
    // distinct ranges (conjunct swapping), single predicates (echo
    // tampering), and aggregates (boundary tampering).
    {
      QuerySpec both;
      both.predicates.push_back(Predicate{PredicateKind::kRange, 0, -30, 10});
      both.predicates.push_back(Predicate{PredicateKind::kRange, 1, -10, 30});
      opts.specs.push_back(both);
      QuerySpec either = both;
      either.op = BoolOp::kOr;
      opts.specs.push_back(either);
      opts.specs.push_back(QuerySpec::Range(-50, 50, 1));
      QuerySpec count = QuerySpec::Range(-40, 40);
      count.aggregate = AggregateKind::kCount;
      opts.specs.push_back(count);
      QuerySpec sum = QuerySpec::Range(-25, 45, 1);
      sum.aggregate = AggregateKind::kSum;
      opts.specs.push_back(sum);
    }

    const fault::SweepReport report = fault::RunForgerySweep(db, opts);
    EXPECT_EQ(report.attempted, 500);
    EXPECT_TRUE(report.AllRejected()) << report.forgeries.size()
                                      << " forgeries accepted, first: "
                                      << (report.forgeries.empty()
                                              ? ""
                                              : report.forgeries.front());
    EXPECT_EQ(report.rejected_parse + report.rejected_verify, 500);
    // Every operator got rounds in.
    EXPECT_EQ(report.attempts_by_op.size(),
              fault::Operators(fault::Family::kSpec).size());

    // Determinism: the same (db state, options) reproduce the same report.
    EXPECT_EQ(fault::RunForgerySweep(db, opts), report);
  }
}

}  // namespace
}  // namespace gem2::multiattr
