// ADS common-layer tests: canonical static trees, VO structure and its wire
// round-trip, and the single-tree verifier's soundness and completeness
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "ads/static_tree.h"
#include "ads/verify.h"
#include "ads/vo.h"
#include "core/wire_v3.h"
#include "crypto/digest.h"

namespace gem2::ads {
namespace {

EntryList MakeEntries(size_t n, Key stride = 10, Key base = 0) {
  EntryList entries;
  for (size_t i = 0; i < n; ++i) {
    Key k = base + static_cast<Key>(i) * stride;
    entries.push_back({k, crypto::ValueHash("value-" + std::to_string(k))});
  }
  return entries;
}

std::vector<Object> ObjectsFor(const EntryList& result) {
  std::vector<Object> objects;
  for (const Entry& e : result) {
    objects.push_back({e.key, "value-" + std::to_string(e.key)});
  }
  return objects;
}

// --- Charge-only canonical root ------------------------------------------------

/// Records every charge, in order, as (category, gas).
class ChargeRecorder : public gas::MeterObserver {
 public:
  void OnCharge(const gas::Meter&, gas::GasCategory category,
                gas::Gas delta) override {
    charges.emplace_back(category, delta);
  }
  std::vector<std::pair<gas::GasCategory, gas::Gas>> charges;
};

TEST(ChargeCanonicalRootDigest, IssuesTheMeteredComputationsChargeSequence) {
  for (int fanout : {2, 3, 4, 5, 8, 16}) {
    for (size_t n = 1; n <= 300; ++n) {
      const EntryList entries = MakeEntries(n);
      gas::Meter hashed(gas::kEthereumSchedule, 1ull << 60);
      ChargeRecorder hashed_charges;
      hashed.set_observer(&hashed_charges);
      CanonicalRootDigest(entries, fanout, &hashed);

      gas::Meter charged(gas::kEthereumSchedule, 1ull << 60);
      ChargeRecorder charged_charges;
      charged.set_observer(&charged_charges);
      ChargeCanonicalRootDigest(n, fanout, charged);

      ASSERT_EQ(charged_charges.charges, hashed_charges.charges)
          << "fanout=" << fanout << " n=" << n;
      ASSERT_EQ(charged.op_counts(), hashed.op_counts());
    }
  }
}

TEST(ChargeCanonicalRootDigest, EmptyRunChargesNothing) {
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  ChargeCanonicalRootDigest(0, 4, meter);
  EXPECT_EQ(meter.used(), 0u);
  EXPECT_THROW(ChargeCanonicalRootDigest(5, 1, meter), std::invalid_argument);
}

// --- StaticTree ---------------------------------------------------------------

TEST(StaticTree, EmptyTree) {
  StaticTree tree({}, 4);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root_digest(), crypto::EmptyTreeDigest());
  EntryList result;
  TreeVo vo = tree.RangeQuery(0, 100, &result);
  EXPECT_TRUE(vo.empty_tree);
  EXPECT_TRUE(result.empty());
}

TEST(StaticTree, RejectsBadInput) {
  EXPECT_THROW(StaticTree(MakeEntries(4), 1), std::invalid_argument);
  EntryList unsorted = {{5, {}}, {3, {}}};
  EXPECT_THROW(StaticTree(unsorted, 4), std::invalid_argument);
  EntryList dup = {{5, {}}, {5, {}}};
  EXPECT_THROW(StaticTree(dup, 4), std::invalid_argument);
}

TEST(StaticTree, BoundariesAndSize) {
  StaticTree tree(MakeEntries(10, 7, 3), 4);
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.lo(), 3);
  EXPECT_EQ(tree.hi(), 3 + 9 * 7);
}

class StaticTreeParam
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(StaticTreeParam, CanonicalDigestMatchesMaterializedTree) {
  auto [n, fanout] = GetParam();
  EntryList entries = MakeEntries(n);
  StaticTree tree(entries, fanout);
  // The suppressed on-the-fly computation must agree bit-for-bit.
  EXPECT_EQ(CanonicalRootDigest(entries, fanout), tree.root_digest());
  // ... and with a meter attached (same digest, gas charged).
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  EXPECT_EQ(CanonicalRootDigest(entries, fanout, &meter), tree.root_digest());
  if (n > 0) {
    EXPECT_GT(meter.used(), 0u);
  }
}

TEST_P(StaticTreeParam, QueriesVerifyAgainstRoot) {
  auto [n, fanout] = GetParam();
  if (n == 0) GTEST_SKIP();
  EntryList entries = MakeEntries(n);
  StaticTree tree(entries, fanout);
  const Key max_key = entries.back().key;
  const std::pair<Key, Key> ranges[] = {
      {0, max_key}, {-5, -1}, {max_key + 1, max_key + 100},
      {max_key / 3, 2 * max_key / 3}, {15, 15}, {0, 0}};
  for (auto [lb, ub] : ranges) {
    EntryList result;
    TreeVo vo = tree.RangeQuery(lb, ub, &result);
    EntryList expect;
    for (const Entry& e : entries) {
      if (e.key >= lb && e.key <= ub) expect.push_back(e);
    }
    EXPECT_EQ(result, expect);
    auto outcome = VerifyTreeVo(lb, ub, vo, tree.root_digest(), ObjectsFor(result));
    EXPECT_TRUE(outcome.ok) << outcome.error << " n=" << n << " f=" << fanout
                            << " [" << lb << "," << ub << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFanouts, StaticTreeParam,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 16, 17, 64, 100, 333),
                       ::testing::Values(2, 3, 4, 8)));

TEST(StaticTree, DigestDependsOnEveryEntry) {
  EntryList entries = MakeEntries(20);
  Hash base = CanonicalRootDigest(entries, 4);
  for (size_t i = 0; i < entries.size(); ++i) {
    EntryList copy = entries;
    copy[i].value_hash = crypto::ValueHash("tampered");
    EXPECT_NE(CanonicalRootDigest(copy, 4), base) << i;
  }
}

TEST(StaticTree, MeteredHashChargesMatchComputation) {
  // Entry digests: 40 bytes each; per node: content (32*children) + wrap (48).
  EntryList entries = MakeEntries(16);
  gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
  CanonicalRootDigest(entries, 4, &meter);
  // 16 entries -> 4 leaves -> 1 root: 16 entry hashes + 5 content + 5 wrap.
  EXPECT_EQ(meter.op_counts().hash_calls, 16u + 5u + 5u);
}

// --- LeafDigestCache -----------------------------------------------------------

TEST(LeafDigestCache, BatchMatchesEntryDigestsAndMemoizes) {
  LeafDigestCache cache;
  EntryList entries = MakeEntries(2000);
  std::vector<Hash> out(entries.size());
  cache.GetBatch(entries, out.data());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(out[i], crypto::EntryDigest(entries[i].key, entries[i].value_hash));
  }
  EXPECT_EQ(cache.misses(), entries.size());
  EXPECT_EQ(cache.size(), entries.size());

  // A changed value hash is a miss that replaces the memo.
  entries[7].value_hash = crypto::ValueHash("changed");
  cache.GetBatch(entries, out.data());
  EXPECT_EQ(out[7], crypto::EntryDigest(entries[7].key, entries[7].value_hash));
  EXPECT_EQ(cache.misses(), entries.size() + 1);
  EXPECT_EQ(cache.hits(), entries.size() - 1);
}

TEST(LeafDigestCache, AllHitBatchLeavesCapacityUnchanged) {
  // 600 keys fit the initial table below its 3/4 load bound, but 600 already
  // present plus 600 "additional" would not: a batch that only hits must not
  // count its cached keys against the load and double the table.
  LeafDigestCache cache;
  const EntryList entries = MakeEntries(600);
  std::vector<Hash> out(entries.size());
  cache.GetBatch(entries, out.data());
  const size_t capacity = cache.capacity();
  ASSERT_LT(entries.size() * 4, capacity * 3);      // fits without growing
  ASSERT_GE(2 * entries.size() * 4, capacity * 3);  // counted twice, would not

  cache.GetBatch(entries, out.data());
  EXPECT_EQ(cache.capacity(), capacity);
  EXPECT_EQ(cache.hits(), entries.size());
  EXPECT_EQ(cache.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(out[i], crypto::EntryDigest(entries[i].key, entries[i].value_hash));
  }
}

/// The first `count` keys from `from` upward whose home slot in a fresh
/// cache is `home`.
std::vector<Key> KeysWithHome(size_t home, size_t count, Key from = 1) {
  const size_t capacity = LeafDigestCache().capacity();
  std::vector<Key> keys;
  for (Key k = from; keys.size() < count; ++k) {
    if (LeafDigestCache::HomeSlot(k, capacity) == home) keys.push_back(k);
  }
  return keys;
}

TEST(LeafDigestCache, EraseKeepsEveryProbeRunIntact) {
  // Two colliding runs: one homed mid-table, one homed on the last slot, so
  // its members wrap past the table end into slot 0 onward. Keys homed on
  // slot 0 are interleaved with the wrapped run and must stay reachable when
  // entries ahead of them shift back; a key homed right after the mid run
  // sits in its home slot and must not shift before it.
  const size_t capacity = LeafDigestCache().capacity();
  std::vector<Key> mid = KeysWithHome(capacity / 2, 6);
  std::vector<Key> beside = KeysWithHome(capacity / 2 + mid.size(), 1);
  std::vector<Key> wrap = KeysWithHome(capacity - 1, 6);
  std::vector<Key> at_zero = KeysWithHome(0, 2);
  EntryList all;
  auto add = [&](const std::vector<Key>& keys) {
    for (Key k : keys) all.push_back({k, crypto::ValueHash("v" + std::to_string(k))});
  };
  add(mid);
  add(beside);
  add(wrap);
  add(at_zero);  // probes start at slot 0, behind the wrapped run
  LeafDigestCache cache;
  std::vector<Hash> out(all.size());
  cache.GetBatch(all, out.data());
  ASSERT_EQ(cache.size(), all.size());
  ASSERT_EQ(cache.capacity(), capacity);

  // Head, middle and tail of both runs, plus one of the slot-0 keys.
  const std::vector<Key> erased_keys = {mid[0],  mid[3],  mid[5],   wrap[0],
                                        wrap[2], wrap[5], at_zero[0]};
  EntryList erased;
  EntryList kept;
  for (const Entry& e : all) {
    const bool gone =
        std::find(erased_keys.begin(), erased_keys.end(), e.key) != erased_keys.end();
    (gone ? erased : kept).push_back(e);
  }
  cache.Erase(erased);
  EXPECT_EQ(cache.size(), kept.size());

  // Erasing absent keys (already erased, never inserted) changes nothing.
  EntryList absent = erased;
  absent.push_back({KeysWithHome(capacity / 2, 1, mid.back() + 1)[0], Hash{}});
  cache.Erase(absent);
  EXPECT_EQ(cache.size(), kept.size());
  EXPECT_EQ(cache.capacity(), capacity);

  // Every remaining key still hits, with its digest...
  const uint64_t misses = cache.misses();
  std::vector<Hash> kept_out(kept.size());
  cache.GetBatch(kept, kept_out.data());
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.hits(), kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept_out[i], crypto::EntryDigest(kept[i].key, kept[i].value_hash));
  }
  // ...and every erased key misses.
  std::vector<Hash> erased_out(erased.size());
  cache.GetBatch(erased, erased_out.data());
  EXPECT_EQ(cache.misses(), misses + erased.size());
  EXPECT_EQ(cache.hits(), kept.size());
  EXPECT_EQ(cache.size(), all.size());
}

// --- VO serialization ----------------------------------------------------------

// VOs travel inside wire v3 images (core/wire_v3.h): these tests wrap one in
// a single-tree response over [lb, ub], the smallest image around a VO, with
// the records its result entries carry.
Bytes VoImage(const TreeVo& vo, Key lb, Key ub,
              const std::vector<Object>& objects) {
  core::QueryResponse response;
  response.lb = lb;
  response.ub = ub;
  response.trees.push_back({"t", objects, vo});
  return core::wirev3::Serialize(response);
}

std::optional<TreeVo> ParseVoImage(const Bytes& image) {
  auto response = core::wirev3::Parse(image);
  if (!response.has_value() || response->trees.size() != 1) return std::nullopt;
  return std::move(response->trees[0].vo);
}

TEST(Vo, SerializationRoundTrips) {
  StaticTree tree(MakeEntries(100), 4);
  EntryList result;
  TreeVo vo = tree.RangeQuery(100, 500, &result);

  const std::vector<Object> objects = ObjectsFor(result);
  Bytes wire = VoImage(vo, 100, 500, objects);
  // Delta keys, varint counts, no per-result hash and each key once: the
  // image, records included, undercuts the fixed-width accounting of the VO
  // alone.
  EXPECT_LT(wire.size(), VoSizeBytes(vo));
  auto parsed = ParseVoImage(wire);
  ASSERT_TRUE(parsed.has_value());
  // Round-tripped VO verifies identically.
  auto outcome = VerifyTreeVo(100, 500, *parsed, tree.root_digest(), objects);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(VoImage(*parsed, 100, 500, objects), wire);
}

TEST(Vo, EmptyVoRoundTrips) {
  TreeVo vo;
  vo.empty_tree = true;
  Bytes wire = VoImage(vo, 0, 0, {});
  EXPECT_EQ(wire.back(), 0);  // the VO is one tag byte
  auto parsed = ParseVoImage(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty_tree);
}

TEST(Vo, ParserRejectsMalformedInput) {
  // A single-tree image over [0, 0] whose VO bytes follow the prefix.
  auto image = [](std::initializer_list<uint8_t> vo) {
    Bytes b = {3, 0, 0, 0, 0, 1, 1, 't', 0};
    for (uint8_t byte : vo) b.push_back(byte);
    return b;
  };
  EXPECT_TRUE(ParseVoImage(image({0})).has_value());          // empty tree
  EXPECT_FALSE(ParseVoImage(image({})).has_value());          // missing VO
  EXPECT_FALSE(ParseVoImage(image({9})).has_value());         // unknown header
  EXPECT_FALSE(ParseVoImage(image({1})).has_value());         // missing root
  EXPECT_FALSE(ParseVoImage(image({1, 4})).has_value());      // node, no child
  EXPECT_FALSE(ParseVoImage(image({1, 2})).has_value());      // truncated key
  EXPECT_FALSE(ParseVoImage(image({1, 2, 0})).has_value());   // truncated hash
  EXPECT_FALSE(ParseVoImage(image({1, 0, 0})).has_value());   // unknown child tag
  EXPECT_FALSE(ParseVoImage(image({1, 9, 0})).has_value());   // arity > bytes
  EXPECT_FALSE(ParseVoImage(image({1, 1, 0, 0})).has_value());  // unlisted record
  EXPECT_FALSE(ParseVoImage(image({0, 0})).has_value());      // trailing bytes

  // Valid VO with trailing garbage must be rejected.
  StaticTree tree(MakeEntries(10), 4);
  EntryList result;
  const TreeVo vo = tree.RangeQuery(0, 50, &result);
  Bytes wire = VoImage(vo, 0, 50, ObjectsFor(result));
  ASSERT_TRUE(ParseVoImage(wire).has_value());
  wire.push_back(0);
  EXPECT_FALSE(ParseVoImage(wire).has_value());
}

TEST(Vo, CopyIsIndependent) {
  StaticTree tree(MakeEntries(50), 4);
  EntryList result;
  TreeVo vo = tree.RangeQuery(100, 300, &result);
  const std::vector<Object> objects = ObjectsFor(result);
  const Bytes image = VoImage(vo, 100, 300, objects);
  TreeVo copy = vo;
  EXPECT_EQ(copy, vo);
  EXPECT_EQ(VoImage(copy, 100, 300, objects), image);
  // Mutating the copy leaves the original intact.
  ASSERT_EQ(copy.elements[0].kind, VoElement::Kind::kNode);
  copy.elements.resize(1);
  EXPECT_NE(copy, vo);
  EXPECT_EQ(VoImage(vo, 100, 300, objects), image);
}

TEST(Vo, SizeAccountingExact) {
  // Single-leaf tree over {0, 10, 20, 30}; wire sizes are fully predictable:
  // header 1; node tag+count 3; result entry 9; boundary entry 41; pruned 49.
  StaticTree tree(MakeEntries(4), 4);
  EntryList result;
  TreeVo all_results = tree.RangeQuery(0, 30, &result);
  EXPECT_EQ(VoSizeBytes(all_results), 1u + 3u + 4u * 9u);

  EntryList mixed_result;
  TreeVo mixed = tree.RangeQuery(10, 20, &mixed_result);
  EXPECT_EQ(VoSizeBytes(mixed), 1u + 3u + 2u * 9u + 2u * 41u);

  EntryList no_result;
  TreeVo disjoint = tree.RangeQuery(100, 200, &no_result);
  EXPECT_EQ(VoSizeBytes(disjoint), 1u + 49u);
}

// --- Verifier adversarial cases ------------------------------------------------

/// One past the last element of the subtree that starts at elements[i].
size_t SubtreeEnd(const std::vector<VoElement>& elements, size_t i) {
  for (size_t owed = 1; owed > 0; ++i) {
    owed += elements[i].kind == VoElement::Kind::kNode ? elements[i].children : 0;
    --owed;
  }
  return i;
}

class VerifierAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = MakeEntries(64);
    tree_ = std::make_unique<StaticTree>(entries_, 4);
    vo_ = tree_->RangeQuery(kLb, kUb, &result_);
    objects_ = ObjectsFor(result_);
    ASSERT_TRUE(VerifyTreeVo(kLb, kUb, vo_, tree_->root_digest(), objects_).ok);
  }

  static constexpr Key kLb = 200;
  static constexpr Key kUb = 400;
  EntryList entries_;
  std::unique_ptr<StaticTree> tree_;
  TreeVo vo_;
  EntryList result_;
  std::vector<Object> objects_;
};

TEST_F(VerifierAttackTest, RejectsWrongRoot) {
  Hash wrong = crypto::ValueHash("wrong");
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, vo_, wrong, objects_).ok);
}

TEST_F(VerifierAttackTest, RejectsEmptyClaimForNonEmptyTree) {
  TreeVo empty;
  empty.empty_tree = true;
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, empty, tree_->root_digest(), {}).ok);
}

TEST_F(VerifierAttackTest, RejectsSwappedChildren) {
  TreeVo bad = vo_;
  ASSERT_EQ(bad.elements[0].kind, VoElement::Kind::kNode);
  ASSERT_GE(bad.elements[0].children, 2u);
  // The root's first two children are the subtrees [1, mid) and [mid, end).
  const size_t mid = SubtreeEnd(bad.elements, 1);
  const size_t end = SubtreeEnd(bad.elements, mid);
  std::rotate(bad.elements.begin() + 1, bad.elements.begin() + static_cast<long>(mid),
              bad.elements.begin() + static_cast<long>(end));
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), objects_).ok);
}

TEST_F(VerifierAttackTest, RejectsPrunedSubtreeOverlappingRange) {
  // Replace the expanded root with a pruned claim covering the whole tree —
  // even with the correct content hash, pruning an overlapping range must be
  // rejected (it would hide results).
  TreeVo bad = vo_;
  // Obtain the root's true (lo, hi, content hash) via a disjoint query, where
  // the SP legitimately prunes the whole tree.
  EntryList unused;
  TreeVo pruned_vo = tree_->RangeQuery(100'000, 200'000, &unused);
  ASSERT_EQ(pruned_vo.elements.size(), 1u);
  ASSERT_EQ(pruned_vo.elements[0].kind, VoElement::Kind::kPruned);
  bad.elements = pruned_vo.elements;
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), {}).ok);
}

TEST_F(VerifierAttackTest, RejectsBoundaryEntryMarkedAsResult) {
  // Flip a boundary entry into a "result" without shipping the object.
  TreeVo bad = vo_;
  bool flipped = false;
  for (VoElement& e : bad.elements) {
    if (e.kind == VoElement::Kind::kBoundary && !flipped) {
      e = VoElement::Result(e.lo);
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), objects_).ok);
}

TEST_F(VerifierAttackTest, RejectsResultEntryDemotedToBoundary) {
  // Hide a result by re-marking its VO entry as a boundary with the correct
  // hash — completeness check must catch the in-range non-result entry.
  TreeVo bad = vo_;
  bool flipped = false;
  for (VoElement& e : bad.elements) {
    if (e.kind == VoElement::Kind::kResult && !flipped) {
      e = VoElement::Boundary(e.lo, crypto::ValueHash("value-" + std::to_string(e.lo)));
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  std::vector<Object> fewer = objects_;
  fewer.erase(fewer.begin());
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), fewer).ok);
}

TEST_F(VerifierAttackTest, RejectsForgedPrunedBoundaries) {
  // Shift a pruned subtree's claimed range away from the query: the digest
  // reconstruction must fail because boundaries are bound into the digest.
  TreeVo bad = vo_;
  bool forged = false;
  for (VoElement& e : bad.elements) {
    if (e.kind == VoElement::Kind::kPruned && !forged) {
      e.lo += 1;
      forged = true;
    }
  }
  ASSERT_TRUE(forged);
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), objects_).ok);
}

TEST_F(VerifierAttackTest, RejectsDuplicateResultKeys) {
  std::vector<Object> dup = objects_;
  dup.push_back(dup[0]);
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, vo_, tree_->root_digest(), dup).ok);
}

TEST_F(VerifierAttackTest, RejectsExtraUnprovenObjects) {
  std::vector<Object> extra = objects_;
  extra.push_back({kUb + 5, "unproven"});
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, vo_, tree_->root_digest(), extra).ok);
}

TEST_F(VerifierAttackTest, ResultSetMustFollowVoOrder) {
  // The i-th result entry proves result[i], so a reordered result set fails
  // with its own message, and extra or missing objects fail where the walk
  // finds them.
  ASSERT_GE(objects_.size(), 3u);
  std::vector<Object> reordered = objects_;
  std::swap(reordered[0], reordered[1]);
  std::vector<Object> early = objects_;
  early.insert(early.begin(), {kLb - 5, "unproven"});
  std::vector<Object> gap = objects_;
  gap.erase(gap.begin() + 1);
  const std::pair<const std::vector<Object>*, const char*> cases[] = {
      {&reordered, "result set out of VO order"},
      {&early, "result set contains objects not proven by the VO"},
      {&gap, "VO marks a result entry missing from the result set"}};
  for (const auto& [objects, error] : cases) {
    const VerifyOutcome outcome =
        VerifyTreeVo(kLb, kUb, vo_, tree_->root_digest(), *objects);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, error);
  }
}

TEST_F(VerifierAttackTest, RejectsInvalidQueryRange) {
  EXPECT_FALSE(VerifyTreeVo(10, 5, vo_, tree_->root_digest(), objects_).ok);
}

TEST_F(VerifierAttackTest, RejectsBareEntryRoot) {
  TreeVo bad;
  bad.elements = {VoElement::Boundary(kLb, crypto::ValueHash("x"))};
  EXPECT_FALSE(VerifyTreeVo(kLb, kUb, bad, tree_->root_digest(), {}).ok);
}

TEST_F(VerifierAttackTest, RejectsElementsThatDoNotFormOneTree) {
  // Only a forged struct has them (the wire parser reads whole trees).
  TreeVo truncated = vo_;
  truncated.elements.pop_back();
  VerifyOutcome outcome =
      VerifyTreeVo(kLb, kUb, truncated, tree_->root_digest(), objects_);
  EXPECT_EQ(outcome.error, "VO ends inside an expanded node");
  TreeVo trailing = vo_;
  trailing.elements.push_back(trailing.elements.back());
  outcome = VerifyTreeVo(kLb, kUb, trailing, tree_->root_digest(), objects_);
  EXPECT_EQ(outcome.error, "VO elements after the root's subtree");
  TreeVo childless = vo_;
  childless.elements = {VoElement::Node(0)};
  outcome = VerifyTreeVo(kLb, kUb, childless, tree_->root_digest(), {});
  EXPECT_EQ(outcome.error, "expanded node with no children");
}

TEST(Verifier, AcceptsEmptyTreeWithEmptyDigest) {
  TreeVo vo;
  vo.empty_tree = true;
  EXPECT_TRUE(VerifyTreeVo(0, 10, vo, crypto::EmptyTreeDigest(), {}).ok);
  EXPECT_FALSE(VerifyTreeVo(0, 10, vo, crypto::ValueHash("x"), {}).ok);
}

}  // namespace
}  // namespace gem2::ads
