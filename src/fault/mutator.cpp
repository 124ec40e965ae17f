#include "fault/mutator.h"

#include <algorithm>
#include <vector>

#include "ads/vo.h"
#include "core/wire_v3.h"
#include "crypto/digest.h"
#include "multiattr/multiattr_db.h"

namespace gem2::fault {
namespace {

/// Mutable hash sites inside a VO: boundary-entry value hashes and
/// pruned-subtree content hashes. Result entries carry no hash (the client
/// recomputes those from the returned objects), so altering a result means
/// altering the object itself — a different operator.
void CollectHashSites(ads::VoChild& child, std::vector<Hash*>* sites) {
  if (auto* entry = std::get_if<ads::VoEntry>(&child)) {
    if (!entry->is_result) sites->push_back(&entry->value_hash);
    return;
  }
  if (auto* pruned = std::get_if<ads::VoPruned>(&child)) {
    sites->push_back(&pruned->content_hash);
    return;
  }
  for (ads::VoChild& c : std::get<ads::VoNodePtr>(child)->children) {
    CollectHashSites(c, sites);
  }
}

std::vector<Hash*> HashSites(core::QueryResponse* response) {
  std::vector<Hash*> sites;
  for (core::TreeResultSet& tree : response->trees) {
    if (tree.vo.root.has_value()) CollectHashSites(*tree.vo.root, &sites);
  }
  return sites;
}

/// Where one result entry sits in a tree's VO: its node and index there.
struct ResultSite {
  ads::VoNode* node;
  size_t index;

  ads::VoEntry& entry() const {
    return std::get<ads::VoEntry>(node->children[index]);
  }
};

void CollectResultSites(ads::VoNode* node, std::vector<ResultSite>* sites) {
  for (size_t i = 0; i < node->children.size(); ++i) {
    ads::VoChild& c = node->children[i];
    if (const auto* entry = std::get_if<ads::VoEntry>(&c)) {
      if (entry->is_result) sites->push_back({node, i});
    } else if (auto* child = std::get_if<ads::VoNodePtr>(&c)) {
      CollectResultSites(child->get(), sites);
    }
  }
}

/// A tree's result entries in VO order: the i-th proves objects[i].
std::vector<ResultSite> ResultSites(core::TreeResultSet* tree) {
  std::vector<ResultSite> sites;
  if (tree->vo.root.has_value()) {
    if (auto* root = std::get_if<ads::VoNodePtr>(&*tree->vo.root)) {
      CollectResultSites(root->get(), &sites);
    }
  }
  return sites;
}

/// Withholds the tree's i-th result: its entry becomes a boundary entry
/// carrying the record's value hash, the only way the image can leave an
/// in-range key unanswered.
void Withhold(core::TreeResultSet* tree, size_t i,
              const std::vector<ResultSite>& sites) {
  ads::VoEntry& entry = sites[i].entry();
  entry.is_result = false;
  entry.value_hash = crypto::ValueHash(tree->objects[i].value);
  tree->objects.erase(tree->objects.begin() + static_cast<long>(i));
}

/// Indices of trees that contribute at least one result object.
std::vector<size_t> TreesWithObjects(const core::QueryResponse& response) {
  std::vector<size_t> trees;
  for (size_t i = 0; i < response.trees.size(); ++i) {
    if (!response.trees[i].objects.empty()) trees.push_back(i);
  }
  return trees;
}

/// Wrap-around key shift (two's complement): keeps the forgery well-defined
/// even at the extremes of the key domain (signed overflow is UB).
Key ShiftKey(Key k, uint64_t delta, bool up) {
  const uint64_t u = static_cast<uint64_t>(k);
  return static_cast<Key>(up ? u + delta : u - delta);
}

/// Every tree of a response, composite slices included.
void CollectTrees(core::QueryResponse* response,
                  std::vector<core::TreeResultSet*>* trees) {
  for (core::TreeResultSet& tree : response->trees) trees->push_back(&tree);
  for (core::ShardSlice& slice : response->slices) {
    CollectTrees(&slice.response, trees);
  }
}

/// True when the shipped object satisfies every predicate of `spec`. Its
/// attribute values are its record's own in a kRecord store (a value that is
/// no record, a tombstone, satisfies nothing), or else the key (the only
/// attribute of a single-attribute store).
bool SatisfiesSpec(const Object& obj, const core::QuerySpec& spec,
                   ValueShape shape) {
  std::vector<Key> attrs{obj.key};
  if (shape == ValueShape::kRecord) {
    std::optional<multiattr::MultiAttrRecord> record =
        multiattr::DecodeRecord(obj.value);
    if (!record.has_value()) return false;
    attrs = std::move(record->attrs);
  }
  for (const core::Predicate& p : spec.predicates) {
    if (p.attr >= attrs.size() || attrs[p.attr] < p.lb || attrs[p.attr] > p.ub) {
      return false;
    }
  }
  return true;
}

Mutation Pack(MutationOp op, const core::QueryResponse& forged) {
  Mutation m;
  m.op = op;
  m.wire = core::wirev3::Serialize(forged);
  return m;
}

}  // namespace

std::string MutationOpName(MutationOp op) {
  switch (op) {
    case MutationOp::kDropObject:
      return "drop_object";
    case MutationOp::kAlterObjectValue:
      return "alter_object_value";
    case MutationOp::kAlterObjectKey:
      return "alter_object_key";
    case MutationOp::kDuplicateObject:
      return "duplicate_object";
    case MutationOp::kSwapVoHashes:
      return "swap_vo_hashes";
    case MutationOp::kFlipVoHashBit:
      return "flip_vo_hash_bit";
    case MutationOp::kShiftRangeBounds:
      return "shift_range_bounds";
    case MutationOp::kDropTree:
      return "drop_tree";
    case MutationOp::kDuplicateTree:
      return "duplicate_tree";
    case MutationOp::kForgeUpperSplits:
      return "forge_upper_splits";
    case MutationOp::kCorruptWireBytes:
      return "corrupt_wire_bytes";
  }
  return "unknown";
}

std::optional<Mutation> ResponseMutator::Apply(MutationOp op,
                                               const core::QueryResponse& response) {
  switch (op) {
    case MutationOp::kDropObject: {
      std::vector<size_t> trees = TreesWithObjects(response);
      if (trees.empty()) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      core::TreeResultSet& tree =
          forged.trees[trees[rng_.Uniform(0, trees.size() - 1)]];
      Withhold(&tree, rng_.Uniform(0, tree.objects.size() - 1),
               ResultSites(&tree));
      return Pack(op, forged);
    }

    case MutationOp::kAlterObjectValue: {
      std::vector<size_t> trees = TreesWithObjects(response);
      if (trees.empty()) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      auto& objects = forged.trees[trees[rng_.Uniform(0, trees.size() - 1)]].objects;
      std::string& value = objects[rng_.Uniform(0, objects.size() - 1)].value;
      if (value.empty()) {
        value = "x";
      } else {
        value[rng_.Uniform(0, value.size() - 1)] ^=
            static_cast<char>(rng_.Uniform(1, 255));
      }
      return Pack(op, forged);
    }

    case MutationOp::kAlterObjectKey: {
      std::vector<size_t> trees = TreesWithObjects(response);
      if (trees.empty()) return std::nullopt;
      // The record and its result entry move together.
      core::QueryResponse forged = core::CloneResponse(response);
      core::TreeResultSet& tree =
          forged.trees[trees[rng_.Uniform(0, trees.size() - 1)]];
      const size_t i = rng_.Uniform(0, tree.objects.size() - 1);
      Object& obj = tree.objects[i];
      obj.key = ShiftKey(obj.key, rng_.Uniform(1, 1000), rng_.Chance(0.5));
      ResultSites(&tree)[i].entry().key = obj.key;
      return Pack(op, forged);
    }

    case MutationOp::kDuplicateObject: {
      std::vector<size_t> trees = TreesWithObjects(response);
      if (trees.empty()) return std::nullopt;
      // The result entry repeats right after itself, with its record.
      core::QueryResponse forged = core::CloneResponse(response);
      core::TreeResultSet& tree =
          forged.trees[trees[rng_.Uniform(0, trees.size() - 1)]];
      const size_t i = rng_.Uniform(0, tree.objects.size() - 1);
      const ResultSite site = ResultSites(&tree)[i];
      site.node->children.insert(
          site.node->children.begin() + static_cast<long>(site.index + 1),
          ads::VoChild(site.entry()));
      tree.objects.insert(tree.objects.begin() + static_cast<long>(i + 1),
                          tree.objects[i]);
      return Pack(op, forged);
    }

    case MutationOp::kSwapVoHashes: {
      core::QueryResponse forged = core::CloneResponse(response);
      std::vector<Hash*> sites = HashSites(&forged);
      if (sites.size() < 2) return std::nullopt;
      // Pick a random site, then a second one holding a *different* hash
      // (swapping equal hashes would be a no-op forgery).
      const size_t first = rng_.Uniform(0, sites.size() - 1);
      std::vector<size_t> partners;
      for (size_t i = 0; i < sites.size(); ++i) {
        if (*sites[i] != *sites[first]) partners.push_back(i);
      }
      if (partners.empty()) return std::nullopt;
      const size_t second = partners[rng_.Uniform(0, partners.size() - 1)];
      std::swap(*sites[first], *sites[second]);
      return Pack(op, forged);
    }

    case MutationOp::kFlipVoHashBit: {
      core::QueryResponse forged = core::CloneResponse(response);
      std::vector<Hash*> sites = HashSites(&forged);
      if (sites.empty()) return std::nullopt;
      Hash* site = sites[rng_.Uniform(0, sites.size() - 1)];
      (*site)[rng_.Uniform(0, 31)] ^= static_cast<uint8_t>(1u << rng_.Uniform(0, 7));
      return Pack(op, forged);
    }

    case MutationOp::kShiftRangeBounds: {
      core::QueryResponse forged = core::CloneResponse(response);
      const uint64_t delta = rng_.Uniform(1, 1'000'000);
      switch (rng_.Uniform(0, 2)) {
        case 0:
          forged.lb = ShiftKey(forged.lb, delta, false);
          break;
        case 1:
          forged.ub = ShiftKey(forged.ub, delta, true);
          break;
        default:
          forged.lb = ShiftKey(forged.lb, delta, false);
          forged.ub = ShiftKey(forged.ub, delta, true);
          break;
      }
      return Pack(op, forged);
    }

    case MutationOp::kDropTree: {
      if (response.trees.empty()) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      forged.trees.erase(forged.trees.begin() +
                         static_cast<long>(rng_.Uniform(0, forged.trees.size() - 1)));
      return Pack(op, forged);
    }

    case MutationOp::kDuplicateTree: {
      if (response.trees.empty()) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      const core::TreeResultSet& source =
          forged.trees[rng_.Uniform(0, forged.trees.size() - 1)];
      core::TreeResultSet copy;
      copy.label = source.label;
      copy.objects = source.objects;
      copy.vo = ads::CloneVo(source.vo);
      forged.trees.push_back(std::move(copy));
      return Pack(op, forged);
    }

    case MutationOp::kForgeUpperSplits: {
      if (response.upper_splits.empty()) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      auto& splits = forged.upper_splits;
      switch (rng_.Uniform(0, 2)) {
        case 0: {  // shift one split point
          Key& split = splits[rng_.Uniform(0, splits.size() - 1)];
          split = ShiftKey(split, rng_.Uniform(1, 1000), true);
          break;
        }
        case 1:  // withhold one split point
          splits.erase(splits.begin() +
                       static_cast<long>(rng_.Uniform(0, splits.size() - 1)));
          break;
        default:  // invent an extra region
          splits.push_back(ShiftKey(splits.back(), rng_.Uniform(1, 1000), true));
          break;
      }
      return Pack(op, forged);
    }

    case MutationOp::kCorruptWireBytes: {
      Mutation m;
      m.op = op;
      m.byte_level = true;
      m.wire = core::wirev3::Serialize(response);
      const int flips = static_cast<int>(rng_.Uniform(1, 4));
      for (int i = 0; i < flips; ++i) {
        m.wire[rng_.Uniform(0, m.wire.size() - 1)] ^=
            static_cast<uint8_t>(rng_.Uniform(1, 255));
      }
      return m;
    }
  }
  return std::nullopt;
}

Mutation ResponseMutator::Mutate(const core::QueryResponse& response) {
  for (;;) {
    const MutationOp op =
        kAllMutationOps[rng_.Uniform(0, kAllMutationOps.size() - 1)];
    std::optional<Mutation> m = Apply(op, response);
    if (m.has_value()) return std::move(*m);
  }
}

std::string CompositeMutationOpName(CompositeMutationOp op) {
  switch (op) {
    case CompositeMutationOp::kDropSlice:
      return "drop_slice";
    case CompositeMutationOp::kDuplicateSlice:
      return "duplicate_slice";
    case CompositeMutationOp::kSwapSlices:
      return "swap_slices";
    case CompositeMutationOp::kShiftSeam:
      return "shift_seam";
    case CompositeMutationOp::kMutateInnerSlice:
      return "mutate_inner_slice";
  }
  return "unknown";
}

std::optional<CompositeMutation> ResponseMutator::ApplyComposite(
    CompositeMutationOp op, const core::QueryResponse& response) {
  if (response.slices.empty()) return std::nullopt;
  auto pack = [&](core::QueryResponse&& forged) {
    CompositeMutation m;
    m.op = op;
    m.wire = core::wirev3::Serialize(forged);
    return m;
  };
  switch (op) {
    case CompositeMutationOp::kDropSlice: {
      core::QueryResponse forged = core::CloneResponse(response);
      forged.slices.erase(
          forged.slices.begin() +
          static_cast<long>(rng_.Uniform(0, forged.slices.size() - 1)));
      return pack(std::move(forged));
    }

    case CompositeMutationOp::kDuplicateSlice: {
      core::QueryResponse forged = core::CloneResponse(response);
      const size_t i = rng_.Uniform(0, forged.slices.size() - 1);
      core::ShardSlice copy;
      copy.shard = forged.slices[i].shard;
      copy.response = core::CloneResponse(forged.slices[i].response);
      forged.slices.insert(forged.slices.begin() + static_cast<long>(i),
                           std::move(copy));
      return pack(std::move(forged));
    }

    case CompositeMutationOp::kSwapSlices: {
      if (response.slices.size() < 2) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      const size_t i = rng_.Uniform(0, forged.slices.size() - 2);
      const size_t j = rng_.Uniform(i + 1, forged.slices.size() - 1);
      std::swap(forged.slices[i], forged.slices[j]);
      return pack(std::move(forged));
    }

    case CompositeMutationOp::kShiftSeam: {
      // Move the boundary between two adjacent slices so they still abut,
      // just at the wrong key: the classic boundary-drop attack a client
      // without its own copy of the partition bounds would miss.
      if (response.slices.size() < 2) return std::nullopt;
      core::QueryResponse forged = core::CloneResponse(response);
      const size_t seam = rng_.Uniform(1, forged.slices.size() - 1);
      const uint64_t delta = rng_.Uniform(1, 1000);
      const bool up = rng_.Chance(0.5);
      core::QueryResponse& left = forged.slices[seam - 1].response;
      core::QueryResponse& right = forged.slices[seam].response;
      left.ub = ShiftKey(left.ub, delta, up);
      right.lb = ShiftKey(right.lb, delta, up);
      return pack(std::move(forged));
    }

    case CompositeMutationOp::kMutateInnerSlice: {
      // Tamper inside ONE shard's sub-response with a semantic
      // single-response operator (byte-level corruption would not embed as a
      // parseable slice). kShiftRangeBounds always applies, so this loop
      // terminates.
      core::QueryResponse forged = core::CloneResponse(response);
      const size_t i = rng_.Uniform(0, forged.slices.size() - 1);
      for (;;) {
        const MutationOp inner_op =
            kAllMutationOps[rng_.Uniform(0, kAllMutationOps.size() - 1)];
        if (inner_op == MutationOp::kCorruptWireBytes) continue;
        std::optional<Mutation> inner =
            Apply(inner_op, forged.slices[i].response);
        if (!inner.has_value()) continue;
        std::optional<core::QueryResponse> parsed =
            core::ParseResponse(inner->wire);
        if (!parsed.has_value()) continue;
        forged.slices[i].response = std::move(*parsed);
        CompositeMutation m = pack(std::move(forged));
        m.inner = inner_op;
        return m;
      }
    }
  }
  return std::nullopt;
}

CompositeMutation ResponseMutator::MutateComposite(
    const core::QueryResponse& response) {
  for (;;) {
    const CompositeMutationOp op = kAllCompositeMutationOps[rng_.Uniform(
        0, kAllCompositeMutationOps.size() - 1)];
    std::optional<CompositeMutation> m = ApplyComposite(op, response);
    if (m.has_value()) return std::move(*m);
  }
}

std::string WireV3MutationOpName(WireV3MutationOp op) {
  switch (op) {
    case WireV3MutationOp::kDeltaKeyCorrupt:
      return "delta_key_corrupt";
    case WireV3MutationOp::kValueLengthSkew:
      return "value_length_skew";
    case WireV3MutationOp::kVersionByteConfusion:
      return "version_byte_confusion";
  }
  return "unknown";
}

namespace {

/// Byte offsets inside a single (kind 0) v3 image: the first zzdelta of the
/// first non-empty VO key chain, and every result entry's varint(|value|).
struct ImageSites {
  std::optional<size_t> first_key_delta;
  std::vector<size_t> value_lengths;
};

bool WalkChild(const Bytes& image, size_t* pos, ImageSites* sites) {
  namespace w3 = core::wirev3;
  const std::optional<uint64_t> tag = w3::ReadVarint(image, pos);
  if (!tag.has_value() || *tag == 0) return false;
  if (*tag > 3) {  // expanded node of tag - 3 children
    for (uint64_t i = 0; i < *tag - 3; ++i) {
      if (!WalkChild(image, pos, sites)) return false;
    }
    return true;
  }
  if (!sites->first_key_delta.has_value()) sites->first_key_delta = *pos;
  if (!w3::ReadVarint(image, pos).has_value()) return false;  // key | lo
  uint64_t skip = 32;  // boundary value hash
  if (*tag == 1) {     // result entry: varint(|value|) value
    sites->value_lengths.push_back(*pos);
    const std::optional<uint64_t> len = w3::ReadVarint(image, pos);
    if (!len.has_value()) return false;
    skip = *len;
  } else if (*tag == 3) {  // pruned subtree: varint(hi-lo) hash32
    if (!w3::ReadVarint(image, pos).has_value()) return false;
  }
  if (skip > image.size() - *pos) return false;
  *pos += skip;
  return true;
}

std::optional<ImageSites> WalkSingleImage(const Bytes& image) {
  namespace w3 = core::wirev3;
  if (image.size() < 2 || image[1] != 0) return std::nullopt;
  size_t pos = 2;
  // body := zz(lb) varint(ub-lb) varint(nsplits) nsplits * zzdelta ...
  if (!w3::ReadVarint(image, &pos) || !w3::ReadVarint(image, &pos)) {
    return std::nullopt;
  }
  std::optional<uint64_t> nsplits = w3::ReadVarint(image, &pos);
  if (!nsplits.has_value()) return std::nullopt;
  for (uint64_t s = 0; s < *nsplits; ++s) {
    if (!w3::ReadVarint(image, &pos)) return std::nullopt;
  }
  std::optional<uint64_t> ntrees = w3::ReadVarint(image, &pos);
  if (!ntrees.has_value()) return std::nullopt;
  ImageSites sites;
  for (uint64_t t = 0; t < *ntrees; ++t) {
    // tree := varint(|label|) label varint(nobjects) vo
    std::optional<uint64_t> label_len = w3::ReadVarint(image, &pos);
    if (!label_len.has_value() || image.size() - pos < *label_len) {
      return std::nullopt;
    }
    pos += *label_len;
    if (!w3::ReadVarint(image, &pos) || pos >= image.size()) return std::nullopt;
    if (image[pos++] == 0x00) continue;  // empty tree
    if (!WalkChild(image, &pos, &sites)) return std::nullopt;
  }
  return sites;
}

/// `image` with the varint at `pos` replaced by `v`.
Bytes SpliceVarint(const Bytes& image, size_t pos, uint64_t v) {
  size_t end = pos;
  core::wirev3::ReadVarint(image, &end);
  Bytes forged(image.begin(), image.begin() + static_cast<long>(pos));
  core::wirev3::AppendVarint(&forged, v);
  forged.insert(forged.end(), image.begin() + static_cast<long>(end), image.end());
  return forged;
}

}  // namespace

std::optional<WireV3Mutation> ResponseMutator::ApplyWireV3(
    WireV3MutationOp op, const core::QueryResponse& response) {
  namespace w3 = core::wirev3;
  WireV3Mutation m;
  m.op = op;
  switch (op) {
    case WireV3MutationOp::kDeltaKeyCorrupt: {
      // Splice a different (still canonical) delta into the first VO key
      // chain. One wire-level edit shifts that key or pruned interval AND
      // every later key of the chain, result records' keys with them:
      // framing and range survive, root recomputation cannot.
      const Bytes image = w3::Serialize(response);
      std::optional<ImageSites> sites = WalkSingleImage(image);
      if (!sites.has_value() || !sites->first_key_delta.has_value()) {
        return std::nullopt;
      }
      size_t pos = *sites->first_key_delta;
      std::optional<uint64_t> old_delta = w3::ReadVarint(image, &pos);
      if (!old_delta.has_value()) return std::nullopt;
      const Key shifted = ShiftKey(static_cast<Key>(w3::ZigzagDecode(*old_delta)),
                                   rng_.Uniform(1, 1000), rng_.Chance(0.5));
      m.wire = SpliceVarint(image, *sites->first_key_delta,
                            w3::ZigzagEncode(shifted));
      return m;
    }

    case WireV3MutationOp::kValueLengthSkew: {
      // Rewrite one result record's length: a longer value swallows the
      // next child's bytes, a shorter one strands its own tail to be read
      // as the next child. If the image still parses, that record's value
      // changed, and so does its entry's hash.
      const Bytes image = w3::Serialize(response);
      std::optional<ImageSites> sites = WalkSingleImage(image);
      if (!sites.has_value() || sites->value_lengths.empty()) {
        return std::nullopt;
      }
      const size_t at = sites->value_lengths[rng_.Uniform(
          0, sites->value_lengths.size() - 1)];
      size_t pos = at;
      const uint64_t len = *w3::ReadVarint(image, &pos);
      const bool strand = len > 0 && rng_.Chance(0.5);
      const uint64_t skewed =
          strand ? len - rng_.Uniform(1, len) : len + rng_.Uniform(1, 64);
      m.wire = SpliceVarint(image, at, skewed);
      return m;
    }

    case WireV3MutationOp::kVersionByteConfusion: {
      // Relabel the image with any other version byte — the retired
      // fixed-width v2 or one never assigned. Only v3 parses, so the
      // relabeled image must fail closed in the codec.
      m.wire = w3::Serialize(response);
      m.wire[0] = static_cast<uint8_t>(w3::kVersion + rng_.Uniform(1, 255));
      return m;
    }
  }
  return std::nullopt;
}

WireV3Mutation ResponseMutator::MutateWireV3(const core::QueryResponse& response) {
  for (;;) {
    const WireV3MutationOp op =
        kAllWireV3MutationOps[rng_.Uniform(0, kAllWireV3MutationOps.size() - 1)];
    std::optional<WireV3Mutation> m = ApplyWireV3(op, response);
    if (m.has_value()) return std::move(*m);
  }
}

std::string SpecMutationOpName(SpecMutationOp op) {
  switch (op) {
    case SpecMutationOp::kSwapConjunctVos:
      return "swap_conjunct_vos";
    case SpecMutationOp::kDropConjunct:
      return "drop_conjunct";
    case SpecMutationOp::kDuplicateConjunct:
      return "duplicate_conjunct";
    case SpecMutationOp::kShiftConjunctRange:
      return "shift_conjunct_range";
    case SpecMutationOp::kTamperAggregateBoundary:
      return "tamper_aggregate_boundary";
    case SpecMutationOp::kSpecEchoTamper:
      return "spec_echo_tamper";
    case SpecMutationOp::kMutateInnerConjunct:
      return "mutate_inner_conjunct";
    case SpecMutationOp::kAnswerOutsideSpec:
      return "answer_outside_spec";
    case SpecMutationOp::kRetargetAnswer:
      return "retarget_answer";
    case SpecMutationOp::kPrefilterConjunct:
      return "prefilter_conjunct";
    case SpecMutationOp::kRewriteOtherAttr:
      return "rewrite_other_attr";
    case SpecMutationOp::kAllConjunctsAnd:
      return "all_conjuncts_and";
  }
  return "unknown";
}

std::optional<SpecMutation> ResponseMutator::ApplySpec(
    SpecMutationOp op, const core::SpecResponse& response, ValueShape shape) {
  if (response.conjuncts.empty()) return std::nullopt;
  auto pack = [&](core::SpecResponse&& forged) {
    SpecMutation m;
    m.op = op;
    m.wire = core::SerializeSpecResponse(forged, core::WireVersion::kV3);
    return m;
  };
  // Conjunct pairs over *different* mapped ranges: crossing two conjuncts
  // with identical ranges over identical attribute trees could reproduce the
  // honest answer, so the pair operators only cross conjuncts the range pin
  // is guaranteed to catch.
  auto distinct_pair = [&](const core::SpecResponse& r, size_t* i, size_t* j) {
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t a = 0; a < r.conjuncts.size(); ++a) {
      for (size_t b = a + 1; b < r.conjuncts.size(); ++b) {
        if (r.conjuncts[a].lb != r.conjuncts[b].lb ||
            r.conjuncts[a].ub != r.conjuncts[b].ub) {
          pairs.emplace_back(a, b);
        }
      }
    }
    if (pairs.empty()) return false;
    const auto& p = pairs[rng_.Uniform(0, pairs.size() - 1)];
    *i = p.first;
    *j = p.second;
    return true;
  };

  switch (op) {
    case SpecMutationOp::kSwapConjunctVos: {
      core::SpecResponse forged = core::CloneSpecResponse(response);
      size_t i = 0, j = 0;
      if (!distinct_pair(forged, &i, &j)) return std::nullopt;
      std::swap(forged.conjuncts[i], forged.conjuncts[j]);
      return pack(std::move(forged));
    }

    case SpecMutationOp::kDropConjunct: {
      // The conjunct count is pinned structurally (one for an AND of several
      // predicates, one per predicate otherwise), so this forgery must
      // already die in ParseSpecResponse.
      core::SpecResponse forged = core::CloneSpecResponse(response);
      forged.conjuncts.erase(
          forged.conjuncts.begin() +
          static_cast<long>(rng_.Uniform(0, forged.conjuncts.size() - 1)));
      return pack(std::move(forged));
    }

    case SpecMutationOp::kDuplicateConjunct: {
      core::SpecResponse forged = core::CloneSpecResponse(response);
      size_t i = 0, j = 0;
      if (!distinct_pair(forged, &i, &j)) return std::nullopt;
      if (rng_.Chance(0.5)) std::swap(i, j);
      forged.conjuncts[j] = core::CloneResponse(forged.conjuncts[i]);
      return pack(std::move(forged));
    }

    case SpecMutationOp::kShiftConjunctRange: {
      core::SpecResponse forged = core::CloneSpecResponse(response);
      core::QueryResponse& conjunct =
          forged.conjuncts[rng_.Uniform(0, forged.conjuncts.size() - 1)];
      const uint64_t delta = rng_.Uniform(1, 1'000'000);
      switch (rng_.Uniform(0, 2)) {
        case 0:
          conjunct.lb = ShiftKey(conjunct.lb, delta, false);
          break;
        case 1:
          conjunct.ub = ShiftKey(conjunct.ub, delta, true);
          break;
        default:
          conjunct.lb = ShiftKey(conjunct.lb, delta, false);
          conjunct.ub = ShiftKey(conjunct.ub, delta, true);
          break;
      }
      return pack(std::move(forged));
    }

    case SpecMutationOp::kTamperAggregateBoundary: {
      // Aggregates fold over exactly the VO boundary entries, so one flipped
      // hash site is one wrong COUNT/SUM/MIN/MAX input — and one diverged
      // root reconstruction.
      if (response.spec.aggregate == core::AggregateKind::kNone) {
        return std::nullopt;
      }
      core::SpecResponse forged = core::CloneSpecResponse(response);
      const size_t idx = rng_.Uniform(0, forged.conjuncts.size() - 1);
      std::optional<Mutation> inner =
          Apply(MutationOp::kFlipVoHashBit, forged.conjuncts[idx]);
      if (!inner.has_value()) return std::nullopt;
      std::optional<core::QueryResponse> parsed = core::ParseResponse(inner->wire);
      if (!parsed.has_value()) return std::nullopt;
      forged.conjuncts[idx] = std::move(*parsed);
      return pack(std::move(forged));
    }

    case SpecMutationOp::kSpecEchoTamper: {
      // Rewrite the echoed spec. A variant that stays structurally valid is
      // caught by the spec pin ("response spec does not match the issued
      // query"); one that wraps into invalidity (lb > ub, aggregate over
      // several predicates) dies in ParseSpecResponse. Either way: rejected.
      core::SpecResponse forged = core::CloneSpecResponse(response);
      core::QuerySpec& spec = forged.spec;
      switch (rng_.Uniform(0, 2)) {
        case 0:
          spec.op = spec.op == core::BoolOp::kAnd ? core::BoolOp::kOr
                                                  : core::BoolOp::kAnd;
          break;
        case 1: {
          core::Predicate& p =
              spec.predicates[rng_.Uniform(0, spec.predicates.size() - 1)];
          const uint64_t delta = rng_.Uniform(1, 1000);
          if (rng_.Chance(0.5)) {
            p.lb = ShiftKey(p.lb, delta, false);
          } else {
            p.ub = ShiftKey(p.ub, delta, true);
          }
          break;
        }
        default:
          spec.aggregate = static_cast<core::AggregateKind>(
              (static_cast<uint8_t>(spec.aggregate) + 1 +
               rng_.Uniform(0, 3)) %
              5);
          break;
      }
      return pack(std::move(forged));
    }

    case SpecMutationOp::kMutateInnerConjunct: {
      // Tamper inside ONE conjunct's sub-response with a semantic
      // single-response operator, exactly as kMutateInnerSlice does for
      // shards. kShiftRangeBounds always applies, so this loop terminates.
      // kDropObject is not semantic in an aggregate answer: it demotes a
      // record the answer kept to a boundary entry with the record's own
      // hash, which folds into the same COUNT/SUM/MIN/MAX.
      const bool aggregate = response.spec.aggregate != core::AggregateKind::kNone;
      core::SpecResponse forged = core::CloneSpecResponse(response);
      const size_t idx = rng_.Uniform(0, forged.conjuncts.size() - 1);
      for (;;) {
        const MutationOp inner_op =
            kAllMutationOps[rng_.Uniform(0, kAllMutationOps.size() - 1)];
        if (inner_op == MutationOp::kCorruptWireBytes) continue;
        if (aggregate && inner_op == MutationOp::kDropObject) continue;
        std::optional<Mutation> inner = Apply(inner_op, forged.conjuncts[idx]);
        if (!inner.has_value()) continue;
        std::optional<core::QueryResponse> parsed =
            core::ParseResponse(inner->wire);
        if (!parsed.has_value()) continue;
        forged.conjuncts[idx] = std::move(*parsed);
        SpecMutation m = pack(std::move(forged));
        m.inner = inner_op;
        return m;
      }
    }

    case SpecMutationOp::kAnswerOutsideSpec: {
      // ParseSpecResponse pins the index below the predicate count.
      if (!core::AnsweredByOneConjunct(response.spec)) return std::nullopt;
      core::SpecResponse forged = core::CloneSpecResponse(response);
      forged.answering = static_cast<uint32_t>(
          forged.spec.predicates.size() + rng_.Uniform(0, 1000));
      return pack(std::move(forged));
    }

    case SpecMutationOp::kRetargetAnswer: {
      // The client pins the conjunct to the named predicate's mapped range
      // and verifies it against that predicate's attribute. Only a predicate
      // that differs is named: identical predicates answer identically.
      // (Predicates over one attribute that differ only outside its domain
      // would map to one range, where a retarget forges nothing; the sweeps
      // never pair those.)
      if (!core::AnsweredByOneConjunct(response.spec)) return std::nullopt;
      const std::vector<core::Predicate>& preds = response.spec.predicates;
      std::vector<uint32_t> others;
      for (uint32_t j = 0; j < preds.size(); ++j) {
        if (!(preds[j] == preds[response.answering])) others.push_back(j);
      }
      if (others.empty()) return std::nullopt;
      core::SpecResponse forged = core::CloneSpecResponse(response);
      forged.answering = others[rng_.Uniform(0, others.size() - 1)];
      return pack(std::move(forged));
    }

    case SpecMutationOp::kPrefilterConjunct: {
      // An SP that filters on the client's behalf ships exactly the AND
      // answer, but the conjunct's VO still covers the records it withheld:
      // their entries turn into in-range boundary entries.
      if (!core::AnsweredByOneConjunct(response.spec)) return std::nullopt;
      core::SpecResponse forged = core::CloneSpecResponse(response);
      std::vector<core::TreeResultSet*> trees;
      CollectTrees(&forged.conjuncts[0], &trees);
      bool dropped = false;
      for (core::TreeResultSet* tree : trees) {
        const std::vector<ResultSite> sites = ResultSites(tree);
        for (size_t i = tree->objects.size(); i-- > 0;) {
          if (SatisfiesSpec(tree->objects[i], forged.spec, shape)) continue;
          Withhold(tree, i, sites);
          dropped = true;
        }
      }
      if (!dropped) return std::nullopt;
      return pack(std::move(forged));
    }

    case SpecMutationOp::kRewriteOtherAttr: {
      // The filter reads the records' other attribute values; the record
      // bytes are what the answering index hashed, attributes included.
      if (!core::AnsweredByOneConjunct(response.spec) ||
          shape != ValueShape::kRecord) {
        return std::nullopt;
      }
      const uint32_t indexed =
          response.spec.predicates[response.answering].attr;
      core::SpecResponse forged = core::CloneSpecResponse(response);
      std::vector<core::TreeResultSet*> trees;
      CollectTrees(&forged.conjuncts[0], &trees);
      std::vector<std::pair<Object*, multiattr::MultiAttrRecord>> records;
      for (core::TreeResultSet* tree : trees) {
        for (Object& obj : tree->objects) {
          auto record = multiattr::DecodeRecord(obj.value);
          if (record.has_value() && record->attrs.size() >= 2 &&
              indexed < record->attrs.size()) {
            records.emplace_back(&obj, std::move(*record));
          }
        }
      }
      if (records.empty()) return std::nullopt;
      auto& [obj, record] = records[rng_.Uniform(0, records.size() - 1)];
      size_t other = rng_.Uniform(0, record.attrs.size() - 2);
      if (other >= indexed) ++other;
      record.attrs[other] = ShiftKey(record.attrs[other],
                                     rng_.Uniform(1, 1000), rng_.Chance(0.5));
      obj->value = multiattr::EncodeRecord(record);
      return pack(std::move(forged));
    }

    case SpecMutationOp::kAllConjunctsAnd: {
      // Written by hand: SerializeSpecResponse emits only the current
      // grammar. Every slot carries the shipped conjunct; the shape alone
      // must fail ParseSpecResponse.
      if (!core::AnsweredByOneConjunct(response.spec)) return std::nullopt;
      SpecMutation m;
      m.op = op;
      m.wire = {core::wirev3::kVersion, /*kind: spec envelope*/ 2};
      const Bytes spec = core::SerializeQuerySpec(response.spec);
      AppendUint64(&m.wire, spec.size());
      m.wire.insert(m.wire.end(), spec.begin(), spec.end());
      const size_t npred = response.spec.predicates.size();
      AppendUint64(&m.wire, npred);
      const Bytes image = core::wirev3::Serialize(response.conjuncts[0]);
      for (size_t i = 0; i < npred; ++i) {
        AppendUint64(&m.wire, image.size());
        m.wire.insert(m.wire.end(), image.begin(), image.end());
      }
      return m;
    }
  }
  return std::nullopt;
}

SpecMutation ResponseMutator::MutateSpec(const core::SpecResponse& response,
                                         ValueShape shape) {
  for (;;) {
    const SpecMutationOp op =
        kAllSpecMutationOps[rng_.Uniform(0, kAllSpecMutationOps.size() - 1)];
    std::optional<SpecMutation> m = ApplySpec(op, response, shape);
    if (m.has_value()) return std::move(*m);
  }
}

}  // namespace gem2::fault
