#include "fault/catalogue.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ads/vo.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "crypto/digest.h"
#include "multiattr/multiattr_db.h"

namespace gem2::fault {
namespace {

using core::QueryResponse;
using core::SpecResponse;

/// A mutable hash site inside a VO: a boundary entry's value hash or a
/// pruned subtree's content hash. Result entries carry no hash (the client
/// recomputes those from the returned objects), so altering a result means
/// altering the object itself — a different operator.
bool IsHashSite(const ads::VoElement& e) {
  return e.kind == ads::VoElement::Kind::kBoundary ||
         e.kind == ads::VoElement::Kind::kPruned;
}

/// The responses a single-family edit pools its sites over: the response
/// itself and, in a composite answer, every slice's. A flat answer is its
/// own only part, so pooling draws exactly what an edit of it alone would.
template <typename Response>
std::vector<Response*> Parts(Response& response) {
  std::vector<Response*> parts{&response};
  for (auto& slice : response.slices) parts.push_back(&slice.response);
  return parts;
}

/// Every tree of every part, in part order.
template <typename Response>
auto Trees(Response& response) {
  std::vector<decltype(&response.trees.front())> trees;
  for (Response* part : Parts(response)) {
    for (auto& tree : part->trees) trees.push_back(&tree);
  }
  return trees;
}

/// How many elements `Member` (trees or split points) holds over all parts.
template <auto Member>
size_t CountOf(const QueryResponse& response) {
  size_t n = 0;
  for (const QueryResponse* part : Parts(response)) n += (part->*Member).size();
  return n;
}

/// Element `k` of `Member` counted over all parts: its vector and index.
template <auto Member>
auto NthOf(QueryResponse& response, size_t k) {
  for (QueryResponse* part : Parts(response)) {
    auto& items = part->*Member;
    if (k < items.size()) return std::make_pair(&items, k);
    k -= items.size();
  }
  throw std::out_of_range("no such site");
}

std::vector<Hash*> HashSites(QueryResponse& response) {
  std::vector<Hash*> sites;
  for (core::TreeResultSet* tree : Trees(response)) {
    for (ads::VoElement& e : tree->vo.elements) {
      if (IsHashSite(e)) sites.push_back(&e.hash);
    }
  }
  return sites;
}

size_t CountHashSites(const QueryResponse& response) {
  size_t n = 0;
  for (const core::TreeResultSet* tree : Trees(response)) {
    n += static_cast<size_t>(std::ranges::count_if(tree->vo.elements, IsHashSite));
  }
  return n;
}

/// Where one result entry sits in a tree's VO: its element index and its
/// parent node's.
struct ResultSite {
  size_t index;
  size_t parent;
};

/// A tree's result entries in VO order: the i-th proves objects[i].
std::vector<ResultSite> ResultSites(const core::TreeResultSet& tree) {
  std::vector<ResultSite> sites;
  // Open nodes, innermost last: element index and children not yet begun.
  std::vector<std::pair<size_t, uint32_t>> open;
  for (size_t i = 0; i < tree.vo.elements.size(); ++i) {
    const ads::VoElement& e = tree.vo.elements[i];
    if (!open.empty()) {
      if (e.kind == ads::VoElement::Kind::kResult) {
        sites.push_back({i, open.back().first});
      }
      --open.back().second;
    }
    if (e.kind == ads::VoElement::Kind::kNode) open.emplace_back(i, e.children);
    while (!open.empty() && open.back().second == 0) open.pop_back();
  }
  return sites;
}

/// Withholds the tree's i-th result: its entry becomes a boundary entry
/// carrying the record's value hash, the only way the image can leave an
/// in-range key unanswered.
void Withhold(core::TreeResultSet* tree, size_t i,
              const std::vector<ResultSite>& sites) {
  ads::VoElement& entry = tree->vo.elements[sites[i].index];
  entry = ads::VoElement::Boundary(entry.lo, crypto::ValueHash(tree->objects[i].value));
  tree->objects.erase(tree->objects.begin() + static_cast<long>(i));
}

/// The trees that contribute at least one result object.
std::vector<core::TreeResultSet*> TreesWithObjects(QueryResponse& response) {
  std::vector<core::TreeResultSet*> trees = Trees(response);
  std::erase_if(trees, [](const core::TreeResultSet* t) { return t->objects.empty(); });
  return trees;
}

/// A uniformly drawn tree that returns records.
core::TreeResultSet& DrawTreeWithObjects(QueryResponse& response, Rng& rng) {
  const std::vector<core::TreeResultSet*> trees = TreesWithObjects(response);
  return *trees[rng.Uniform(0, trees.size() - 1)];
}

/// Wrap-around key shift (two's complement): keeps the forgery well-defined
/// even at the extremes of the key domain (signed overflow is UB).
Key ShiftKey(Key k, uint64_t delta, bool up) {
  const uint64_t u = static_cast<uint64_t>(k);
  return static_cast<Key>(up ? u + delta : u - delta);
}

/// Claims a wider range than [lb, ub]: lower lb, raise ub, or both.
void WidenRange(QueryResponse& response, Rng& rng) {
  const uint64_t delta = rng.Uniform(1, 1'000'000);
  const uint64_t which = rng.Uniform(0, 2);
  if (which != 1) response.lb = ShiftKey(response.lb, delta, false);
  if (which != 0) response.ub = ShiftKey(response.ub, delta, true);
}

// --- The single family: edits of one response and its slices ----------------

bool HasObjects(const QueryResponse& r) {
  return std::ranges::any_of(Trees(r), [](const core::TreeResultSet* t) {
    return !t->objects.empty();
  });
}
bool HasHashSite(const QueryResponse& r) { return CountHashSites(r) >= 1; }
bool HasTwoHashSites(const QueryResponse& r) { return CountHashSites(r) >= 2; }
bool HasTrees(const QueryResponse& r) { return CountOf<&QueryResponse::trees>(r) > 0; }
bool HasSplits(const QueryResponse& r) {
  return CountOf<&QueryResponse::upper_splits>(r) > 0;
}
bool HasSlices(const QueryResponse& r) { return !r.slices.empty(); }
bool HasTwoSlices(const QueryResponse& r) { return r.slices.size() >= 2; }

bool DropObject(QueryResponse& r, Rng& rng) {
  core::TreeResultSet& tree = DrawTreeWithObjects(r, rng);
  Withhold(&tree, rng.Uniform(0, tree.objects.size() - 1), ResultSites(tree));
  return true;
}

bool AlterObjectValue(QueryResponse& r, Rng& rng) {
  auto& objects = DrawTreeWithObjects(r, rng).objects;
  std::string& value = objects[rng.Uniform(0, objects.size() - 1)].value;
  if (value.empty()) {
    value.push_back('x');
  } else {
    value[rng.Uniform(0, value.size() - 1)] ^= static_cast<char>(rng.Uniform(1, 255));
  }
  return true;
}

bool AlterObjectKey(QueryResponse& r, Rng& rng) {
  // The record and its result entry move together.
  core::TreeResultSet& tree = DrawTreeWithObjects(r, rng);
  const size_t i = rng.Uniform(0, tree.objects.size() - 1);
  Object& obj = tree.objects[i];
  obj.key = ShiftKey(obj.key, rng.Uniform(1, 1000), rng.Chance(0.5));
  tree.vo.elements[ResultSites(tree)[i].index].lo = obj.key;
  return true;
}

bool DuplicateObject(QueryResponse& r, Rng& rng) {
  // The result entry repeats right after itself, one more child of its
  // node, with its record.
  core::TreeResultSet& tree = DrawTreeWithObjects(r, rng);
  const size_t i = rng.Uniform(0, tree.objects.size() - 1);
  const ResultSite site = ResultSites(tree)[i];
  std::vector<ads::VoElement>& elements = tree.vo.elements;
  const ads::VoElement entry = elements[site.index];
  elements.insert(elements.begin() + static_cast<long>(site.index + 1), entry);
  ++elements[site.parent].children;
  const Object record = tree.objects[i];
  tree.objects.insert(tree.objects.begin() + static_cast<long>(i + 1), record);
  return true;
}

bool SwapVoHashes(QueryResponse& r, Rng& rng) {
  // Pick a random site, then a second one holding a *different* hash
  // (swapping equal hashes would be a no-op forgery).
  std::vector<Hash*> sites = HashSites(r);
  const size_t first = rng.Uniform(0, sites.size() - 1);
  std::vector<size_t> partners;
  for (size_t i = 0; i < sites.size(); ++i) {
    if (*sites[i] != *sites[first]) partners.push_back(i);
  }
  if (partners.empty()) return false;
  const size_t second = partners[rng.Uniform(0, partners.size() - 1)];
  std::swap(*sites[first], *sites[second]);
  return true;
}

bool FlipVoHashBit(QueryResponse& r, Rng& rng) {
  std::vector<Hash*> sites = HashSites(r);
  Hash* site = sites[rng.Uniform(0, sites.size() - 1)];
  (*site)[rng.Uniform(0, 31)] ^= static_cast<uint8_t>(1u << rng.Uniform(0, 7));
  return true;
}

bool ShiftRangeBounds(QueryResponse& r, Rng& rng) {
  WidenRange(r, rng);
  return true;
}

bool DropTree(QueryResponse& r, Rng& rng) {
  const size_t n = CountOf<&QueryResponse::trees>(r);
  const auto [trees, i] = NthOf<&QueryResponse::trees>(r, rng.Uniform(0, n - 1));
  trees->erase(trees->begin() + static_cast<long>(i));
  return true;
}

bool DuplicateTree(QueryResponse& r, Rng& rng) {
  const size_t n = CountOf<&QueryResponse::trees>(r);
  const auto [trees, i] = NthOf<&QueryResponse::trees>(r, rng.Uniform(0, n - 1));
  core::TreeResultSet copy = (*trees)[i];
  trees->push_back(std::move(copy));
  return true;
}

bool ForgeUpperSplits(QueryResponse& r, Rng& rng) {
  const size_t n = CountOf<&QueryResponse::upper_splits>(r);
  switch (rng.Uniform(0, 2)) {
    case 0: {  // shift one split point
      const auto [splits, i] = NthOf<&QueryResponse::upper_splits>(r, rng.Uniform(0, n - 1));
      (*splits)[i] = ShiftKey((*splits)[i], rng.Uniform(1, 1000), true);
      break;
    }
    case 1: {  // withhold one split point
      const auto [splits, i] = NthOf<&QueryResponse::upper_splits>(r, rng.Uniform(0, n - 1));
      splits->erase(splits->begin() + static_cast<long>(i));
      break;
    }
    default: {  // invent an extra region after the last split point
      std::vector<Key>* splits = NthOf<&QueryResponse::upper_splits>(r, n - 1).first;
      splits->push_back(ShiftKey(splits->back(), rng.Uniform(1, 1000), true));
      break;
    }
  }
  return true;
}

// --- The composite family: attacks on the scatter plan ----------------------

bool DropSlice(QueryResponse& r, Rng& rng) {
  r.slices.erase(r.slices.begin() + static_cast<long>(rng.Uniform(0, r.slices.size() - 1)));
  return true;
}

bool DuplicateSlice(QueryResponse& r, Rng& rng) {
  const size_t i = rng.Uniform(0, r.slices.size() - 1);
  core::ShardSlice copy = r.slices[i];
  r.slices.insert(r.slices.begin() + static_cast<long>(i), std::move(copy));
  return true;
}

bool SwapSlices(QueryResponse& r, Rng& rng) {
  const size_t i = rng.Uniform(0, r.slices.size() - 2);
  const size_t j = rng.Uniform(i + 1, r.slices.size() - 1);
  std::swap(r.slices[i], r.slices[j]);
  return true;
}

bool ShiftSeam(QueryResponse& r, Rng& rng) {
  // Move the boundary between two adjacent slices so they still abut, just
  // at the wrong key: the classic boundary-drop attack a client without its
  // own copy of the partition bounds would miss.
  const size_t seam = rng.Uniform(1, r.slices.size() - 1);
  const uint64_t delta = rng.Uniform(1, 1000);
  const bool up = rng.Chance(0.5);
  QueryResponse& left = r.slices[seam - 1].response;
  QueryResponse& right = r.slices[seam].response;
  left.ub = ShiftKey(left.ub, delta, up);
  right.lb = ShiftKey(right.lb, delta, up);
  return true;
}

bool AnyValue(const Forgery&, const Target&) { return true; }

/// Adapters from an edit of the range answer's one conjunct to a table
/// entry: its image is the conjunct's.
template <bool (*Check)(const QueryResponse&)>
bool ConjunctHas(const Forgery& value, const Target&) {
  return Check(value.answer.conjuncts[0]);
}

template <bool (*Edit)(QueryResponse&, Rng&)>
bool EditConjunct(Forgery& value, const Target&, Rng& rng) {
  if (!Edit(value.answer.conjuncts[0], rng)) return false;
  value.image = core::wirev3::Serialize(value.answer.conjuncts[0]);
  return true;
}

bool CorruptWireBytes(Forgery& value, const Target&, Rng& rng) {
  value.image = core::wirev3::Serialize(value.answer.conjuncts[0]);
  const int flips = static_cast<int>(rng.Uniform(1, 4));
  for (int i = 0; i < flips; ++i) {
    value.image[rng.Uniform(0, value.image.size() - 1)] ^=
        static_cast<uint8_t>(rng.Uniform(1, 255));
  }
  return true;
}

// --- The wire family: surgical edits of the v3 image -------------------------
//
// Each targets the varint framing (the delta-encoded VO key chains, the
// length-prefixed result records) or the leading version byte, and either
// fails the codec outright or parses into a different answer.

/// Byte offsets inside a v3 image, over its one body or, in a composite
/// (kind 1) image, every slice body: the first zzdelta of the first
/// non-empty VO key chain, and every result entry's varint(|value|).
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

/// Walks one response body from `*pos`.
bool WalkBody(const Bytes& image, size_t* pos, ImageSites* sites) {
  namespace w3 = core::wirev3;
  // body := zz(lb) varint(ub-lb) varint(nsplits) nsplits * zzdelta ...
  if (!w3::ReadVarint(image, pos) || !w3::ReadVarint(image, pos)) return false;
  std::optional<uint64_t> nsplits = w3::ReadVarint(image, pos);
  if (!nsplits.has_value()) return false;
  for (uint64_t s = 0; s < *nsplits; ++s) {
    if (!w3::ReadVarint(image, pos)) return false;
  }
  std::optional<uint64_t> ntrees = w3::ReadVarint(image, pos);
  if (!ntrees.has_value()) return false;
  for (uint64_t t = 0; t < *ntrees; ++t) {
    // tree := varint(|label|) label varint(nobjects) vo
    std::optional<uint64_t> label_len = w3::ReadVarint(image, pos);
    if (!label_len.has_value() || image.size() - *pos < *label_len) return false;
    *pos += *label_len;
    if (!w3::ReadVarint(image, pos) || *pos >= image.size()) return false;
    if (image[(*pos)++] == 0x00) continue;  // empty tree
    if (!WalkChild(image, pos, sites)) return false;
  }
  return true;
}

/// No sites when the image does not parse as far as they go.
ImageSites WalkImage(const Bytes& image) {
  namespace w3 = core::wirev3;
  ImageSites sites;
  size_t pos = 2;
  if (image.size() < 2 || image[1] > 1) return {};
  if (image[1] == 0) return WalkBody(image, &pos, &sites) ? sites : ImageSites{};
  // composite := zz(lb) varint(ub-lb) varint(nslices)
  //               nslices * (varint(shard) varint(|body|) body)
  if (!w3::ReadVarint(image, &pos) || !w3::ReadVarint(image, &pos)) return {};
  std::optional<uint64_t> nslices = w3::ReadVarint(image, &pos);
  if (!nslices.has_value()) return {};
  for (uint64_t i = 0; i < *nslices; ++i) {
    if (!w3::ReadVarint(image, &pos) || !w3::ReadVarint(image, &pos)) return {};
    if (!WalkBody(image, &pos, &sites)) return {};
  }
  return sites;
}

ImageSites SitesOf(const Forgery& value) {
  return WalkImage(core::wirev3::Serialize(value.answer.conjuncts[0]));
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

bool HasKeyChain(const Forgery& value, const Target&) {
  return SitesOf(value).first_key_delta.has_value();
}

bool DeltaKeyCorrupt(Forgery& value, const Target&, Rng& rng) {
  // Splice a different (still canonical) delta into the first VO key chain.
  // One wire-level edit shifts that key or pruned interval AND every later
  // key of the chain, result records' keys with them: framing and range
  // survive, root recomputation cannot.
  namespace w3 = core::wirev3;
  const Bytes image = w3::Serialize(value.answer.conjuncts[0]);
  const size_t at = *WalkImage(image).first_key_delta;
  size_t pos = at;
  const uint64_t old_delta = *w3::ReadVarint(image, &pos);
  const Key shifted = ShiftKey(static_cast<Key>(w3::ZigzagDecode(old_delta)),
                               rng.Uniform(1, 1000), rng.Chance(0.5));
  value.image = SpliceVarint(image, at, w3::ZigzagEncode(shifted));
  return true;
}

bool HasRecordLength(const Forgery& value, const Target&) {
  return !SitesOf(value).value_lengths.empty();
}

bool ValueLengthSkew(Forgery& value, const Target&, Rng& rng) {
  // Rewrite one result record's length: a longer value swallows the next
  // child's bytes, a shorter one strands its own tail to be read as the next
  // child. If the image still parses, that record's value changed, and so
  // does its entry's hash.
  const Bytes image = core::wirev3::Serialize(value.answer.conjuncts[0]);
  const std::vector<size_t> lengths = WalkImage(image).value_lengths;
  const size_t at = lengths[rng.Uniform(0, lengths.size() - 1)];
  size_t pos = at;
  const uint64_t len = *core::wirev3::ReadVarint(image, &pos);
  const bool strand = len > 0 && rng.Chance(0.5);
  const uint64_t skewed = strand ? len - rng.Uniform(1, len) : len + rng.Uniform(1, 64);
  value.image = SpliceVarint(image, at, skewed);
  return true;
}

bool VersionByteConfusion(Forgery& value, const Target&, Rng& rng) {
  // Relabel the image with any other version byte — the retired fixed-width
  // v2 or one never assigned. Only v3 parses, so the relabeled image must
  // fail closed in the codec.
  value.image = core::wirev3::Serialize(value.answer.conjuncts[0]);
  value.image[0] = static_cast<uint8_t>(core::wirev3::kVersion + rng.Uniform(1, 255));
  return true;
}

// --- The spec family: attacks on a typed-spec answer -------------------------
//
// Each must die either in ParseSpecResponse (structural: an AND of several
// predicates carries one conjunct and an index inside the spec, every other
// spec one conjunct per predicate) or in VerifySpecFor (the spec echo and
// every conjunct's range are pinned, and each conjunct's VO is verified
// against its own attribute's digests).

bool OneConjunctAnswer(const Forgery& value, const Target&) {
  return core::AnsweredByOneConjunct(value.answer.spec);
}

/// Conjunct pairs over *different* mapped ranges: crossing two conjuncts with
/// identical ranges over identical attribute trees could reproduce the
/// honest answer, so the pair operators only cross conjuncts the range pin
/// is guaranteed to catch.
std::vector<std::pair<size_t, size_t>> DistinctPairs(const SpecResponse& r) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t a = 0; a < r.conjuncts.size(); ++a) {
    for (size_t b = a + 1; b < r.conjuncts.size(); ++b) {
      if (r.conjuncts[a].lb != r.conjuncts[b].lb ||
          r.conjuncts[a].ub != r.conjuncts[b].ub) {
        pairs.emplace_back(a, b);
      }
    }
  }
  return pairs;
}

bool HasDistinctPair(const Forgery& value, const Target&) {
  return !DistinctPairs(value.answer).empty();
}

std::pair<size_t, size_t> DrawDistinctPair(const SpecResponse& r, Rng& rng) {
  const std::vector<std::pair<size_t, size_t>> pairs = DistinctPairs(r);
  return pairs[rng.Uniform(0, pairs.size() - 1)];
}

bool SwapConjunctVos(SpecResponse& r, const Target&, Rng& rng) {
  // Each VO now claims the *other* predicate's range.
  const auto [i, j] = DrawDistinctPair(r, rng);
  std::swap(r.conjuncts[i], r.conjuncts[j]);
  return true;
}

bool DropConjunct(SpecResponse& r, const Target&, Rng& rng) {
  // The conjunct count is pinned structurally, so this forgery must already
  // die in ParseSpecResponse.
  r.conjuncts.erase(r.conjuncts.begin() +
                    static_cast<long>(rng.Uniform(0, r.conjuncts.size() - 1)));
  return true;
}

bool DuplicateConjunct(SpecResponse& r, const Target&, Rng& rng) {
  // Answer one predicate with a copy of another's response: the count stays
  // right, the range pin does not.
  auto [i, j] = DrawDistinctPair(r, rng);
  if (rng.Chance(0.5)) std::swap(i, j);
  r.conjuncts[j] = r.conjuncts[i];
  return true;
}

bool ShiftConjunctRange(SpecResponse& r, const Target&, Rng& rng) {
  WidenRange(r.conjuncts[rng.Uniform(0, r.conjuncts.size() - 1)], rng);
  return true;
}

bool IsAggregate(const Forgery& value, const Target&) {
  return value.answer.spec.aggregate != core::AggregateKind::kNone;
}

bool TamperAggregateBoundary(SpecResponse& r, const Target&, Rng& rng) {
  // Aggregates fold over exactly the VO boundary entries, so one flipped
  // hash site is one wrong COUNT/SUM/MIN/MAX input — and one diverged root
  // reconstruction.
  QueryResponse& conjunct = r.conjuncts[rng.Uniform(0, r.conjuncts.size() - 1)];
  return HasHashSite(conjunct) && FlipVoHashBit(conjunct, rng);
}

bool SpecEchoTamper(SpecResponse& r, const Target&, Rng& rng) {
  // A variant that stays structurally valid is caught by the spec pin; one
  // that wraps into invalidity (lb > ub, aggregate over several predicates)
  // dies in ParseSpecResponse.
  core::QuerySpec& spec = r.spec;
  switch (rng.Uniform(0, 2)) {
    case 0:
      spec.op = spec.op == core::BoolOp::kAnd ? core::BoolOp::kOr : core::BoolOp::kAnd;
      break;
    case 1: {
      core::Predicate& p = spec.predicates[rng.Uniform(0, spec.predicates.size() - 1)];
      const uint64_t delta = rng.Uniform(1, 1000);
      if (rng.Chance(0.5)) {
        p.lb = ShiftKey(p.lb, delta, false);
      } else {
        p.ub = ShiftKey(p.ub, delta, true);
      }
      break;
    }
    default:
      spec.aggregate = static_cast<core::AggregateKind>(
          (static_cast<uint8_t>(spec.aggregate) + 1 + rng.Uniform(0, 3)) % 5);
      break;
  }
  return true;
}

/// Forges `*part` with a targeted single-family operator drawn uniformly,
/// retrying until one applies: a blind byte flip would not embed as a
/// parseable part. shift_range_bounds always applies, so this terminates.
/// drop_object is skipped in an aggregate answer, where it is no forgery: it
/// demotes a record the answer kept to a boundary entry with the record's
/// own hash, which folds into the same COUNT/SUM/MIN/MAX.
void ForgeInner(QueryResponse* part, bool aggregate, Rng& rng) {
  const std::span<const Operator> single = Operators(Family::kSingle);
  Forgery inner;
  inner.answer.conjuncts.push_back(std::move(*part));
  for (;;) {
    const Operator& op = single[rng.Uniform(0, single.size() - 1)];
    if (op.attack == AttackClass::kMalformed) continue;
    if (aggregate && op.name == "drop_object") continue;
    if (op.applies(inner, {}) && op.forge(inner, {}, rng)) break;
  }
  *part = std::move(inner.answer.conjuncts[0]);
}

bool MutateInnerConjunct(SpecResponse& r, const Target&, Rng& rng) {
  const bool aggregate = r.spec.aggregate != core::AggregateKind::kNone;
  ForgeInner(&r.conjuncts[rng.Uniform(0, r.conjuncts.size() - 1)], aggregate, rng);
  return true;
}

bool AnswerOutsideSpec(SpecResponse& r, const Target&, Rng& rng) {
  // ParseSpecResponse pins the index below the predicate count.
  r.answering = static_cast<uint32_t>(r.spec.predicates.size() + rng.Uniform(0, 1000));
  return true;
}

/// Predicates other than the answering one that differ from it: identical
/// predicates answer identically. (Predicates over one attribute that differ
/// only outside its domain would map to one range, where a retarget forges
/// nothing; the sweeps never pair those.)
std::vector<uint32_t> RetargetSites(const SpecResponse& r) {
  std::vector<uint32_t> others;
  const std::vector<core::Predicate>& preds = r.spec.predicates;
  for (uint32_t j = 0; j < preds.size(); ++j) {
    if (!(preds[j] == preds[r.answering])) others.push_back(j);
  }
  return others;
}

bool CanRetarget(const Forgery& value, const Target& target) {
  return OneConjunctAnswer(value, target) && !RetargetSites(value.answer).empty();
}

bool RetargetAnswer(SpecResponse& r, const Target&, Rng& rng) {
  // The client pins the conjunct to the named predicate's mapped range and
  // verifies it against that predicate's attribute.
  const std::vector<uint32_t> others = RetargetSites(r);
  r.answering = others[rng.Uniform(0, others.size() - 1)];
  return true;
}

/// True when the shipped object satisfies every predicate of `spec`. Its
/// attribute values are its record's own in a records store (a value that
/// is no record, a tombstone, satisfies nothing), or else the key.
bool SatisfiesSpec(const Object& obj, const core::QuerySpec& spec, bool records) {
  std::vector<Key> attrs{obj.key};
  if (records) {
    std::optional<multiattr::MultiAttrRecord> record = multiattr::DecodeRecord(obj.value);
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

bool PrefilterConjunct(SpecResponse& r, const Target& target, Rng&) {
  // An SP that filters on the client's behalf ships exactly the AND answer,
  // but the conjunct's VO still covers the records it withheld: their
  // entries turn into in-range boundary entries.
  bool dropped = false;
  for (core::TreeResultSet* tree : Trees(r.conjuncts[0])) {
    const std::vector<ResultSite> sites = ResultSites(*tree);
    for (size_t i = tree->objects.size(); i-- > 0;) {
      if (SatisfiesSpec(tree->objects[i], r.spec, target.records)) continue;
      Withhold(tree, i, sites);
      dropped = true;
    }
  }
  return dropped;
}

/// The shipped records a rewrite can steer the filter through: each decoded,
/// with an attribute besides the answering one.
std::vector<std::pair<Object*, multiattr::MultiAttrRecord>> RewriteSites(
    SpecResponse& r) {
  const uint32_t indexed = r.spec.predicates[r.answering].attr;
  std::vector<std::pair<Object*, multiattr::MultiAttrRecord>> records;
  for (core::TreeResultSet* tree : Trees(r.conjuncts[0])) {
    for (Object& obj : tree->objects) {
      auto record = multiattr::DecodeRecord(obj.value);
      if (record.has_value() && record->attrs.size() >= 2 && indexed < record->attrs.size()) {
        records.emplace_back(&obj, std::move(*record));
      }
    }
  }
  return records;
}

bool CanRewriteOtherAttr(const Forgery& value, const Target& target) {
  return OneConjunctAnswer(value, target) && target.records;
}

bool RewriteOtherAttr(SpecResponse& r, const Target&, Rng& rng) {
  // The filter reads the records' other attribute values; the record bytes
  // are what the answering index hashed, attributes included.
  const uint32_t indexed = r.spec.predicates[r.answering].attr;
  auto records = RewriteSites(r);
  if (records.empty()) return false;
  auto& [obj, record] = records[rng.Uniform(0, records.size() - 1)];
  size_t other = rng.Uniform(0, record.attrs.size() - 2);
  if (other >= indexed) ++other;
  record.attrs[other] = ShiftKey(record.attrs[other], rng.Uniform(1, 1000), rng.Chance(0.5));
  obj->value = multiattr::EncodeRecord(record);
  return true;
}

template <bool (*Edit)(SpecResponse&, const Target&, Rng&)>
bool EditSpec(Forgery& value, const Target& target, Rng& rng) {
  if (!Edit(value.answer, target, rng)) return false;
  value.image = core::SerializeSpecResponse(value.answer, core::WireVersion::kV3);
  return true;
}

bool AllConjunctsAnd(Forgery& value, const Target&, Rng&) {
  // The AND shape without an answering index, one conjunct per predicate:
  // written by hand, as SerializeSpecResponse emits only the current
  // grammar. Every slot carries the shipped conjunct; the shape alone must
  // fail ParseSpecResponse.
  Bytes& image = value.image;
  image = {core::wirev3::kVersion, /*kind: spec envelope*/ 2};
  const Bytes spec = core::SerializeQuerySpec(value.answer.spec);
  AppendUint64(&image, spec.size());
  image.insert(image.end(), spec.begin(), spec.end());
  const size_t npred = value.answer.spec.predicates.size();
  AppendUint64(&image, npred);
  const Bytes conjunct = core::wirev3::Serialize(value.answer.conjuncts[0]);
  for (size_t i = 0; i < npred; ++i) {
    AppendUint64(&image, conjunct.size());
    image.insert(image.end(), conjunct.begin(), conjunct.end());
  }
  return true;
}

// --- The chain-state family: edits of the VO_chain states --------------------
//
// A state's leaf commits its contract's whole digest list, so each edit must
// fail Environment::VerifyAuthenticatedState, LightClient::VerifyStateAtTip
// or VerifySpecAgainst. A withheld digest travels with a withheld answer:
// the forged answer drops that tree's answer too, which is what lets a
// dropped partition pass unnoticed when the state root commits only the
// digests shipped.

size_t DigestCount(const Forgery& value, const Target& target) {
  return value.states[target.state].digests.size();
}

bool AtDigest(const Forgery& value, const Target& target) {
  return target.digest < DigestCount(value, target);
}

bool AtDigestWithNext(const Forgery& value, const Target& target) {
  return target.digest + 1 < DigestCount(value, target);
}

bool AtState(const Forgery& value, const Target& target) {
  return target.digest == DigestCount(value, target);
}

bool AtStateWithNext(const Forgery& value, const Target& target) {
  return AtState(value, target) && target.state + 1 < value.states.size();
}

bool AtStateOfSeveral(const Forgery& value, const Target& target) {
  return AtState(value, target) && value.states.size() > 1;
}

/// Removes the answer to tree `label` from every part of the answer that
/// verifies against state `target.state`: state attr * shards + shard.
void WithholdTree(Forgery& value, const Target& target, const std::string& label) {
  const core::QuerySpec& spec = value.answer.spec;
  const size_t shards = value.states.size() / target.attributes;
  auto withhold = [&](QueryResponse& part, size_t state) {
    if (state != target.state) return;
    std::erase_if(part.trees, [&](const core::TreeResultSet& t) { return t.label == label; });
  };
  for (size_t c = 0; c < value.answer.conjuncts.size(); ++c) {
    const size_t p = core::AnsweredByOneConjunct(spec) ? value.answer.answering : c;
    const size_t first = spec.predicates[p].attr * shards;
    QueryResponse& conjunct = value.answer.conjuncts[c];
    if (conjunct.slices.empty()) withhold(conjunct, first);
    for (core::ShardSlice& slice : conjunct.slices) withhold(slice.response, first + slice.shard);
  }
}

void Reserialize(Forgery& value) {
  value.image = core::SerializeSpecResponse(value.answer, core::WireVersion::kV3);
}

bool DropDigest(Forgery& value, const Target& target, Rng&) {
  std::vector<chain::DigestEntry>& digests = value.states[target.state].digests;
  WithholdTree(value, target, digests[target.digest].label);
  digests.erase(digests.begin() + static_cast<long>(target.digest));
  Reserialize(value);
  return true;
}

bool DuplicateDigest(Forgery& value, const Target& target, Rng&) {
  std::vector<chain::DigestEntry>& digests = value.states[target.state].digests;
  const chain::DigestEntry copy = digests[target.digest];
  digests.insert(digests.begin() + static_cast<long>(target.digest), copy);
  return true;
}

bool ReorderDigests(Forgery& value, const Target& target, Rng&) {
  std::vector<chain::DigestEntry>& digests = value.states[target.state].digests;
  std::swap(digests[target.digest], digests[target.digest + 1]);
  return true;
}

bool RelabelDigest(Forgery& value, const Target& target, Rng&) {
  std::string& label = value.states[target.state].digests[target.digest].label;
  label = "X" + label;
  return true;
}

bool EmptyState(Forgery& value, const Target& target, Rng&) {
  std::vector<chain::DigestEntry>& digests = value.states[target.state].digests;
  for (const chain::DigestEntry& d : digests) WithholdTree(value, target, d.label);
  digests.clear();
  Reserialize(value);
  return true;
}

bool StaleHeader(Forgery& value, const Target& target, Rng&) {
  value.states[target.state].header = target.earlier[target.state].header;
  return true;
}

bool SwapContractDigests(Forgery& value, const Target& target, Rng&) {
  chain::AuthenticatedState& a = value.states[target.state];
  chain::AuthenticatedState& b = value.states[target.state + 1];
  std::swap(a.digests, b.digests);
  std::swap(a.proof, b.proof);
  return true;
}

bool MixedHeaders(Forgery& value, const Target& target, Rng&) {
  // Each state is sound on its own; the list is sealed at two heights.
  value.states[target.state] = target.earlier[target.state];
  return true;
}

using enum Family;
using enum AttackClass;

constexpr std::array kCatalogue = {
    Operator{"drop_object", kSingle, kCompleteness, ConjunctHas<HasObjects>,
             EditConjunct<DropObject>},
    Operator{"alter_object_value", kSingle, kSoundness, ConjunctHas<HasObjects>,
             EditConjunct<AlterObjectValue>},
    Operator{"alter_object_key", kSingle, kSoundness, ConjunctHas<HasObjects>,
             EditConjunct<AlterObjectKey>},
    Operator{"duplicate_object", kSingle, kSoundness, ConjunctHas<HasObjects>,
             EditConjunct<DuplicateObject>},
    Operator{"swap_vo_hashes", kSingle, kSoundness, ConjunctHas<HasTwoHashSites>,
             EditConjunct<SwapVoHashes>},
    Operator{"flip_vo_hash_bit", kSingle, kSoundness, ConjunctHas<HasHashSite>,
             EditConjunct<FlipVoHashBit>},
    Operator{"shift_range_bounds", kSingle, kCompleteness, AnyValue,
             EditConjunct<ShiftRangeBounds>},
    Operator{"drop_tree", kSingle, kCompleteness, ConjunctHas<HasTrees>,
             EditConjunct<DropTree>},
    Operator{"duplicate_tree", kSingle, kSoundness, ConjunctHas<HasTrees>,
             EditConjunct<DuplicateTree>},
    Operator{"forge_upper_splits", kSingle, kCompleteness, ConjunctHas<HasSplits>,
             EditConjunct<ForgeUpperSplits>},
    Operator{"corrupt_wire_bytes", kSingle, kMalformed, AnyValue,
             CorruptWireBytes},

    Operator{"drop_slice", kComposite, kCompleteness, ConjunctHas<HasSlices>,
             EditConjunct<DropSlice>},
    Operator{"duplicate_slice", kComposite, kSoundness, ConjunctHas<HasSlices>,
             EditConjunct<DuplicateSlice>},
    Operator{"swap_slices", kComposite, kSoundness, ConjunctHas<HasTwoSlices>,
             EditConjunct<SwapSlices>},
    Operator{"shift_seam", kComposite, kCompleteness, ConjunctHas<HasTwoSlices>,
             EditConjunct<ShiftSeam>},

    Operator{"delta_key_corrupt", kWire, kSoundness, HasKeyChain, DeltaKeyCorrupt},
    Operator{"value_length_skew", kWire, kMalformed, HasRecordLength, ValueLengthSkew},
    Operator{"version_byte_confusion", kWire, kMalformed, AnyValue, VersionByteConfusion},

    Operator{"swap_conjunct_vos", kSpec, kSoundness, HasDistinctPair,
             EditSpec<SwapConjunctVos>},
    Operator{"drop_conjunct", kSpec, kCompleteness, AnyValue, EditSpec<DropConjunct>},
    Operator{"duplicate_conjunct", kSpec, kSoundness, HasDistinctPair,
             EditSpec<DuplicateConjunct>},
    Operator{"shift_conjunct_range", kSpec, kCompleteness, AnyValue,
             EditSpec<ShiftConjunctRange>},
    Operator{"tamper_aggregate_boundary", kSpec, kSoundness, IsAggregate,
             EditSpec<TamperAggregateBoundary>},
    Operator{"spec_echo_tamper", kSpec, kSoundness, AnyValue, EditSpec<SpecEchoTamper>},
    Operator{"mutate_inner_conjunct", kSpec, kSoundness, AnyValue,
             EditSpec<MutateInnerConjunct>},
    Operator{"answer_outside_spec", kSpec, kMalformed, OneConjunctAnswer,
             EditSpec<AnswerOutsideSpec>},
    Operator{"retarget_answer", kSpec, kSoundness, CanRetarget, EditSpec<RetargetAnswer>},
    Operator{"prefilter_conjunct", kSpec, kCompleteness, OneConjunctAnswer,
             EditSpec<PrefilterConjunct>},
    Operator{"rewrite_other_attr", kSpec, kSoundness, CanRewriteOtherAttr,
             EditSpec<RewriteOtherAttr>},
    Operator{"all_conjuncts_and", kSpec, kMalformed, OneConjunctAnswer, AllConjunctsAnd},

    Operator{"drop_digest", kChainState, kCompleteness, AtDigest, DropDigest},
    Operator{"duplicate_digest", kChainState, kSoundness, AtDigest, DuplicateDigest},
    Operator{"reorder_digests", kChainState, kSoundness, AtDigestWithNext, ReorderDigests},
    Operator{"relabel_digest", kChainState, kSoundness, AtDigest, RelabelDigest},
    Operator{"empty_state", kChainState, kCompleteness, AtState, EmptyState},
    Operator{"stale_header", kChainState, kSoundness, AtState, StaleHeader},
    Operator{"swap_contract_digests", kChainState, kSoundness, AtStateWithNext,
             SwapContractDigests},
    Operator{"mixed_headers", kChainState, kSoundness, AtStateOfSeveral, MixedHeaders},
};

}  // namespace

std::span<const Operator> Catalogue() { return kCatalogue; }

std::span<const Operator> Operators(Family family) {
  auto of = [family](const Operator& op) { return op.family == family; };
  const auto first = std::find_if(kCatalogue.begin(), kCatalogue.end(), of);
  const auto last = std::find_if_not(first, kCatalogue.end(), of);
  return {first, last};
}

}  // namespace gem2::fault
