#include "mbtree/mbtree.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/digest.h"
#include "crypto/keccak_batch.h"
#include "telemetry/telemetry.h"

namespace gem2::mbtree {
namespace {

bool Overlaps(Key a_lo, Key a_hi, Key b_lo, Key b_hi) {
  return a_lo <= b_hi && b_lo <= a_hi;
}

/// Stale nodes hashed per batch window in RefreshDirty: a window's scratch is
/// bounded by this times the fanout, whatever the size of the tree.
constexpr size_t kRefreshWindow = 64;

size_t ValidFanout(int fanout) {
  if (fanout < 3) throw std::invalid_argument("MB-tree fanout must be >= 3");
  return static_cast<size_t>(fanout);
}

/// Inserts `item` at `pos` of the `count` items at `items` (room for one more).
template <typename T>
void InsertAt(T* items, size_t count, size_t pos, const T& item) {
  std::copy_backward(items + pos, items + count, items + count + 1);
  items[pos] = item;
}

/// As InsertAt for a full node: of the count + 1 items, the first `keep` stay
/// in `items` and the rest go to `right`.
template <typename T>
void SplitInsert(T* items, size_t count, size_t pos, const T& item, size_t keep,
                 T* right) {
  // Fill the sibling first: it reads items this node still holds.
  for (size_t j = keep; j <= count; ++j) {
    right[j - keep] = j < pos ? items[j] : j == pos ? item : items[j - 1];
  }
  if (pos < keep) InsertAt(items, keep - 1, pos, item);
}

}  // namespace

// Stale nodes are marked by setting their digest to this sentinel; RefreshDirty
// recomputes exactly the marked nodes bottom-up. The all-zero word is not a
// reachable Keccak-256 output for any input we hash, so it also marks an empty
// entry-digest slot.
static const Hash kStaleSentinel{};

MbTree::MbTree(int fanout)
    : fanout_(fanout), leaves_(ValidFanout(fanout)), inners_(ValidFanout(fanout)) {}

Hash MbTree::root_digest() const {
  if (height_ == 0) return crypto::EmptyTreeDigest();
  EnsureFresh();
  return head(root_, IsLeaf(0)).digest;
}

Key MbTree::lo() const {
  if (height_ == 0) throw std::logic_error("empty tree has no boundaries");
  return head(root_, IsLeaf(0)).lo;
}

Key MbTree::hi() const {
  if (height_ == 0) throw std::logic_error("empty tree has no boundaries");
  return head(root_, IsLeaf(0)).hi;
}

Hash* MbTree::EntryDigests(uint32_t leaf) const {
  const size_t chunk = leaf / kChunkNodes;
  if (chunk >= entry_digests_.size() || entry_digests_[chunk] == nullptr) {
    return nullptr;
  }
  return entry_digests_[chunk].get() + (leaf % kChunkNodes) * fanout_;
}

Hash* MbTree::EnsureEntryDigests(uint32_t leaf) {
  const size_t chunk = leaf / kChunkNodes;
  if (chunk >= entry_digests_.size()) entry_digests_.resize(chunk + 1);
  if (entry_digests_[chunk] == nullptr) {
    entry_digests_[chunk] = std::make_unique<Hash[]>(kChunkNodes * fanout_);
  }
  return entry_digests_[chunk].get() + (leaf % kChunkNodes) * fanout_;
}

bool MbTree::Contains(Key key) const {
  if (height_ == 0) return false;
  const uint32_t leaf = DescendToLeaf(key, nullptr);
  const ads::Entry* entries = leaves_.items(leaf);
  const uint32_t count = leaves_.head(leaf).count;
  return std::any_of(entries, entries + count,
                     [key](const ads::Entry& e) { return e.key == key; });
}

uint32_t MbTree::DescendToLeaf(Key key, std::vector<uint32_t>* path) const {
  uint32_t id = root_;
  for (size_t depth = 0;; ++depth) {
    if (path != nullptr) path->push_back(id);
    if (IsLeaf(depth)) return id;
    const uint32_t* children = inners_.items(id);
    const uint32_t count = inners_.head(id).count;
    const bool leaf_children = IsLeaf(depth + 1);
    size_t idx = count - 1;
    for (size_t i = 1; i < count; ++i) {
      if (key < head(children[i], leaf_children).lo) {
        idx = i - 1;
        break;
      }
    }
    id = children[idx];
  }
}

std::optional<uint32_t> MbTree::InsertIntoLeaf(uint32_t leaf, size_t pos,
                                               const ads::Entry& entry) {
  Head& node = leaves_.head(leaf);
  ads::Entry* entries = leaves_.items(leaf);
  Hash* digests = EntryDigests(leaf);
  if (node.count < static_cast<uint32_t>(fanout_)) {
    InsertAt(entries, node.count, pos, entry);
    if (digests != nullptr) InsertAt(digests, node.count, pos, kStaleSentinel);
    ++node.count;
    node.lo = entries[0].key;
    node.hi = entries[node.count - 1].key;
    return std::nullopt;
  }
  const uint32_t sibling_id = leaves_.Add();
  Head& sibling = leaves_.head(sibling_id);
  ads::Entry* sibling_entries = leaves_.items(sibling_id);
  const size_t keep = (node.count + 2) / 2;
  SplitInsert(entries, node.count, pos, entry, keep, sibling_entries);
  if (digests != nullptr) {
    SplitInsert(digests, node.count, pos, kStaleSentinel, keep,
                EnsureEntryDigests(sibling_id));
  }
  sibling.count = node.count + 1 - static_cast<uint32_t>(keep);
  node.count = static_cast<uint32_t>(keep);
  // Boundaries are maintained eagerly so that routing of subsequent
  // structural inserts (BulkInsert defers digest refreshes) stays correct.
  sibling.lo = sibling_entries[0].key;
  sibling.hi = sibling_entries[sibling.count - 1].key;
  node.lo = entries[0].key;
  node.hi = entries[node.count - 1].key;
  sibling.digest = kStaleSentinel;
  node.digest = kStaleSentinel;
  return sibling_id;
}

std::optional<uint32_t> MbTree::InsertIntoInner(uint32_t node_id, size_t pos,
                                                uint32_t child, bool leaf_children) {
  Head& node = inners_.head(node_id);
  uint32_t* children = inners_.items(node_id);
  node.digest = kStaleSentinel;
  if (node.count < static_cast<uint32_t>(fanout_)) {
    InsertAt(children, node.count, pos, child);
    ++node.count;
    return std::nullopt;
  }
  const uint32_t sibling_id = inners_.Add();
  Head& sibling = inners_.head(sibling_id);
  uint32_t* sibling_children = inners_.items(sibling_id);
  const size_t keep = (node.count + 2) / 2;
  SplitInsert(children, node.count, pos, child, keep, sibling_children);
  sibling.count = node.count + 1 - static_cast<uint32_t>(keep);
  node.count = static_cast<uint32_t>(keep);
  sibling.lo = head(sibling_children[0], leaf_children).lo;
  sibling.hi = head(sibling_children[sibling.count - 1], leaf_children).hi;
  node.hi = head(children[node.count - 1], leaf_children).hi;
  sibling.digest = kStaleSentinel;
  return sibling_id;
}

void MbTree::InsertStructural(Key key, const Hash& value_hash, gas::Meter* meter) {
  if (height_ == 0) {
    root_ = leaves_.Add();
    Head& root = leaves_.head(root_);
    leaves_.items(root_)[0] = {key, value_hash};
    root.count = 1;
    root.lo = root.hi = key;
    root.digest = kStaleSentinel;
    height_ = 1;
    if (meter != nullptr) meter->ChargeSstore(1);
    ++size_;
    return;
  }

  std::vector<uint32_t> path;
  const uint32_t leaf = DescendToLeaf(key, &path);
  const ads::Entry* entries = leaves_.items(leaf);
  const ads::Entry* end = entries + leaves_.head(leaf).count;
  const ads::Entry* pos = std::lower_bound(
      entries, end, key, [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos != end && pos->key == key) {
    throw std::invalid_argument("MbTree::Insert: key already present");
  }
  std::optional<uint32_t> sibling =
      InsertIntoLeaf(leaf, static_cast<size_t>(pos - entries), {key, value_hash});
  if (meter != nullptr) meter->ChargeSstore(1);
  ++size_;
  for (size_t depth = 0; depth < path.size(); ++depth) {
    head(path[depth], IsLeaf(depth)).digest = kStaleSentinel;
  }

  // Resolve overflows bottom-up: each split hands its new right sibling to
  // the parent, right after the node that split.
  for (size_t level = path.size() - 1; sibling.has_value(); --level) {
    const bool leaf_level = IsLeaf(level);
    if (level == 0) {
      // Root split: grow a new root above.
      const uint32_t new_root = inners_.Add();
      Head& root = inners_.head(new_root);
      uint32_t* children = inners_.items(new_root);
      children[0] = root_;
      children[1] = *sibling;
      root.count = 2;
      root.lo = head(root_, leaf_level).lo;
      root.hi = head(*sibling, leaf_level).hi;
      root.digest = kStaleSentinel;
      root_ = new_root;
      ++height_;
      break;
    }
    const uint32_t parent = path[level - 1];
    const uint32_t* children = inners_.items(parent);
    const size_t at = static_cast<size_t>(
        std::find(children, children + inners_.head(parent).count, path[level]) -
        children);
    sibling = InsertIntoInner(parent, at + 1, *sibling, leaf_level);
  }
}

void MbTree::ChargeStale(uint32_t id, size_t depth, gas::Meter* meter,
                         ChargeMode mode,
                         std::vector<std::vector<uint32_t>>* by_depth) {
  const bool leaf = IsLeaf(depth);
  Head& node = head(id, leaf);
  if (node.digest != kStaleSentinel) return;
  if (!leaf) {
    const uint32_t* children = inners_.items(id);
    for (uint32_t i = 0; i < node.count; ++i) {
      ChargeStale(children[i], depth + 1, meter, mode, by_depth);
    }
  }
  if (meter != nullptr) {
    const uint64_t f = static_cast<uint64_t>(fanout_);
    if (mode == ChargeMode::kInsert) {
      // Paper Section IV-A per-level insert maintenance:
      // 2 sstores + 2 supdates + (2F+1) sloads (+ hashes, charged below).
      meter->ChargeSload(2 * f + 1);
      meter->ChargeSstore(2);
      meter->ChargeSupdate(2);
    } else {
      // Paper Section V-F per-level update maintenance:
      // 1 supdate + (F+1) sloads (+ hashes, charged below).
      meter->ChargeSload(f + 1);
      meter->ChargeSupdate(1);
    }
    if (leaf) {
      for (uint32_t i = 0; i < node.count; ++i) {
        meter->ChargeHash(crypto::EntryDigestBytes());
      }
    }
    meter->ChargeHash(crypto::ContentDigestBytes(node.count));
    meter->ChargeHash(crypto::WrapDigestBytes());
  }
  if (leaf) {
    const ads::Entry* entries = leaves_.items(id);
    node.lo = entries[0].key;
    node.hi = entries[node.count - 1].key;
  } else {
    const uint32_t* children = inners_.items(id);
    const bool leaf_children = IsLeaf(depth + 1);
    node.lo = head(children[0], leaf_children).lo;
    node.hi = head(children[node.count - 1], leaf_children).hi;
  }
  if (by_depth->size() <= depth) by_depth->resize(depth + 1);
  (*by_depth)[depth].push_back(id);
}

void MbTree::HashLevelWindow(std::span<const uint32_t> window, size_t depth,
                             bool metered) {
  const bool leaf = IsLeaf(depth);
  crypto::Keccak256Batcher batcher;
  if (leaf) {
    // Entry digests: a metered refresh fills the empty slots beside the
    // entries, an unmetered one hashes every entry into scratch. Either way
    // each leaf's digests are contiguous, its own content preimage.
    std::vector<Hash> scratch;
    if (!metered) {
      size_t total = 0;
      for (uint32_t id : window) total += leaves_.head(id).count;
      scratch.resize(total);
    }
    std::vector<Hash*> runs;
    runs.reserve(window.size());
    uint8_t entry_msg[40];
    size_t offset = 0;
    for (uint32_t id : window) {
      const uint32_t count = leaves_.head(id).count;
      Hash* digests = metered ? EnsureEntryDigests(id) : scratch.data() + offset;
      offset += count;
      runs.push_back(digests);
      const ads::Entry* entries = leaves_.items(id);
      for (uint32_t i = 0; i < count; ++i) {
        if (digests[i] != kStaleSentinel) continue;
        crypto::EncodeEntryPreimage(entries[i].key, entries[i].value_hash, entry_msg);
        batcher.Add(entry_msg, sizeof(entry_msg), &digests[i]);
      }
    }
    batcher.Flush();
    for (size_t w = 0; w < window.size(); ++w) {
      Head& node = leaves_.head(window[w]);
      batcher.Add(runs[w]->data(), sizeof(Hash) * node.count, &node.content);
    }
  } else {
    // Content preimages wider than one sponge block (fanout > 4) are hashed
    // scalar inside the batcher.
    const bool leaf_children = IsLeaf(depth + 1);
    std::vector<const Hash*> parts(static_cast<size_t>(fanout_));
    for (uint32_t id : window) {
      Head& node = inners_.head(id);
      const uint32_t* children = inners_.items(id);
      for (uint32_t i = 0; i < node.count; ++i) {
        parts[i] = &head(children[i], leaf_children).digest;
      }
      batcher.AddConcat(parts.data(), node.count, &node.content);
    }
  }
  batcher.Flush();

  uint8_t msg[48];
  for (uint32_t id : window) {
    Head& node = head(id, leaf);
    crypto::EncodeWrapPreimage(node.lo, node.hi, node.content, msg);
    batcher.Add(msg, sizeof(msg), &node.digest);
  }
  batcher.Flush();
}

void MbTree::RefreshDirty(gas::Meter* meter, ChargeMode mode) {
  std::vector<std::vector<uint32_t>> by_depth;
  ChargeStale(root_, 0, meter, mode, &by_depth);
  // Every stale node's stale children sit one bucket deeper, so hashing the
  // buckets deepest first reads only fresh child digests.
  for (size_t depth = by_depth.size(); depth-- > 0;) {
    const std::vector<uint32_t>& level = by_depth[depth];
    for (size_t begin = 0; begin < level.size(); begin += kRefreshWindow) {
      const size_t count = std::min(kRefreshWindow, level.size() - begin);
      HashLevelWindow({level.data() + begin, count}, depth, meter != nullptr);
    }
  }
}

void MbTree::Insert(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("mbtree.insert");
  // A metered op must start from a fresh tree: otherwise RefreshDirty would
  // bill this transaction for nodes staled by earlier unmetered mutations.
  if (meter != nullptr) EnsureFresh();
  InsertStructural(key, value_hash, meter);
  if (meter != nullptr) RefreshDirty(meter, ChargeMode::kInsert);
}

bool MbTree::Update(Key key, const Hash& value_hash, gas::Meter* meter) {
  TELEMETRY_SPAN("mbtree.update");
  if (height_ == 0) return false;
  std::vector<uint32_t> path;
  const uint32_t leaf = DescendToLeaf(key, &path);
  ads::Entry* entries = leaves_.items(leaf);
  ads::Entry* end = entries + leaves_.head(leaf).count;
  ads::Entry* pos = std::lower_bound(
      entries, end, key, [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos == end || pos->key != key) return false;
  if (meter != nullptr) EnsureFresh();
  if (pos->value_hash != value_hash) {
    pos->value_hash = value_hash;
    if (Hash* digests = EntryDigests(leaf)) digests[pos - entries] = kStaleSentinel;
  }
  if (meter != nullptr) meter->ChargeSupdate(1);  // rewrite the leaf entry word
  for (size_t depth = 0; depth < path.size(); ++depth) {
    head(path[depth], IsLeaf(depth)).digest = kStaleSentinel;
  }
  if (meter != nullptr) RefreshDirty(meter, ChargeMode::kUpdate);
  return true;
}

void MbTree::Update(Key key, const Hash& value_hash) {
  if (!Update(key, value_hash, nullptr)) {
    throw std::invalid_argument("MbTree::Update: unknown key");
  }
}

void MbTree::BulkInsert(const ads::EntryList& sorted_entries, gas::Meter* meter) {
  TELEMETRY_SPAN("mbtree.bulk_insert");
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    if (sorted_entries[i - 1].key >= sorted_entries[i].key) {
      throw std::invalid_argument("BulkInsert run must be sorted and duplicate-free");
    }
  }
  if (meter != nullptr) EnsureFresh();
  for (const ads::Entry& e : sorted_entries) {
    InsertStructural(e.key, e.value_hash, meter);
  }
  if (height_ == 0) return;
  if (meter != nullptr) RefreshDirty(meter, ChargeMode::kInsert);
}

void MbTree::EnsureFresh() const {
  if (height_ == 0) return;
  std::lock_guard<std::mutex> lock(fresh_mutex_);
  if (head(root_, IsLeaf(0)).digest != kStaleSentinel) return;
  MbTree* self = const_cast<MbTree*>(this);
  self->RefreshDirty(nullptr, ChargeMode::kInsert);
}

ads::TreeVo MbTree::RangeQuery(Key lb, Key ub, ads::EntryList* result) const {
  ads::TreeVo vo;
  if (height_ == 0) {
    vo.empty_tree = true;
    return vo;
  }
  EnsureFresh();
  QueryNode(root_, 0, lb, ub, result, &vo.elements);
  return vo;
}

ads::RangeAnswer MbTree::Query(Key lb, Key ub) const {
  ads::RangeAnswer answer;
  ads::TreeAnswer& tree = answer.trees.emplace_back();
  tree.label = kRootLabel;
  tree.vo = RangeQuery(lb, ub, &tree.result);
  return answer;
}

void MbTree::QueryNode(uint32_t id, size_t depth, Key lb, Key ub,
                       ads::EntryList* result,
                       std::vector<ads::VoElement>* out) const {
  const bool leaf = IsLeaf(depth);
  const Head& node = head(id, leaf);
  if (!Overlaps(node.lo, node.hi, lb, ub)) {
    out->push_back(ads::VoElement::Pruned(node.lo, node.hi, node.content));
    return;
  }
  out->push_back(ads::VoElement::Node(node.count));
  if (leaf) {
    const ads::Entry* entries = leaves_.items(id);
    for (uint32_t i = 0; i < node.count; ++i) {
      const ads::Entry& e = entries[i];
      if (e.key >= lb && e.key <= ub) {
        out->push_back(ads::VoElement::Result(e.key));
        if (result != nullptr) result->push_back(e);
      } else {
        out->push_back(ads::VoElement::Boundary(e.key, e.value_hash));
      }
    }
  } else {
    const uint32_t* children = inners_.items(id);
    for (uint32_t i = 0; i < node.count; ++i) {
      QueryNode(children[i], depth + 1, lb, ub, result, out);
    }
  }
}

void MbTree::CollectEntries(uint32_t id, size_t depth, ads::EntryList* out) const {
  if (IsLeaf(depth)) {
    const ads::Entry* entries = leaves_.items(id);
    out->insert(out->end(), entries, entries + leaves_.head(id).count);
    return;
  }
  const uint32_t* children = inners_.items(id);
  for (uint32_t i = 0; i < inners_.head(id).count; ++i) {
    CollectEntries(children[i], depth + 1, out);
  }
}

ads::EntryList MbTree::AllEntries() const {
  ads::EntryList all;
  all.reserve(size_);
  if (height_ != 0) CollectEntries(root_, 0, &all);
  return all;
}

void MbTree::CheckNode(uint32_t id, size_t depth) const {
  const bool leaf = IsLeaf(depth);
  const Head& node = head(id, leaf);
  const size_t occ = node.count;
  const size_t min_occ = depth == 0 ? (leaf ? 1 : 2)
                                    : static_cast<size_t>((fanout_ + 1) / 2);
  if (occ < min_occ || occ > static_cast<size_t>(fanout_)) {
    throw std::logic_error("MB-tree node occupancy out of bounds");
  }
  std::vector<Hash> digests;
  if (leaf) {
    const ads::Entry* entries = leaves_.items(id);
    for (size_t i = 1; i < occ; ++i) {
      if (entries[i - 1].key >= entries[i].key) {
        throw std::logic_error("leaf entries not strictly sorted");
      }
    }
    if (node.lo != entries[0].key || node.hi != entries[occ - 1].key) {
      throw std::logic_error("leaf boundaries inconsistent");
    }
    const Hash* slots = EntryDigests(id);
    for (size_t i = 0; i < occ; ++i) {
      digests.push_back(crypto::EntryDigest(entries[i].key, entries[i].value_hash));
      if (slots != nullptr && slots[i] != kStaleSentinel && slots[i] != digests.back()) {
        throw std::logic_error("entry digest slot stale");
      }
    }
  } else {
    const uint32_t* children = inners_.items(id);
    const bool leaf_children = IsLeaf(depth + 1);
    for (size_t i = 0; i < occ; ++i) {
      const Head& c = head(children[i], leaf_children);
      if (i > 0 && head(children[i - 1], leaf_children).hi >= c.lo) {
        throw std::logic_error("child ranges overlap or out of order");
      }
      CheckNode(children[i], depth + 1);
      digests.push_back(c.digest);
    }
    if (node.lo != head(children[0], leaf_children).lo ||
        node.hi != head(children[occ - 1], leaf_children).hi) {
      throw std::logic_error("internal boundaries inconsistent");
    }
  }
  // Digest must be fresh and correct.
  Hash content = crypto::ContentDigest(digests);
  if (node.content != content ||
      node.digest != crypto::WrapDigest(node.lo, node.hi, content)) {
    throw std::logic_error("node digest stale or incorrect");
  }
}

void MbTree::CheckInvariants() const {
  if (height_ == 0) {
    if (size_ != 0) throw std::logic_error("size mismatch for empty tree");
    return;
  }
  EnsureFresh();
  CheckNode(root_, 0);
  if (AllEntries().size() != size_) throw std::logic_error("size mismatch");
}

}  // namespace gem2::mbtree
