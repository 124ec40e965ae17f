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

}  // namespace

// Stale nodes are marked by setting their digest to this sentinel; RefreshDirty
// recomputes exactly the marked nodes bottom-up. The all-zero word is not a
// reachable Keccak-256 output for any input we hash.
static const Hash kStaleSentinel{};

MbTree::MbTree(int fanout) : fanout_(fanout) {
  if (fanout_ < 3) throw std::invalid_argument("MB-tree fanout must be >= 3");
}

size_t MbTree::height() const {
  size_t h = 0;
  const Node* n = root_.get();
  while (n != nullptr) {
    ++h;
    n = n->is_leaf ? nullptr : n->children.front().get();
  }
  return h;
}

Hash MbTree::root_digest() const {
  if (root_ == nullptr) return crypto::EmptyTreeDigest();
  EnsureFresh();
  return root_->digest;
}

Key MbTree::lo() const {
  if (root_ == nullptr) throw std::logic_error("empty tree has no boundaries");
  return root_->lo;
}

Key MbTree::hi() const {
  if (root_ == nullptr) throw std::logic_error("empty tree has no boundaries");
  return root_->hi;
}

bool MbTree::Contains(Key key) const {
  const Node* n = root_.get();
  if (n == nullptr) return false;
  while (!n->is_leaf) {
    size_t idx = n->children.size() - 1;
    for (size_t i = 1; i < n->children.size(); ++i) {
      if (key < n->children[i]->lo) {
        idx = i - 1;
        break;
      }
    }
    n = n->children[idx].get();
  }
  for (const ads::Entry& e : n->entries) {
    if (e.key == key) return true;
  }
  return false;
}

MbTree::Node* MbTree::DescendToLeaf(Key key, std::vector<Node*>* path) const {
  Node* n = root_.get();
  while (n != nullptr) {
    if (path != nullptr) path->push_back(n);
    if (n->is_leaf) return n;
    size_t idx = n->children.size() - 1;
    for (size_t i = 1; i < n->children.size(); ++i) {
      if (key < n->children[i]->lo) {
        idx = i - 1;
        break;
      }
    }
    n = n->children[idx].get();
  }
  return nullptr;
}

std::unique_ptr<MbTree::Node> MbTree::SplitNode(Node* node) {
  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    size_t keep = (node->entries.size() + 1) / 2;
    sibling->entries.assign(node->entries.begin() + keep, node->entries.end());
    node->entries.resize(keep);
    sibling->lo = sibling->entries.front().key;
    sibling->hi = sibling->entries.back().key;
    node->hi = node->entries.back().key;
  } else {
    size_t keep = (node->children.size() + 1) / 2;
    sibling->children.reserve(node->children.size() - keep);
    for (size_t i = keep; i < node->children.size(); ++i) {
      sibling->children.push_back(std::move(node->children[i]));
    }
    node->children.resize(keep);
    sibling->lo = sibling->children.front()->lo;
    sibling->hi = sibling->children.back()->hi;
    node->hi = node->children.back()->hi;
  }
  // Boundaries are maintained eagerly so that routing of subsequent
  // structural inserts (BulkInsert defers digest refreshes) stays correct.
  sibling->digest = kStaleSentinel;
  node->digest = kStaleSentinel;
  return sibling;
}

void MbTree::InsertStructural(Key key, const Hash& value_hash, gas::Meter* meter) {
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>();
    root_->is_leaf = true;
    root_->entries.push_back({key, value_hash});
    root_->lo = root_->hi = key;
    root_->digest = kStaleSentinel;
    if (meter != nullptr) meter->ChargeSstore(1);
    ++size_;
    return;
  }

  std::vector<Node*> path;
  Node* leaf = DescendToLeaf(key, &path);

  auto pos = std::lower_bound(leaf->entries.begin(), leaf->entries.end(), key,
                              [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos != leaf->entries.end() && pos->key == key) {
    throw std::invalid_argument("MbTree::Insert: key already present");
  }
  leaf->entries.insert(pos, {key, value_hash});
  leaf->lo = leaf->entries.front().key;
  leaf->hi = leaf->entries.back().key;
  if (meter != nullptr) meter->ChargeSstore(1);
  ++size_;
  for (Node* n : path) n->digest = kStaleSentinel;

  // Resolve overflows bottom-up.
  for (size_t level = path.size(); level-- > 0;) {
    Node* node = path[level];
    if (node->Occupancy() <= static_cast<size_t>(fanout_)) break;
    std::unique_ptr<Node> sibling = SplitNode(node);
    if (level == 0) {
      // Root split: grow a new root above.
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->digest = kStaleSentinel;
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(sibling));
      new_root->lo = new_root->children.front()->lo;
      new_root->hi = new_root->children.back()->hi;
      root_ = std::move(new_root);
      break;
    }
    Node* parent = path[level - 1];
    auto it = std::find_if(parent->children.begin(), parent->children.end(),
                           [&](const std::unique_ptr<Node>& c) { return c.get() == node; });
    parent->children.insert(it + 1, std::move(sibling));
    parent->digest = kStaleSentinel;
  }
}

void MbTree::ChargeStale(Node* node, size_t depth, gas::Meter* meter,
                         ChargeMode mode,
                         std::vector<std::vector<Node*>>* by_depth) {
  if (node->digest != kStaleSentinel) return;
  if (!node->is_leaf) {
    for (const auto& c : node->children) {
      ChargeStale(c.get(), depth + 1, meter, mode, by_depth);
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
    if (node->is_leaf) {
      for (size_t i = 0; i < node->entries.size(); ++i) {
        meter->ChargeHash(crypto::EntryDigestBytes());
      }
    }
    meter->ChargeHash(crypto::ContentDigestBytes(node->Occupancy()));
    meter->ChargeHash(crypto::WrapDigestBytes());
  }
  if (node->is_leaf) {
    node->lo = node->entries.front().key;
    node->hi = node->entries.back().key;
  } else {
    node->lo = node->children.front()->lo;
    node->hi = node->children.back()->hi;
  }
  if (by_depth->size() <= depth) by_depth->resize(depth + 1);
  (*by_depth)[depth].push_back(node);
}

void MbTree::HashLevelWindow(std::span<Node* const> window, bool metered) {
  crypto::Keccak256Batcher batcher;
  // Entry digests of the window's leaves, each leaf's run contiguous so it is
  // its own content preimage below.
  ads::EntryList entries;
  for (const Node* n : window) {
    if (n->is_leaf) entries.insert(entries.end(), n->entries.begin(), n->entries.end());
  }
  std::vector<Hash> digests(entries.size());
  if (metered) {
    leaf_cache_.GetBatch(entries, digests.data());
  } else {
    uint8_t msg[40];
    for (size_t i = 0; i < entries.size(); ++i) {
      crypto::EncodeEntryPreimage(entries[i].key, entries[i].value_hash, msg);
      batcher.Add(msg, sizeof(msg), &digests[i]);
    }
    batcher.Flush();
  }

  // Content digests. Content preimages wider than one sponge block
  // (fanout > 4) are hashed scalar inside the batcher.
  std::vector<const Hash*> parts;
  size_t offset = 0;
  for (Node* n : window) {
    if (n->is_leaf) {
      batcher.Add(digests[offset].data(), sizeof(Hash) * n->entries.size(),
                  &n->content);
      offset += n->entries.size();
    } else {
      parts.resize(n->children.size());
      for (size_t i = 0; i < n->children.size(); ++i) {
        parts[i] = &n->children[i]->digest;
      }
      batcher.AddConcat(parts.data(), parts.size(), &n->content);
    }
  }
  batcher.Flush();

  uint8_t msg[48];
  for (Node* n : window) {
    crypto::EncodeWrapPreimage(n->lo, n->hi, n->content, msg);
    batcher.Add(msg, sizeof(msg), &n->digest);
  }
  batcher.Flush();
}

void MbTree::RefreshDirty(gas::Meter* meter, ChargeMode mode) {
  std::vector<std::vector<Node*>> by_depth;
  ChargeStale(root_.get(), 0, meter, mode, &by_depth);
  // Every stale node's stale children sit one bucket deeper, so hashing the
  // buckets deepest first reads only fresh child digests.
  for (size_t depth = by_depth.size(); depth-- > 0;) {
    const std::vector<Node*>& level = by_depth[depth];
    for (size_t begin = 0; begin < level.size(); begin += kRefreshWindow) {
      const size_t count = std::min(kRefreshWindow, level.size() - begin);
      HashLevelWindow({level.data() + begin, count}, meter != nullptr);
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
  if (root_ == nullptr) return false;
  std::vector<Node*> path;
  Node* leaf = DescendToLeaf(key, &path);
  auto pos = std::lower_bound(leaf->entries.begin(), leaf->entries.end(), key,
                              [](const ads::Entry& e, Key k) { return e.key < k; });
  if (pos == leaf->entries.end() || pos->key != key) return false;
  if (meter != nullptr) EnsureFresh();
  pos->value_hash = value_hash;
  if (meter != nullptr) meter->ChargeSupdate(1);  // rewrite the leaf entry word
  for (Node* n : path) n->digest = kStaleSentinel;
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
  if (root_ == nullptr) return;
  if (meter != nullptr) RefreshDirty(meter, ChargeMode::kInsert);
}

void MbTree::EnsureFresh() const {
  if (root_ == nullptr) return;
  std::lock_guard<std::mutex> lock(fresh_mutex_);
  if (root_->digest != kStaleSentinel) return;
  MbTree* self = const_cast<MbTree*>(this);
  self->RefreshDirty(nullptr, ChargeMode::kInsert);
}

ads::TreeVo MbTree::RangeQuery(Key lb, Key ub, ads::EntryList* result) const {
  ads::TreeVo vo;
  if (root_ == nullptr) {
    vo.empty_tree = true;
    return vo;
  }
  EnsureFresh();
  QueryNode(root_.get(), lb, ub, result, &vo.elements);
  return vo;
}

ads::RangeAnswer MbTree::Query(Key lb, Key ub) const {
  ads::RangeAnswer answer;
  ads::TreeAnswer& tree = answer.trees.emplace_back();
  tree.label = kRootLabel;
  tree.vo = RangeQuery(lb, ub, &tree.result);
  return answer;
}

void MbTree::QueryNode(const Node* node, Key lb, Key ub, ads::EntryList* result,
                       std::vector<ads::VoElement>* out) const {
  if (!Overlaps(node->lo, node->hi, lb, ub)) {
    out->push_back(ads::VoElement::Pruned(node->lo, node->hi, node->content));
    return;
  }
  if (node->is_leaf) {
    out->push_back(ads::VoElement::Node(static_cast<uint32_t>(node->entries.size())));
    for (const ads::Entry& e : node->entries) {
      if (e.key >= lb && e.key <= ub) {
        out->push_back(ads::VoElement::Result(e.key));
        if (result != nullptr) result->push_back(e);
      } else {
        out->push_back(ads::VoElement::Boundary(e.key, e.value_hash));
      }
    }
  } else {
    out->push_back(ads::VoElement::Node(static_cast<uint32_t>(node->children.size())));
    for (const auto& c : node->children) QueryNode(c.get(), lb, ub, result, out);
  }
}

ads::EntryList MbTree::AllEntries() const {
  ads::EntryList all;
  all.reserve(size_);
  struct Walker {
    ads::EntryList* out;
    void Walk(const Node* n) {
      if (n->is_leaf) {
        out->insert(out->end(), n->entries.begin(), n->entries.end());
      } else {
        for (const auto& c : n->children) Walk(c.get());
      }
    }
  } walker{&all};
  if (root_ != nullptr) walker.Walk(root_.get());
  return all;
}

void MbTree::CheckNode(const Node* node, bool is_root, size_t depth,
                       size_t expected_depth) const {
  const size_t occ = node->Occupancy();
  const size_t min_occ = is_root ? (node->is_leaf ? 1 : 2)
                                 : static_cast<size_t>((fanout_ + 1) / 2);
  if (occ < min_occ || occ > static_cast<size_t>(fanout_)) {
    throw std::logic_error("MB-tree node occupancy out of bounds");
  }
  if (node->is_leaf) {
    if (depth != expected_depth) throw std::logic_error("leaves at differing depths");
    for (size_t i = 1; i < node->entries.size(); ++i) {
      if (node->entries[i - 1].key >= node->entries[i].key) {
        throw std::logic_error("leaf entries not strictly sorted");
      }
    }
    if (node->lo != node->entries.front().key || node->hi != node->entries.back().key) {
      throw std::logic_error("leaf boundaries inconsistent");
    }
  } else {
    for (size_t i = 0; i < node->children.size(); ++i) {
      const Node* c = node->children[i].get();
      if (i > 0 && node->children[i - 1]->hi >= c->lo) {
        throw std::logic_error("child ranges overlap or out of order");
      }
      CheckNode(c, false, depth + 1, expected_depth);
    }
    if (node->lo != node->children.front()->lo ||
        node->hi != node->children.back()->hi) {
      throw std::logic_error("internal boundaries inconsistent");
    }
  }
  // Digest must be fresh and correct.
  std::vector<Hash> digests;
  if (node->is_leaf) {
    for (const ads::Entry& e : node->entries) {
      digests.push_back(crypto::EntryDigest(e.key, e.value_hash));
    }
  } else {
    for (const auto& c : node->children) digests.push_back(c->digest);
  }
  Hash content = crypto::ContentDigest(digests);
  if (node->content != content ||
      node->digest != crypto::WrapDigest(node->lo, node->hi, content)) {
    throw std::logic_error("node digest stale or incorrect");
  }
}

void MbTree::CheckInvariants() const {
  if (root_ == nullptr) {
    if (size_ != 0) throw std::logic_error("size mismatch for empty tree");
    return;
  }
  EnsureFresh();
  CheckNode(root_.get(), true, 1, height());
  if (AllEntries().size() != size_) throw std::logic_error("size mismatch");
}

}  // namespace gem2::mbtree
