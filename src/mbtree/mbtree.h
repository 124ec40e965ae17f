/// \file mbtree.h
/// Merkle B+-tree (paper Sections II-A and IV-A).
///
/// One implementation serves both sides of the system: the service provider
/// runs it unmetered, the smart contract runs the *same* structural algorithm
/// with a gas meter attached, so the two copies evolve identically and their
/// digests agree bit-for-bit.
///
/// Gas accounting implements the paper's MB-tree cost model (Section IV-A),
/// which is what its evaluation (Fig. 7/8) plots:
///
///   insert:  logF(N) * (2 Csstore + 2 Csupdate + (2F+1) Csload + Chash)
///            + Csstore
///   update:  logF(N) * (Csupdate + (F+1) Csload + Chash) + Csupdate
///
/// realized operationally as: every node whose digest is refreshed by an
/// insert-path charges (2F+1) sloads + 2 sstores + 2 supdates (the node is
/// re-read, rewritten, and split space is maintained — the paper's per-level
/// maintenance term), every node refreshed by an update-path charges (F+1)
/// sloads + 1 supdate (in-place hash refresh), the inserted object itself
/// charges 1 sstore, and every Keccak invocation actually performed is
/// charged at Chash = 30 + 6*words.
///
/// BulkInsert merges a sorted run with *batched* digest maintenance: dirty
/// nodes are collected during the structural pass and each is refreshed
/// exactly once, which realizes the paper's `Cbshare` saving for SMB-tree ->
/// MB-tree merges.
///
/// Refreshes charge first and hash second (RefreshDirty): the charges follow
/// the per-node post-order of the cost model, so every out-of-gas abort point
/// is fixed by it, and the Keccak work then runs level by level through the
/// 8-way batcher. Charges depend only on message sizes, so the split changes
/// wall-clock time and nothing else.
#ifndef GEM2_MBTREE_MBTREE_H_
#define GEM2_MBTREE_MBTREE_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ads/entry.h"
#include "ads/interface.h"
#include "ads/static_tree.h"
#include "ads/vo.h"
#include "common/types.h"
#include "gas/meter.h"

namespace gem2::mbtree {

/// The one digest an MB-tree commits and answers under.
inline constexpr const char* kRootLabel = "mbtree.root";

/// As an ads::AdsMirror, the SP twin of MbTreeContract (contract.h).
class MbTree : public ads::AdsMirror {
 public:
  static constexpr int kDefaultFanout = 4;

  explicit MbTree(int fanout = kDefaultFanout);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int fanout() const { return fanout_; }
  size_t height() const;

  /// Root digest (EmptyTreeDigest when empty).
  Hash root_digest() const;

  /// Key boundaries (valid only when non-empty).
  Key lo() const;
  Key hi() const;

  bool Contains(Key key) const;

  /// Inserts a fresh key. Throws std::invalid_argument if the key exists.
  /// `meter` null runs unmetered (the SP side).
  void Insert(Key key, const Hash& value_hash, gas::Meter* meter);
  void Insert(Key key, const Hash& value_hash) override {
    Insert(key, value_hash, nullptr);
  }

  /// Replaces the value hash of an existing key; returns false when absent
  /// (nothing is charged in that case beyond the descent).
  bool Update(Key key, const Hash& value_hash, gas::Meter* meter);
  /// Unmetered update; throws std::invalid_argument for an unknown key.
  void Update(Key key, const Hash& value_hash) override;

  /// Merges a sorted, duplicate-free run of fresh keys (batched digest
  /// maintenance — see file comment).
  void BulkInsert(const ads::EntryList& sorted_entries, gas::Meter* meter = nullptr);

  /// Range query: appends matches to `result`, returns the VO.
  ads::TreeVo RangeQuery(Key lb, Key ub, ads::EntryList* result) const;

  /// RangeQuery as the one tree labelled kRootLabel.
  ads::RangeAnswer Query(Key lb, Key ub) const override;
  std::vector<chain::DigestEntry> Digests() const override {
    return {{kRootLabel, root_digest()}};
  }

  /// In-order dump of all entries (tests / SP bootstrap).
  ads::EntryList AllEntries() const;

  /// Structural self-check; throws std::logic_error on violation.
  void CheckInvariants() const override;

 private:
  /// Which per-node maintenance charge a refresh applies (see file comment).
  enum class ChargeMode { kInsert, kUpdate };

  struct Node {
    bool is_leaf = true;
    std::vector<ads::Entry> entries;                // leaf payload
    std::vector<std::unique_ptr<Node>> children;    // internal payload
    Key lo = 0;
    Key hi = 0;
    Hash content{};
    Hash digest{};

    size_t Occupancy() const { return is_leaf ? entries.size() : children.size(); }
  };

  /// Descends to the leaf responsible for `key`, recording the path
  /// (root..leaf). Descent sloads are folded into the per-node refresh
  /// charges, matching the paper's formulas.
  Node* DescendToLeaf(Key key, std::vector<Node*>* path) const;

  /// Splits `node` (which overflowed) and returns the new right sibling.
  /// The split's gas is charged when the sibling is refreshed.
  std::unique_ptr<Node> SplitNode(Node* node);

  /// Structural insert without digest maintenance; marks every node whose
  /// digest became stale with the stale sentinel.
  void InsertStructural(Key key, const Hash& value_hash, gas::Meter* meter);

  /// Recomputes content/digest/lo/hi of exactly the stale nodes. Pass 1
  /// (ChargeStale) walks them in post-order, issuing each node's maintenance
  /// and hash charges for `mode` when metered, and buckets them by depth;
  /// pass 2 hashes the buckets deepest first (HashLevelWindow).
  void RefreshDirty(gas::Meter* meter, ChargeMode mode);

  /// Pass 1 below `node` (at `depth`): charges and boundaries, no hashing.
  void ChargeStale(Node* node, size_t depth, gas::Meter* meter, ChargeMode mode,
                   std::vector<std::vector<Node*>>* by_depth);

  /// Pass 2 for a window of same-depth stale nodes whose children are fresh:
  /// entry digests (through leaf_cache_ when `metered`), then content
  /// digests, then wrap digests, each as one batch.
  void HashLevelWindow(std::span<Node* const> window, bool metered);

  /// Materializes digests deferred by unmetered mutations. Unmetered inserts
  /// and bulks (the SP side) only mark paths stale; the fold runs once here,
  /// at the first digest observation, so back-to-back bulks between reads
  /// collapse into a single refresh of the union of their dirty nodes.
  /// Serialized by fresh_mutex_ (concurrent SP readers race only on the
  /// materialization).
  void EnsureFresh() const;

  /// Appends the preorder VO of `node`'s subtree to `*out`.
  void QueryNode(const Node* node, Key lb, Key ub, ads::EntryList* result,
                 std::vector<ads::VoElement>* out) const;

  void CheckNode(const Node* node, bool is_root, size_t depth,
                 size_t expected_depth) const;

  int fanout_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;
  mutable std::mutex fresh_mutex_;
  /// Memoizes metered EntryDigest hashes: a leaf refresh re-hashes all F
  /// entries even when one changed. Consulted only on metered refreshes, so
  /// the SP mirror (which refreshes whole subtrees once, in EnsureFresh)
  /// never pays for a table sized to the tree. Gas is unaffected: the charge
  /// is issued whether or not the Keccak runs.
  ads::LeafDigestCache leaf_cache_;
};

}  // namespace gem2::mbtree

#endif  // GEM2_MBTREE_MBTREE_H_
