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
///
/// Nodes live in append-only arrays, one for leaves and one for internal
/// nodes, allocated kChunkNodes nodes at a time with room for `fanout`
/// entries (or child indices) per node, so no node is its own allocation and
/// growth never copies a node. A child is addressed by its index; whether it
/// is a leaf follows from its depth, since all leaves sit at one depth. A
/// metered refresh keeps each entry's digest in a slot beside the entry and
/// reuses it while the entry's (key, value hash) is unchanged; the slots of a
/// chunk are allocated at its first metered refresh, so the unmetered SP
/// mirror never holds any. Gas is unaffected: the charge is issued whether or
/// not the Keccak runs.
#ifndef GEM2_MBTREE_MBTREE_H_
#define GEM2_MBTREE_MBTREE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "ads/entry.h"
#include "ads/interface.h"
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
  size_t height() const { return height_; }

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

  /// Nodes per allocation of either node array.
  static constexpr size_t kChunkNodes = 256;

  /// What every node keeps besides its payload. A leaf's payload is its
  /// entries, an internal node's the indices of its children.
  struct Head {
    Key lo = 0;
    Key hi = 0;
    Hash content{};
    Hash digest{};
    uint32_t count = 0;
  };

  /// Append-only storage of one node kind: chunks of kChunkNodes heads plus
  /// `capacity` payload slots per node. Adding a node never moves another.
  template <typename Item>
  class Arena {
   public:
    explicit Arena(size_t capacity) : capacity_(capacity) {}

    uint32_t Add() {
      if (size_ % kChunkNodes == 0) {
        chunks_.push_back({std::make_unique<Head[]>(kChunkNodes),
                           std::make_unique<Item[]>(kChunkNodes * capacity_)});
      }
      return static_cast<uint32_t>(size_++);
    }
    Head& head(uint32_t id) const {
      return chunks_[id / kChunkNodes].heads[id % kChunkNodes];
    }
    Item* items(uint32_t id) const {
      return chunks_[id / kChunkNodes].items.get() + (id % kChunkNodes) * capacity_;
    }

   private:
    struct Chunk {
      std::unique_ptr<Head[]> heads;
      std::unique_ptr<Item[]> items;
    };
    size_t capacity_;
    size_t size_ = 0;
    std::vector<Chunk> chunks_;
  };

  bool IsLeaf(size_t depth) const { return depth + 1 == height_; }
  Head& head(uint32_t id, bool leaf) const {
    return leaf ? leaves_.head(id) : inners_.head(id);
  }

  /// The entry-digest slots of `leaf`, or nullptr while its chunk has none.
  /// A zero slot is empty; any other holds the digest of the entry beside it.
  Hash* EntryDigests(uint32_t leaf) const;
  /// As EntryDigests, allocating the chunk's slots (all empty) if needed.
  Hash* EnsureEntryDigests(uint32_t leaf);

  /// Descends to the leaf responsible for `key`, recording the path of node
  /// indices (root..leaf; the node at depth d is a leaf iff IsLeaf(d)).
  /// Descent sloads are folded into the per-node refresh charges, matching
  /// the paper's formulas.
  uint32_t DescendToLeaf(Key key, std::vector<uint32_t>* path) const;

  /// Inserts `entry` at `pos` of `leaf`, moving its digest slots along. A
  /// full leaf splits, and the new right sibling is returned; its gas is
  /// charged when the sibling is refreshed.
  std::optional<uint32_t> InsertIntoLeaf(uint32_t leaf, size_t pos,
                                         const ads::Entry& entry);

  /// As InsertIntoLeaf for child `child` at `pos` of internal node `node`,
  /// whose children are leaves iff `leaf_children`.
  std::optional<uint32_t> InsertIntoInner(uint32_t node, size_t pos, uint32_t child,
                                          bool leaf_children);

  /// Structural insert without digest maintenance; marks every node whose
  /// digest became stale with the stale sentinel.
  void InsertStructural(Key key, const Hash& value_hash, gas::Meter* meter);

  /// Recomputes content/digest/lo/hi of exactly the stale nodes. Pass 1
  /// (ChargeStale) walks them in post-order, issuing each node's maintenance
  /// and hash charges for `mode` when metered, and buckets them by depth;
  /// pass 2 hashes the buckets deepest first (HashLevelWindow).
  void RefreshDirty(gas::Meter* meter, ChargeMode mode);

  /// Pass 1 below node `id` (at `depth`): charges and boundaries, no hashing.
  void ChargeStale(uint32_t id, size_t depth, gas::Meter* meter, ChargeMode mode,
                   std::vector<std::vector<uint32_t>>* by_depth);

  /// Pass 2 for a window of stale nodes at `depth` whose children are fresh:
  /// entry digests (reusing filled slots, and filling empty ones, when
  /// `metered`), then content digests, then wrap digests, each as one batch.
  void HashLevelWindow(std::span<const uint32_t> window, size_t depth, bool metered);

  /// Materializes digests deferred by unmetered mutations. Unmetered inserts
  /// and bulks (the SP side) only mark paths stale; the fold runs once here,
  /// at the first digest observation, so back-to-back bulks between reads
  /// collapse into a single refresh of the union of their dirty nodes.
  /// Serialized by fresh_mutex_ (concurrent SP readers race only on the
  /// materialization).
  void EnsureFresh() const;

  /// Appends the preorder VO of node `id`'s subtree to `*out`.
  void QueryNode(uint32_t id, size_t depth, Key lb, Key ub, ads::EntryList* result,
                 std::vector<ads::VoElement>* out) const;

  void CollectEntries(uint32_t id, size_t depth, ads::EntryList* out) const;

  void CheckNode(uint32_t id, size_t depth) const;

  int fanout_;
  size_t size_ = 0;
  /// Levels of the tree: 0 when empty, 1 when the root is a leaf.
  size_t height_ = 0;
  uint32_t root_ = 0;
  Arena<ads::Entry> leaves_;
  Arena<uint32_t> inners_;
  /// Entry-digest slots per leaf chunk, `fanout` per leaf (see file comment).
  std::vector<std::unique_ptr<Hash[]>> entry_digests_;
  mutable std::mutex fresh_mutex_;
};

}  // namespace gem2::mbtree

#endif  // GEM2_MBTREE_MBTREE_H_
