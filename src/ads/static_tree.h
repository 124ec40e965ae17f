/// \file static_tree.h
/// The canonical F-ary Merkle tree over a *sorted* run of entries.
///
/// Both sides of the system build this exact shape over an SMB-tree's data:
/// the smart contract computes only the root digest on the fly (suppressed
/// structure, Section IV-B), while the service provider materializes the tree
/// to answer range queries with VOs (Fig. 4, right side). The shape is fully
/// determined by (sorted entries, fanout): leaves are consecutive chunks of
/// `fanout` entries, upper levels chunk `fanout` nodes, so the two sides agree
/// on every digest bit-for-bit.
#ifndef GEM2_ADS_STATIC_TREE_H_
#define GEM2_ADS_STATIC_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ads/entry.h"
#include "ads/vo.h"
#include "common/types.h"
#include "gas/meter.h"

namespace gem2::ads {

/// One level of a canonical tree, column by column: node i spans
/// [lo[i], hi[i]], its digest is H(lo || hi || content[i]), and its children
/// are chunk i of the level below: positions [i * F, min((i + 1) * F, size)).
struct TreeLevel {
  std::vector<Key> lo;
  std::vector<Key> hi;
  std::vector<Hash> content;
  std::vector<Hash> digest;
};

class StaticTree {
 public:
  /// `entries` must be sorted by key with unique keys; `fanout` >= 2. Each
  /// level is hashed by the same level-batched fold CanonicalRootDigest
  /// runs, so the two agree on every digest bit-for-bit.
  StaticTree(EntryList entries, int fanout);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  int fanout() const { return fanout_; }

  /// Root digest; EmptyTreeDigest() when empty.
  const Hash& root_digest() const { return root_digest_; }

  /// Key boundaries of the whole tree (valid only when non-empty).
  Key lo() const;
  Key hi() const;

  /// Range query: appends matches to `result` and returns the VO.
  TreeVo RangeQuery(Key lb, Key ub, EntryList* result) const;

  /// Replaces the value hash of an existing key and rehashes only the
  /// leaf-to-root path (O(fanout * log_F n) hash calls instead of the O(n)
  /// full rebuild). Returns false (tree unchanged) when `key` is absent.
  /// The updated tree is bit-identical to a fresh build over the modified
  /// entry list — parallel_equivalence_test asserts this invariant.
  bool UpdateValueHash(Key key, const Hash& value_hash);

  const EntryList& entries() const { return entries_; }

 private:
  /// Appends the preorder VO of node `index` of `level` to `*out`.
  void QueryNode(size_t level, size_t index, Key lb, Key ub, EntryList* result,
                 std::vector<VoElement>* out) const;
  /// Number of children below `level`: entries for level 0, else the nodes
  /// of the level underneath.
  size_t ChildTotal(size_t level) const;
  /// Rehashes the content and digest of one node from its children (scalar;
  /// the leaf-to-root patch of UpdateValueHash).
  void Rehash(size_t level, size_t index);

  EntryList entries_;
  int fanout_;
  // levels_[0] = leaf nodes over entries_, levels_.back() = { root }.
  std::vector<TreeLevel> levels_;
  Hash root_digest_;
};

/// Memo for EntryDigest(key, value_hash) computations across repeated
/// CanonicalRootDigest calls. In the GEM2 merge cascades the same entries are
/// re-hashed every time their partition is rebuilt; since EntryDigest is a
/// pure function of (key, value_hash), the simulator can reuse the digest —
/// the *gas charge* for the hash is still applied in full by the caller, so
/// metered results stay bit-identical with or without a cache.
///
/// Open-addressing with linear probing: the lookup sits on the hot fold path
/// (one per entry per rebuild) and a node-based map's pointer chase was
/// measurably slower than the probe over this flat array. An owner that
/// knows some keys can never be rebuilt again (GEM2 objects bulked into P0)
/// erases them, so the memo holds only keys a later rebuild can still read.
class LeafDigestCache {
 public:
  LeafDigestCache() : slots_(kInitialCapacity) {}

  /// out[i] receives the entry digest of entries[i] (a duplicate-free run).
  /// A key whose cached value hash matches is a hit and runs no Keccak; a
  /// miss (new key, or changed value hash) is memoized, and misses are hashed
  /// 8 at a time (keccak_batch.h). Gas is the caller's concern.
  void GetBatch(std::span<const Entry> entries, Hash* out);

  /// Forgets the memo of each entry's key (value hashes are ignored; absent
  /// keys are skipped). Backward-shift deletion keeps every remaining key's
  /// probe run unbroken, so no tombstones accumulate. Capacity is unchanged.
  void Erase(std::span<const Entry> entries);

  /// The slot a probe for `key` starts at in a table of `capacity` slots (a
  /// power of two); tests use it to build colliding probe runs.
  static size_t HomeSlot(Key key, size_t capacity);

  size_t size() const { return used_; }
  /// Slot count of the table (grows by doubling at 3/4 load).
  size_t capacity() const { return slots_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static constexpr size_t kInitialCapacity = 1024;  // power of two

  struct Slot {
    Key key = 0;
    bool occupied = false;
    Hash value_hash{};
    Hash digest{};
  };

  Slot& FindSlot(Key key);
  void Grow();

  std::vector<Slot> slots_;
  size_t used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Computes the StaticTree root digest of a sorted run without materializing
/// the tree — this is what the smart contract executes when it rebuilds a
/// suppressed SMB-tree. When `meter` is non-null, every hash invocation is
/// charged (Chash = 30 + 6*words) exactly as the metered computation performs
/// it. Sorting and storage loads are charged by the caller. A non-null
/// `cache` memoizes per-entry digests across calls (gas is unaffected; the
/// charge is applied whether or not the Keccak actually runs).
Hash CanonicalRootDigest(std::span<const Entry> sorted, int fanout,
                         gas::Meter* meter = nullptr,
                         LeafDigestCache* cache = nullptr);

/// Issues exactly the ChargeHash sequence that CanonicalRootDigest(sorted,
/// fanout, &meter) issues for an n-entry run, without hashing anything: the
/// charges depend only on n and the fanout, never on keys or digests. A
/// contract that defers the root itself (GEM2 partition rebuilds) charges
/// through this at the transaction, so gas and out-of-gas abort points stay
/// those of the eager computation.
void ChargeCanonicalRootDigest(size_t n, int fanout, gas::Meter& meter);

}  // namespace gem2::ads

#endif  // GEM2_ADS_STATIC_TREE_H_
