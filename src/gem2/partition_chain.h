/// \file partition_chain.h
/// The exponential chain of structure-suppressed SMB-tree partitions that is
/// the core of the GEM2-tree (paper Section V, Algorithms 1-4).
///
/// A chain owns the append-only key log (`key_storage`), the key->location
/// map (`key_map`), the value-hash store (`value_storage`) and the partition
/// index (`part_table`). Partition P_max receives new objects in SMB-trees of
/// size M; full partitions merge gracefully downward into exponentially larger
/// SMB-trees; once the largest partition reaches Smax its objects are
/// bulk-inserted into the fully-structured MB-tree P0 (owned by the caller —
/// the GEM2*-tree shares a single P0 across many chains).
///
/// One object serves both sides of the system: with a gas meter and a metered
/// storage attached it *is* the smart-contract state machine (every storage
/// word the algorithms touch is charged per Table I); with neither it is the
/// service provider's mirror, which additionally materializes each partition
/// tree lazily (as a canonical StaticTree) to answer range queries.
///
/// Neither side hashes a partition root when it rebuilds the tree. The SP
/// derives it at the next query or digest read. The contract charges the
/// rebuild in full at the transaction (sloads, sort, every hash of the
/// canonical root computation, in the eager order) and writes a placeholder
/// into the root slot; its DigestLedger entry owns a copy of the tree's run
/// and computes the root, and fills in the slot, when the block seal or a
/// reader first observes it. Gas, state roots and VOs are those of eager
/// hashing; only roots that a later transaction supersedes before the seal
/// are never hashed.
///
/// Both sides keep in-memory mirrors of key_storage and value_storage for
/// rebuilds to read, but only for locations still in a partition (above the
/// bulked-to-P0 prefix): once an object migrates into P0 no partition reads
/// it again, so BulkToP0 trims its mirror slots and the contract's memoized
/// entry digests. Storage itself keeps every word.
#ifndef GEM2_GEM2_PARTITION_CHAIN_H_
#define GEM2_GEM2_PARTITION_CHAIN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ads/entry.h"
#include "ads/query.h"
#include "ads/static_tree.h"
#include "chain/contract.h"
#include "chain/storage.h"
#include "common/types.h"
#include "gas/meter.h"
#include "gem2/options.h"
#include "mbtree/mbtree.h"

namespace gem2::gem2tree {

class PartitionChain {
 public:
  /// `p0` receives bulk-inserted overflow (not owned). `storage` is the
  /// contract storage to meter against (nullptr on the SP side);
  /// `region_base` namespaces this chain's storage regions so several chains
  /// (GEM2*-tree regions) can share one contract storage.
  PartitionChain(Gem2Options options, mbtree::MbTree* p0,
                 chain::MeteredStorage* storage, uint32_t region_base);

  /// Algorithm 1: insert a fresh key.
  void Insert(Key key, const Hash& value_hash, gas::Meter* meter);

  /// Algorithm 3: update the value of an existing key (which may live in a
  /// partition SMB-tree or have migrated into P0).
  void Update(Key key, const Hash& value_hash, gas::Meter* meter);

  /// Algorithm 4: partition index for a storage location (0 = P0). Charges
  /// one sload (P_max's range) plus in-memory arithmetic when metered.
  int LocatePartition(Loc loc, gas::Meter* meter) const;

  /// Unmetered: the contract side asks its key_map storage, the SP its mirror.
  bool ContainsKey(Key key) const;

  /// Appends one DigestEntry per non-empty partition tree, labelled
  /// "<prefix>P<i>.Tl" / "...Tr" (the part_table side of VO_chain).
  void AppendDigests(const std::string& prefix,
                     std::vector<chain::DigestEntry>* out) const;

  /// Contract side only: mirrors every part_table root write into `ledger`
  /// (not owned), so the environment can snapshot committed digests without
  /// walking the ADS. Entry order is `order_base + 2*partition + (Tl ? 0:1)`,
  /// which reproduces AppendDigests' ascending (partition, Tl, Tr) order;
  /// labels are "<label_prefix>P<i>.Tl"/".Tr". A tree whose occupancy drops
  /// to zero erases its entry, matching AppendDigests' non-empty filter.
  /// Required before the first metered write: rebuilt roots are recorded
  /// here as pending entries (see file comment).
  void AttachLedger(chain::DigestLedger* ledger, std::string label_prefix,
                    uint64_t order_base);

  /// Algorithm 5 (partition part): queries every non-empty partition tree.
  void Query(Key lb, Key ub, const std::string& prefix,
             std::vector<ads::TreeAnswer>* out) const;

  uint64_t max_index() const { return max_; }
  /// Total objects ever inserted through this chain (key_storage length).
  uint64_t total_inserted() const { return count_; }
  /// Objects currently indexed by partition SMB-trees (rest are in P0).
  uint64_t partition_size() const;
  /// Objects this chain has bulk-inserted into P0 so far.
  uint64_t bulked_to_p0() const { return bulked_; }

  const Gem2Options& options() const { return options_; }

  /// What a contract's part_table root slot holds from a rebuild until the
  /// root's ledger entry is first observed.
  static const Word kPendingRoot;

  /// Test introspection.
  struct TreeInfo {
    Loc start = 0;  // 0 = tree absent
    Loc end = 0;
    Hash root{};
    uint64_t occupied = 0;
    /// Contract side: the part_table root slot as stored (kPendingRoot
    /// while the root is unobserved). Zero on the SP.
    Word stored_root{};
  };
  TreeInfo tree_info(uint64_t partition, bool left) const;
  /// Contract side: the entry-digest memo of deferred root computations. It
  /// holds partition keys only (BulkToP0 erases migrated ones); empty on the SP.
  const ads::LeafDigestCache& leaf_cache() const { return leaf_cache_; }

  /// Structural self-check: contiguous ranges, power-of-two tree sizes,
  /// on-the-fly roots matching stored roots (part_table slots may still hold
  /// kPendingRoot), LocatePartition consistency, and the partition mirrors
  /// against the key_map, key_storage and value_storage words (the SP's
  /// against its key index).
  void CheckInvariants() const;

 private:
  struct PartTree {
    Loc start = 0;
    Loc end = 0;
    /// The in-memory root is computed lazily on both sides: BuildTree only
    /// marks it dirty, and EnsureRoot derives it at the first observation
    /// point (digests, tree_info, invariant checks). Both fields are guarded
    /// by sp_mutex_ on the read side; mutation paths are exclusive already.
    /// (The contract's committed root lives in its ledger; see file comment.)
    mutable Hash root{};
    mutable bool root_dirty = false;
    mutable std::unique_ptr<ads::StaticTree> sp_cache;

    bool allocated() const { return start != 0; }
  };
  struct Partition {
    PartTree tl;
    PartTree tr;
  };

  /// Number of occupied locations in a tree's range.
  uint64_t Occupied(const PartTree& t) const;

  /// Collects the (key, value_hash) entries in [t.start, min(t.end, count)]
  /// from the mirrors, charging one sload per object when metered.
  ads::EntryList CollectEntries(const PartTree& t, gas::Meter* meter) const;

  /// CheckInvariants for one partition location: on the contract side the
  /// mirrors hold its key_storage and value_storage words and its key's
  /// key_map word is `loc`; on the SP the key index maps its key to `loc`.
  void CheckMirrors(Loc loc) const;

  /// BuildSMBTree: charges recomputing `t`'s root and rewriting its
  /// part_table hash slot; the root itself is deferred (see file comment).
  void BuildTree(uint64_t partition, PartTree* t, gas::Meter* meter);

  /// Algorithm 2. Returns whether the caller must increment `max`.
  bool Merge(uint64_t i, gas::Meter* meter);

  /// Zeroes a tree's part_table slots.
  void EmptyTree(uint64_t partition, PartTree* t, gas::Meter* meter);

  /// Bulk-inserts partition 1's objects into P0 (sorted run), then drops
  /// their mirror slots and memoized digests (see file comment).
  void BulkToP0(gas::Meter* meter);

  // Storage slots and ledger plumbing (no-ops without attached storage).
  chain::Slot KeyMapSlot(Key key) const;
  chain::Slot RootSlot(uint64_t partition, bool left) const;
  uint64_t LedgerOrder(uint64_t partition, bool left) const;
  std::string LedgerLabel(uint64_t partition, bool left) const;
  void WriteRange(uint64_t partition, bool left, Loc start, Loc end,
                  gas::Meter* meter);
  void WriteRoot(uint64_t partition, bool left, const Hash& root,
                 gas::Meter* meter);
  void ReadRange(uint64_t partition, bool left, gas::Meter* meter) const;

  /// Lazily materializes a partition tree for SP queries. Thread-safe for
  /// concurrent readers: the cache pointer is published under sp_mutex_, and
  /// the build happens outside the lock so no reader of another partition
  /// waits behind it. Losing a materialization race wastes one build but
  /// both trees are bit-identical.
  const ads::StaticTree& SpTree(const PartTree& t) const;

  /// SP side: computes `t.root` if BuildTree deferred it. The canonical
  /// computation runs under sp_mutex_ (it only reads the mirrors, never
  /// re-enters the chain); reuses an already-materialized sp_cache root when
  /// available. A lazily
  /// derived root is bit-identical to the eager one — it is a pure function
  /// of the tree's current sorted run.
  void EnsureRoot(const PartTree& t) const;

  Gem2Options options_;
  mbtree::MbTree* p0_;
  chain::MeteredStorage* storage_;
  uint32_t region_base_;
  mutable std::mutex sp_mutex_;  // guards every PartTree::sp_cache pointer
                                 // and lazy root/root_dirty reads

  chain::DigestLedger* ledger_ = nullptr;  // contract side; required with
                                           // metered storage (pending roots)
  std::string ledger_prefix_;
  uint64_t ledger_order_base_ = 0;
  /// Memoizes EntryDigest hashes across the ledger's deferred root
  /// computations, which all run under the ledger's mutex (gas charges are
  /// unaffected; see ads::LeafDigestCache). Keys bulked into P0 are erased.
  ads::LeafDigestCache leaf_cache_;

  uint64_t count_ = 0;   // key_storage length
  uint64_t bulked_ = 0;  // objects migrated into P0
  uint64_t max_ = 0;     // number of partitions
  std::vector<Partition> parts_;  // 1-based; parts_[0] unused
  /// key_storage mirror for the partition locations only: loc is at index
  /// loc-1-bulked_, and BulkToP0 trims the migrated prefix.
  std::vector<Key> key_by_loc_;
  /// value_storage mirror, indexed like key_by_loc_ so partition rebuilds
  /// read value hashes sequentially instead of probing by key. Updates of
  /// P0 objects skip it.
  std::vector<Hash> hash_by_loc_;
  /// key_map mirror, SP side only (the contract reads its key_map storage):
  /// an open-addressing table of 16-byte {key, loc} buckets, linear probing
  /// at no more than 7/8 load, as core::PackedValueStore's slot table. Loc 0
  /// marks an empty bucket (locations start at 1); keys are never removed,
  /// so there are no tombstones.
  class KeyIndex {
   public:
    /// The key's location, or 0 when it is absent.
    Loc Find(Key key) const;
    /// Adds an absent key.
    void Add(Key key, Loc loc);
    size_t size() const { return size_; }

   private:
    struct Bucket {
      Key key = 0;
      Loc loc = 0;
    };
    static_assert(sizeof(Bucket) == 16);
    void Grow();

    std::vector<Bucket> buckets_;
    int shift_ = 64;  // 64 - log2(capacity): home bucket = top bits of the hash
    size_t size_ = 0;
  };
  KeyIndex loc_by_key_;
};

}  // namespace gem2::gem2tree

#endif  // GEM2_GEM2_PARTITION_CHAIN_H_
