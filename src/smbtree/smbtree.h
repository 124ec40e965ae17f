/// \file smbtree.h
/// The Suppressed Merkle B-tree baseline (paper Section IV-B).
///
/// On-chain (SmbTreeContract): objects are appended *unsorted* to contract
/// storage and no tree node is materialized — only the root digest slot. On
/// every insert or update the contract reloads all N object records, sorts
/// them in memory, recomputes the canonical tree digest on the fly, and
/// rewrites the root slot. Gas per insert therefore follows the paper's
///   C = N*(Csload + log2(N)*Cmem) + hash costs + Csstore + Csupdate
/// model. The (key, h(value)) record is accounted as one storage word per
/// object, matching the paper's N*Csload rebuild term.
///
/// SP-side (SmbTreeMirror): the same data fully materialized as a canonical
/// StaticTree (rebuilt lazily) to answer range queries with VOs.
#ifndef GEM2_SMBTREE_SMBTREE_H_
#define GEM2_SMBTREE_SMBTREE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ads/entry.h"
#include "ads/interface.h"
#include "ads/static_tree.h"
#include "ads/vo.h"
#include "gas/meter.h"

namespace gem2::smbtree {

class SmbTreeContract : public ads::AdsContract {
 public:
  explicit SmbTreeContract(std::string name, int fanout = 4);

  /// Appends a fresh object and recomputes the root on the fly.
  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) override;

  /// Replaces an existing object's value hash and recomputes the root.
  void Update(Key key, const Hash& value_hash, gas::Meter& meter) override;

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override;

  Hash root_digest() const { return root_; }
  size_t size() const { return log_.size(); }

  /// Bench/test helper: bulk-seeds the contract with `entries` (storage is
  /// written, the root rebuilt once) without metering, so per-insert gas can
  /// be sampled at a target database size in O(N) instead of O(N^2).
  void SeedUnmetered(const ads::EntryList& entries);

 private:
  /// Loads every record (1 sload each), sorts in memory, folds the canonical
  /// digest, and rewrites the root slot.
  void RebuildRoot(gas::Meter& meter);

  int fanout_;
  ads::EntryList log_;                       // insertion-ordered records
  std::unordered_map<Key, size_t> index_of_; // key -> log_ position
  Hash root_;
  /// Memoizes metered EntryDigest hashes across the per-insert rebuilds (gas
  /// is unaffected; see ads::LeafDigestCache).
  ads::LeafDigestCache leaf_cache_;
};

/// The SP's materialized twin of an SMB-tree: sorted entries + lazy canonical
/// tree for authenticated range queries.
class SmbTreeMirror : public ads::AdsMirror {
 public:
  explicit SmbTreeMirror(int fanout = 4);

  void Insert(Key key, const Hash& value_hash) override;

  /// Value update. When the tree is already materialized this patches only
  /// the leaf-to-root path (StaticTree::UpdateValueHash) instead of
  /// discarding the cache and rebuilding all N nodes on the next query.
  void Update(Key key, const Hash& value_hash) override;

  size_t size() const { return entries_.size(); }
  Hash root_digest() const;

  /// Range query over the materialized tree.
  ads::TreeVo RangeQuery(Key lb, Key ub, ads::EntryList* result) const;

  /// RangeQuery as the one tree the contract commits.
  ads::RangeAnswer Query(Key lb, Key ub) const override;
  std::vector<chain::DigestEntry> Digests() const override;

 private:
  /// Lazily materializes the canonical tree. Thread-safe: concurrent readers
  /// (SP query threads holding the engine's shared lock) race only on the
  /// first materialization, built outside cache_mutex_ so no reader waits
  /// behind a build; the first to publish wins. Mutations happen under the
  /// engine's exclusive lock and never run concurrently with this.
  const ads::StaticTree& Tree() const;

  int fanout_;
  ads::EntryList entries_;  // kept sorted by key
  mutable std::mutex cache_mutex_;
  mutable std::unique_ptr<ads::StaticTree> cache_;
};

}  // namespace gem2::smbtree

#endif  // GEM2_SMBTREE_SMBTREE_H_
