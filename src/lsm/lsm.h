/// \file lsm.h
/// The LSM-tree comparator the paper evaluates against (Sections V-D, VII).
///
/// On-chain (LsmTreeContract): a multilevel structure with *materialized,
/// sorted* runs in contract storage — exactly the properties Section V-D
/// identifies as fatal under the gas model:
///   - inserts keep level 0 sorted in place (shifting records costs one
///     supdate per shifted word),
///   - when a level overflows it is merge-sorted into the next level, writing
///     the merged run to fresh slots (sstores) and discarding the old runs
///     (zero-stores, charged as supdates),
///   - every affected level's Merkle root is recomputed and rewritten.
/// Merge cost grows linearly with level size, so large merges blow past the
/// block gasLimit — reproducing the paper's observation that the LSM-tree
/// cannot support more than ~10^4 objects.
///
/// One deviation, documented in DESIGN.md: updates are applied in place in
/// the level holding the key (instead of appending duplicate-key records), so
/// authenticated-query semantics stay uniform across all ADSs. The
/// gas-relevant behaviours (sorted lists, materialized merges) are untouched.
///
/// SP-side (LsmMirror): materialized levels with lazy canonical trees; a
/// range query fans out over every level.
#ifndef GEM2_LSM_LSM_H_
#define GEM2_LSM_LSM_H_

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

namespace gem2::lsm {

struct LsmOptions {
  /// Capacity of level 0; level i holds up to `level0_capacity << i` entries.
  uint64_t level0_capacity = 8;
  int fanout = 4;
};

class LsmTreeContract : public ads::AdsContract {
 public:
  explicit LsmTreeContract(std::string name, LsmOptions options = {});

  void Insert(Key key, const Hash& value_hash, gas::Meter& meter) override;
  void Update(Key key, const Hash& value_hash, gas::Meter& meter) override;

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override;

  size_t size() const { return size_; }
  size_t num_levels() const { return levels_.size(); }
  const ads::EntryList& level(size_t i) const { return levels_[i].entries; }
  Hash level_root(size_t i) const { return levels_[i].root; }
  const LsmOptions& options() const { return options_; }

 private:
  struct Level {
    ads::EntryList entries;  // sorted
    Hash root;
  };

  uint64_t Capacity(size_t level) const { return options_.level0_capacity << level; }

  /// Merge-sorts level `i` into level `i+1`, charging the storage writes, and
  /// cascades further overflows.
  void MergeDown(size_t i, gas::Meter& meter);

  /// Recomputes and rewrites level i's root digest (loads + hashes + write).
  void RefreshRoot(size_t i, gas::Meter& meter);

  LsmOptions options_;
  std::vector<Level> levels_;
  std::unordered_map<Key, size_t> level_of_;  // key -> level index
  size_t size_ = 0;
  /// Memoizes metered EntryDigest hashes across merge cascades (gas is
  /// unaffected; see ads::LeafDigestCache).
  ads::LeafDigestCache leaf_cache_;
};

/// SP-side materialized levels for authenticated queries.
class LsmMirror : public ads::AdsMirror {
 public:
  explicit LsmMirror(LsmOptions options = {});

  void Insert(Key key, const Hash& value_hash) override;
  void Update(Key key, const Hash& value_hash) override;

  size_t num_levels() const { return levels_.size(); }
  size_t size() const { return size_; }

  /// Root digest of level i (must agree with the contract's).
  Hash level_root(size_t i) const;

  /// Range query against level i.
  ads::TreeVo RangeQuery(size_t i, Key lb, Key ub, ads::EntryList* result) const;

  /// RangeQuery against every level, each labelled as the contract commits
  /// it ("lsm.L<i>").
  ads::RangeAnswer Query(Key lb, Key ub) const override;
  std::vector<chain::DigestEntry> Digests() const override;

 private:
  struct Level {
    ads::EntryList entries;  // sorted
    mutable std::unique_ptr<ads::StaticTree> cache;

    const ads::StaticTree& Tree(int fanout) const;
  };

  /// Lazy level materialization, serialized so concurrent query threads do
  /// not race on the cache pointer (mutations run under the query engine's
  /// exclusive lock and never overlap with readers).
  const ads::StaticTree& MaterializedTree(size_t i) const;

  void MergeDown(size_t i);

  LsmOptions options_;
  std::vector<Level> levels_;
  std::unordered_map<Key, size_t> level_of_;
  mutable std::mutex cache_mutex_;
  size_t size_ = 0;
};

}  // namespace gem2::lsm

#endif  // GEM2_LSM_LSM_H_
