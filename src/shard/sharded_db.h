/// \file sharded_db.h
/// Range-partitioned multi-contract RangeStore: the keyspace is split at S-1
/// partition bounds into S shards, each an unmodified AuthenticatedDb whose
/// ADS contract registers in ONE shared chain::Environment — every shard
/// digest lives under the same state commitment, so one block header anchors
/// the whole deployment (see docs/SHARDING.md).
///
/// Semantics:
///   - shard i owns keys k with upper_bound(bounds, k) == i, i.e.
///     [bounds[i-1], bounds[i] - 1] (shard 0 from kKeyMin, the last shard to
///     kKeyMax). Writes route to the owning shard and run the contract
///     algorithms unchanged, so per-shard gas is bit-identical to an
///     unsharded db holding the same keys;
///   - a range query [lb, ub] scatters across the overlapping shards, each
///     answering its clamped sub-range; the sub-responses gather into a
///     composite QueryResponse (QueryResponse::slices, kind-tagged on the
///     wire);
///   - the client re-derives the scatter plan from its own copy of the
///     partition bounds (static deployment config) and accepts a composite
///     only if the slices match it exactly — shard indices, order, and
///     sub-ranges, which abut seam-to-seam (slice i's ub + 1 == slice i+1's
///     lb). A dropped, duplicated, reordered, or seam-shifted slice is
///     therefore rejected before any VO is even checked; each surviving
///     slice then verifies like a normal single response against that
///     shard's on-chain digests.
#ifndef GEM2_SHARD_SHARDED_DB_H_
#define GEM2_SHARD_SHARDED_DB_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "telemetry/metrics.h"

namespace gem2::shard {

struct ShardOptions {
  /// Per-shard ADS configuration: kind, GEM2/LSM parameters, GEM2* split
  /// points, and the environment options for the single shared chain.
  /// `base.contract_name` and `base.shared_env` are managed by ShardedDb and
  /// must be left at their defaults.
  core::DbOptions base;
  /// Partition bounds: strictly ascending keys, one fewer than the shard
  /// count (empty = one shard). workload::WorkloadGenerator::ShardBounds
  /// derives load-balancing bounds from the expected key distribution.
  std::vector<Key> bounds;
  /// Host chain for every shard contract. nullptr (default): the sharded db
  /// constructs and owns its own Environment from base.env. Non-null: shard
  /// contracts register in the caller's environment (which must outlive the
  /// db) — this is how a multi-attribute deployment keeps several sharded
  /// attribute indexes under ONE state commitment.
  chain::Environment* shared_env = nullptr;
  /// Prefix shard contract names are formed from ("<prefix><i>"). The
  /// default keeps the historical "shard0", "shard1", ... names; a
  /// multi-attribute deployment namespaces per attribute ("attr2.shard0").
  std::string contract_prefix = "shard";

  size_t num_shards() const { return bounds.size() + 1; }

  /// Rejects malformed configurations (unsorted bounds, a caller-supplied
  /// base.shared_env, an empty contract_prefix, nonsensical base options)
  /// with std::invalid_argument.
  void Validate() const;
};

class ShardedDb : public core::RangeStore {
 public:
  /// Contract name shard i registers under ("shard0", "shard1", ...).
  static std::string ShardContractName(size_t shard);

  explicit ShardedDb(ShardOptions options);
  ~ShardedDb() override;

  ShardedDb(const ShardedDb&) = delete;
  ShardedDb& operator=(const ShardedDb&) = delete;

  // --- Data-owner interface (routes to the owning shard) -------------------

  chain::TxReceipt Insert(const Object& object) override;
  chain::TxReceipt Update(const Object& object) override;
  chain::TxReceipt Delete(Key key) override;
  /// Splits the batch by owning shard and runs ONE transaction per shard
  /// touched (batches cannot span contracts). Returns the last receipt; a
  /// failing shard receipt returns immediately (that shard is poisoned).
  chain::TxReceipt InsertBatch(const std::vector<Object>& objects) override;

  bool Contains(Key key) const override;
  uint64_t size() const override;

  // --- Blockchain interface -------------------------------------------------

  chain::Environment& environment() override { return *env_; }

  /// One AuthenticatedState per shard contract, all at the same header.
  std::vector<chain::AuthenticatedState> ReadChainState() override;

  // --- Introspection --------------------------------------------------------

  const ShardOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  const std::vector<Key>& bounds() const { return options_.bounds; }
  /// Owning shard index of `key`.
  size_t ShardOf(Key key) const;
  core::AuthenticatedDb& shard(size_t i) { return *shards_[i]; }
  const core::AuthenticatedDb& shard(size_t i) const { return *shards_[i]; }

  bool poisoned() const override;
  std::string BackendName() const override;
  void CheckConsistency() const override;

 protected:
  // --- Per-attribute primitives (RangeStore seam) --------------------------

  /// Scatter-gather: every overlapping shard answers its clamped sub-range
  /// (in plan order on the calling thread), gathered into a composite
  /// response in ascending shard order. A sharded db partitions one indexed
  /// attribute, so only attr == 0 is valid.
  core::QueryResponse QueryPredicate(uint32_t attr, Key lb,
                                     Key ub) const override;

  /// Composite verification against already-retrieved chain state (one
  /// AuthenticatedState per shard contract, any order): checks the scatter
  /// plan against this client's partition bounds (slice count, shard ids,
  /// order, seam-abutting sub-ranges), then verifies each slice as a single
  /// response against its shard's digests, in plan order on the calling
  /// thread; the first failing slice is the error. Merged objects come back
  /// in ascending key order. Boundary mode (non-null `boundary`) verifies
  /// each slice's stripped VO in boundary mode and concatenates the proven
  /// in-range entries in plan order (sub-ranges ascend, so the merge stays
  /// key-ordered).
  core::VerifiedResult VerifyPredicateAgainst(
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const core::QueryResponse& response,
      std::vector<ads::Entry>* boundary) const override;

 private:
  /// One shard's clamped share of a query range.
  struct SubRange {
    size_t shard = 0;
    Key lb = 0;
    Key ub = 0;
  };

  /// The shards overlapping [lb, ub], each with its clamped sub-range;
  /// consecutive entries abut (plan[i].ub + 1 == plan[i+1].lb). Both the SP
  /// (scatter) and the client (plan check) derive this from the same bounds.
  std::vector<SubRange> ScatterPlan(Key lb, Key ub) const;

  /// Checks a composite's shape and scatter plan against this client's
  /// bounds. On acceptance fills `plan` (matching response.slices 1:1) and
  /// returns std::nullopt; otherwise returns the failed result.
  std::optional<core::VerifiedResult> CheckPlan(
      Key lb, Key ub, const core::QueryResponse& response,
      std::vector<SubRange>* plan) const;

  /// Folds one verified slice into the composite result (objects concatenate
  /// in slice order — sub-ranges ascend, so the merge stays key-ordered).
  static bool MergeSlice(core::VerifiedResult* total, size_t shard,
                         core::VerifiedResult&& slice_result);

  /// Contract name shard i registers under ("<prefix><i>").
  std::string ContractName(size_t shard) const;

  ShardOptions options_;
  std::unique_ptr<chain::Environment> owned_env_;  // null when env is shared
  chain::Environment* env_;                        // never null
  std::vector<std::unique_ptr<core::AuthenticatedDb>> shards_;
  /// Per-shard op/slice counters ("shard.writes.<i>", "shard.slices.<i>").
  mutable telemetry::IndexedCounters write_counters_;
  mutable telemetry::IndexedCounters slice_counters_;
  /// Per-shard slice latency ("shard.slice_ns.<i>"), the hotness signal for
  /// the ROADMAP's adaptive shard management: p50/p99/p999 per shard come
  /// from its reservoir.
  mutable telemetry::IndexedHistograms slice_latency_;
};

}  // namespace gem2::shard

#endif  // GEM2_SHARD_SHARDED_DB_H_
