/// \file query_engine.h
/// Concurrent service-provider query engine: many authenticated range
/// queries execute in parallel against a consistent snapshot of the SP's
/// ADS state, while data-owner writes serialize against them.
///
/// Concurrency model (see docs/PERFORMANCE.md):
///   - a std::shared_mutex guards the wrapped RangeStore. Queries take
///     it shared — any number run at once, each seeing the same committed
///     root digests; Insert/Update/Delete take it exclusive;
///   - every committed write advances an epoch counter. A response produced
///     under shared lock is consistent as of one epoch: the VO it carries
///     verifies against exactly the chain digests of that epoch;
///   - each query runs on the thread that asked for it (a server worker);
///     parallelism comes from concurrent callers;
///   - on-chain (metered) execution stays single-threaded: the exclusive
///     lock means the contract never runs concurrently with anything.
#ifndef GEM2_CORE_QUERY_ENGINE_H_
#define GEM2_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <shared_mutex>
#include <vector>

#include "core/range_store.h"

namespace gem2::core {

class SpQueryEngine {
 public:
  /// Wraps any RangeStore backend — single-contract AuthenticatedDb or
  /// sharded ShardedDb — `db` is not owned and must outlive the engine.
  explicit SpQueryEngine(RangeStore* db) : db_(db) {}

  SpQueryEngine(const SpQueryEngine&) = delete;
  SpQueryEngine& operator=(const SpQueryEngine&) = delete;

  // --- Data-owner interface (exclusive lock) -----------------------------

  chain::TxReceipt Insert(const Object& object);
  chain::TxReceipt Update(const Object& object);
  chain::TxReceipt Delete(Key key);
  chain::TxReceipt InsertBatch(const std::vector<Object>& objects);

  // --- Service-provider interface (shared lock) --------------------------

  /// One typed spec query against the current snapshot: every conjunct
  /// answers under the same shared-lock acquisition, so the whole spec is
  /// consistent as of one epoch.
  SpecResponse ExecuteSpec(const QuerySpec& spec) const;

  /// ExecuteSpec + wire serialization under one shared-lock acquisition.
  /// Every query entry point counts in sp_engine.queries.
  Bytes SpecWire(const QuerySpec& spec) const;

  /// As SpecWire, but appends to `*out` (bit-identical bytes): the serving
  /// front-end's no-copy path — the reactor encodes a frame header, then the
  /// worker serializes the response image directly behind it.
  void SpecWireInto(const QuerySpec& spec, Bytes* out) const;

  // --- Client interface (exclusive: verification advances the light client)

  VerifiedSpecResult VerifySpecFor(const QuerySpec& spec,
                                   const SpecResponse& response);

  // --- Introspection ------------------------------------------------------

  /// Number of committed writes so far. Monotonic; two queries returning the
  /// same epoch answered from the same snapshot.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  RangeStore& db() { return *db_; }
  const RangeStore& db() const { return *db_; }

 private:
  template <typename Fn>
  chain::TxReceipt Write(const char* span_name, Fn&& fn);

  /// One answered query: bumps sp_engine.queries and records its latency
  /// since `start_ns` in sp_engine.query_ns.
  static void CountQuery(uint64_t start_ns);

  RangeStore* db_;
  mutable std::shared_mutex mutex_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace gem2::core

#endif  // GEM2_CORE_QUERY_ENGINE_H_
