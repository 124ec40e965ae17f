/// \file authenticated_db.h
/// The single-contract RangeStore backend: a hybrid-storage blockchain
/// database with authenticated range queries (paper Fig. 1).
///
/// An AuthenticatedDb wires together all four parties of the system model:
///   - the data owner, whose Insert/Update calls are sent both to the smart
///     contract (as metered transactions on the simulated chain) and to the
///     off-chain service provider;
///   - the blockchain, which maintains the chosen ADS inside a contract and
///     commits its digests into every block;
///   - the service provider (SP), which stores the raw objects and answers
///     range queries with verification objects (VO_sp);
///   - the client, which checks soundness and completeness of each answer
///     against the on-chain digests (VO_chain).
///
/// The ADS is selectable: the paper's GEM2-tree and GEM2*-tree, the MB-tree
/// and SMB-tree baselines, and the LSM-tree comparator. For the sharded
/// multi-contract backend built on top of this class, see shard/sharded_db.h.
#ifndef GEM2_CORE_AUTHENTICATED_DB_H_
#define GEM2_CORE_AUTHENTICATED_DB_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ads/verify.h"
#include "chain/environment.h"
#include "chain/light_client.h"
#include "core/journal.h"
#include "core/range_store.h"
#include "core/response.h"
#include "gem2/engine.h"
#include "gem2/options.h"
#include "gem2star/gem2star.h"
#include "lsm/lsm.h"
#include "mbtree/contract.h"
#include "smbtree/smbtree.h"

namespace gem2::common {
class ThreadPool;
}

namespace gem2::core {

enum class AdsKind { kMbTree, kSmbTree, kLsm, kGem2, kGem2Star };

std::string AdsKindName(AdsKind kind);

struct DbOptions {
  AdsKind kind = AdsKind::kGem2;
  /// GEM2 / GEM2* parameters (also supplies the fanout for the baselines).
  gem2tree::Gem2Options gem2;
  /// GEM2*-tree upper-level split points (quantiles of the expected key
  /// distribution; see workload::WorkloadGenerator::SplitPoints).
  std::vector<Key> split_points;
  lsm::LsmOptions lsm;
  chain::EnvironmentOptions env;
  /// Name the ADS contract registers under in the environment (the label a
  /// client passes to Environment::ReadAuthenticatedState). A sharded
  /// deployment names each shard's contract distinctly ("shard0", ...).
  std::string contract_name = "ads";
  /// Host chain. nullptr (default): the db constructs and owns its own
  /// Environment from `env`. Non-null: the db registers its contract in the
  /// caller's environment (which must outlive the db) — this is how many
  /// shard contracts share one state commitment; `env` is then ignored.
  chain::Environment* shared_env = nullptr;
  /// Thread pool for SP-side (unmetered) tree materializations; nullptr =
  /// serial. Scoped overrides go through core::SpPoolScope.
  common::ThreadPool* sp_pool = nullptr;
  /// Durable mirror of the operation journal (must outlive the db). Every
  /// committed op is appended here before it is acknowledged; a failed append
  /// fails the operation closed (std::runtime_error) because an op the
  /// durable log never saw could not be recovered after a crash. nullptr
  /// keeps the journal in-memory only. See store::DurableJournal.
  JournalSink* journal_sink = nullptr;
  /// Client-side verification knobs (batched hashing, composite slice pool).
  ClientOptions client;

  /// Rejects nonsensical configurations with std::invalid_argument before
  /// any chain state exists: GEM2*-tree without split points, unsorted split
  /// points, zero fanout/m/smax, a zero gas limit or block size.
  void Validate() const;
};

class AuthenticatedDb : public RangeStore {
 public:
  /// Default contract name (DbOptions::contract_name).
  static constexpr const char* kContractName = "ads";

  /// Validates `options` (DbOptions::Validate) and builds the four-party
  /// system. Throws std::invalid_argument on a bad configuration.
  explicit AuthenticatedDb(DbOptions options = {});
  ~AuthenticatedDb() override;

  AuthenticatedDb(const AuthenticatedDb&) = delete;
  AuthenticatedDb& operator=(const AuthenticatedDb&) = delete;

  // --- Data-owner interface ---------------------------------------------

  /// Inserts a fresh object: one metered transaction on-chain plus the SP
  /// mirror update. Throws std::logic_error if a prior transaction ran out
  /// of gas (the contract is then unusable — see chain/storage.h).
  chain::TxReceipt Insert(const Object& object) override;

  /// Updates an existing object's value.
  chain::TxReceipt Update(const Object& object) override;

  /// Deletes a key (paper Section V-B): the object is replaced by a dummy
  /// tombstone value on-chain and at the SP; the client filters tombstones
  /// from verified results. Re-inserting a deleted key revives it.
  chain::TxReceipt Delete(Key key) override;

  /// Inserts many fresh objects in ONE transaction: a single intrinsic fee
  /// and one gasLimit budget (large batches can therefore abort where the
  /// same objects inserted one-by-one would not).
  chain::TxReceipt InsertBatch(const std::vector<Object>& objects) override;

  /// True when the key is present and not deleted.
  bool Contains(Key key) const override;
  /// Live (non-deleted) objects.
  uint64_t size() const override { return size_; }

  // --- Blockchain interface ------------------------------------------------

  chain::Environment& environment() override { return *env_; }

  /// VO_chain for this db's single contract (a one-element vector).
  std::vector<chain::AuthenticatedState> ReadChainState() override;

  // --- Introspection -------------------------------------------------------

  const DbOptions& options() const { return options_; }
  /// True once a transaction ran out of gas (db no longer usable).
  bool poisoned() const override { return poisoned_; }

  std::string BackendName() const override { return AdsKindName(options_.kind); }

  /// Digest labels the client would currently require for [lb, ub].
  std::vector<chain::DigestEntry> ChainDigests() const;

  /// Every successful data-owner operation, in order (see core/journal.h).
  const Journal& journal() const { return journal_; }

  /// Rebuilds a database by replaying a journal against fresh chain and SP
  /// state — the SP recovery path. The result's digests match the source's
  /// bit-for-bit (reconstruction is deterministic); any journal corruption
  /// shows up as a digest mismatch or a replay error.
  static std::unique_ptr<AuthenticatedDb> Replay(DbOptions options,
                                                 const Journal& journal);

  /// Cross-checks contract and SP mirrors (tests): digests must agree and
  /// structural invariants must hold.
  void CheckConsistency() const override;

 protected:
  // --- Per-attribute primitives (RangeStore seam) --------------------------

  /// Runs the range query on the SP's materialized ADS, returning the result
  /// objects and VO_sp (Algorithms 5 / 7). Always a single response. This
  /// db indexes one attribute (the key), so only attr == 0 is valid.
  QueryResponse QueryPredicate(uint32_t attr, Key lb, Key ub) const override;

  /// Full client-side verification of one conjunct (Algorithms 6 / 8):
  /// pins the range the client asked for, retrieves VO_chain from the
  /// blockchain (validating the chain, the state commitment, and the
  /// inclusion proofs), then checks every tree's soundness and
  /// completeness. Boundary mode (non-null `boundary`) verifies an aggregate
  /// answer's stripped VO and collects the proven in-range entries.
  VerifiedResult VerifyPredicateFor(uint32_t attr, Key lb, Key ub,
                                    const QueryResponse& response,
                                    std::vector<ads::VoEntry>* boundary) override;

  /// As VerifyPredicateFor against already-retrieved chain state (header
  /// assumed validated). Expects exactly one state, for this db's contract.
  VerifiedResult VerifyPredicateAgainst(
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const QueryResponse& response,
      std::vector<ads::VoEntry>* boundary) const override;

  /// Installs `pool` into the SP mirrors (parallel digest computation;
  /// digests are bit-identical to serial builds). The metered contract side
  /// never touches a pool. nullptr reverts to DbOptions::sp_pool.
  void ApplySpPool(common::ThreadPool* pool) override;

 private:
  struct Impl;

  /// How VO digests are recomputed (DbOptions::client.batched_hashing).
  ads::HashStrategy hash_strategy() const {
    return options_.client.batched_hashing ? ads::HashStrategy::kBatched
                                           : ads::HashStrategy::kSerial;
  }

  chain::Contract& contract();
  const chain::Contract& contract() const;

  /// Applies a successfully committed op to the SP-side mirror.
  void ApplyToSp(bool insert, Key key, const std::string& value, const Hash& vh);

  /// Records a committed op in the in-memory journal and the durable sink
  /// (when configured); throws std::runtime_error on a failed durable append.
  void RecordOp(JournalEntry entry);

  DbOptions options_;
  std::unique_ptr<chain::Environment> owned_env_;  // null when env is shared
  chain::Environment* env_;                        // never null
  std::unique_ptr<Impl> impl_;
  std::unordered_map<Key, std::string> sp_values_;  // SP raw-object store
  std::unordered_set<Key> deleted_;                 // tombstoned keys
  Journal journal_;                                 // successful ops, in order
  std::unique_ptr<chain::LightClient> light_client_;
  uint64_t size_ = 0;
  bool poisoned_ = false;
};

/// Client-side verification given an already-retrieved authenticated state.
/// Exposed separately so tests can feed tampered states/responses. Rejects
/// composite (sharded) responses: those verify through ShardedDb, which
/// checks each slice with this function. `strategy` selects how VO digests
/// are recomputed (ads::HashStrategy) — the decision and error string are
/// bit-identical either way, batched is just faster.
///
/// `boundary` non-null selects boundary mode (server-computed aggregates):
/// the response may ship only records no longer than a hash
/// (core::KeepsRecordInAggregate), every tree's VO is verified with
/// ads::VerifyTreeVoBoundary, and the proven in-range entries of all trees
/// are merged (duplicate keys across trees rejected) and appended to
/// `*boundary` in ascending key order. Tombstone filtering is the caller's
/// job there (core::AggregateBoundary) — the entries carry value hashes,
/// kept records hashed like the rest.
VerifiedResult VerifyResponse(const chain::AuthenticatedState& state,
                              bool chain_valid, AdsKind kind,
                              const QueryResponse& response,
                              ads::HashStrategy strategy = ads::HashStrategy::kBatched,
                              std::vector<ads::VoEntry>* boundary = nullptr);

}  // namespace gem2::core

#endif  // GEM2_CORE_AUTHENTICATED_DB_H_
