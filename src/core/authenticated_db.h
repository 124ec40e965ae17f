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
///   - the service provider (SP), which stores the raw objects, each once in
///     a packed value store (core/value_store.h), and answers range queries
///     with verification objects (VO_sp);
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
#include <vector>

#include "ads/interface.h"
#include "ads/verify.h"
#include "chain/environment.h"
#include "core/journal.h"
#include "core/range_store.h"
#include "core/response.h"
#include "core/value_store.h"
#include "gem2/options.h"
#include "lsm/lsm.h"

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
  /// Where every committed op is recorded (must outlive the db): appended
  /// here before it is acknowledged; a failed append fails the operation
  /// closed (std::runtime_error) because an op the log never saw could not
  /// be recovered after a crash. store::DurableJournal writes it to disk; a
  /// core::Journal keeps it in memory (to ship or to replay). nullptr: the
  /// db records no op stream at all.
  JournalSink* journal_sink = nullptr;

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
  uint64_t size() const override { return values_.size(); }

  // --- Blockchain interface ------------------------------------------------

  chain::Environment& environment() override { return *env_; }

  /// VO_chain for this db's single contract (a one-element vector).
  std::vector<chain::AuthenticatedState> ReadChainState() override;

  // --- Introspection -------------------------------------------------------

  const DbOptions& options() const { return options_; }
  /// True once a transaction ran out of gas (db no longer usable).
  bool poisoned() const override { return poisoned_; }

  std::string BackendName() const override { return AdsKindName(options_.kind); }

  /// The contract's committed digests: what VO_chain carries for it.
  std::vector<chain::DigestEntry> ChainDigests() const;

  /// Rebuilds a database by replaying a journal against fresh chain and SP
  /// state — the SP recovery path. The journal is what a sink recorded
  /// (DbOptions::journal_sink). `options.journal_sink` is attached only
  /// after the last replayed op, so it sees new ops alone: passing the
  /// journal the replayed ops came from (or the durable journal they were
  /// recovered from) resumes it. The result's digests match the source's
  /// bit-for-bit (reconstruction is deterministic); any journal corruption
  /// shows up as a digest mismatch or a replay error.
  static std::unique_ptr<AuthenticatedDb> Replay(DbOptions options,
                                                 const Journal& journal);

  /// Cross-checks the contract and its SP mirror (tests): the contract's
  /// digests must equal the mirror's and both sides' structural invariants
  /// must hold.
  void CheckConsistency() const override;

 protected:
  // --- Per-attribute primitives (RangeStore seam) --------------------------

  /// Runs the range query on the SP's materialized ADS, returning the result
  /// objects and VO_sp (Algorithms 5 / 7). Always a single response. This
  /// db indexes one attribute (the key), so only attr == 0 is valid.
  QueryResponse QueryPredicate(uint32_t attr, Key lb, Key ub) const override;

  /// Client-side verification of one conjunct (Algorithms 6 / 8) against
  /// already-retrieved chain state (header assumed validated): pins the
  /// range the client asked for, takes this db's contract's state from
  /// `states` (a store that owns this db passes every state it read), checks
  /// its state leaf proof, then every tree's soundness and completeness.
  /// Boundary mode (non-null `boundary`) verifies an aggregate answer's
  /// stripped VO and collects the proven in-range entries.
  VerifiedResult VerifyPredicateAgainst(
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const QueryResponse& response,
      std::vector<ads::Entry>* boundary) const override;

 private:
  /// Hands a committed op to the journal sink, when one is attached; throws
  /// std::runtime_error on a failed append.
  void RecordOp(JournalEntry::Op op, const Object& object);

  DbOptions options_;
  std::unique_ptr<chain::Environment> owned_env_;  // null when env is shared
  chain::Environment* env_;                        // never null
  /// The chosen kind's contract (registered in env_) and its SP twin.
  std::unique_ptr<ads::AdsContract> contract_;
  std::unique_ptr<ads::AdsMirror> mirror_;
  /// SP raw-object store: every key ever inserted, deleted keys tombstoned
  /// (their query answers carry TombstoneValue()).
  PackedValueStore values_;
  bool poisoned_ = false;
};

/// Client-side verification given an already-retrieved authenticated state
/// whose header the caller has validated (RangeStore::VerifySpecFor requires
/// it to be its light client's tip); the state leaf's inclusion proof and
/// the header's PoW are checked here, and every tree in the state's digest
/// list that the range can reach must be answered. `vo_chain_bytes` counts
/// the digests and the proof, not the header. Exposed separately so tests
/// can feed tampered states/responses. Rejects composite (sharded)
/// responses: those verify through ShardedDb, which checks each slice with
/// this function.
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
                              AdsKind kind,
                              const QueryResponse& response,
                              std::vector<ads::Entry>* boundary = nullptr);

}  // namespace gem2::core

#endif  // GEM2_CORE_AUTHENTICATED_DB_H_
