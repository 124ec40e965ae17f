/// \file environment.h
/// The execution host tying contracts to the ledger. It meters each contract
/// invocation as one transaction (rolling back storage on out-of-gas), batches
/// transactions into blocks, commits contract digests into the block state
/// root, and serves authenticated state (VO_chain) with one leaf proof per
/// contract.
///
/// Everything runs on the caller's thread, in order: a block is sealed (tx
/// root, PoW, state-root hashing) before the next transaction executes. The
/// state root is a binary Merkle tree with one leaf per registered contract,
/// in name order; a leaf commits the contract's whole committed digest list
/// (see docs/PERFORMANCE.md "One state leaf per contract"). Every root is
/// recomputed from the contracts' digest ledgers; nothing is cached.
#ifndef GEM2_CHAIN_ENVIRONMENT_H_
#define GEM2_CHAIN_ENVIRONMENT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/contract.h"
#include "crypto/merkle.h"
#include "gas/meter.h"
#include "gas/schedule.h"

namespace gem2::chain {

struct EnvironmentOptions {
  gas::Schedule schedule = gas::kEthereumSchedule;
  gas::Gas gas_limit = gas::kDefaultGasLimit;
  /// Transactions accumulated before a block is sealed automatically.
  size_t txs_per_block = 16;
  /// PoW difficulty in leading zero bits (0 = trivial sealing, for benches).
  uint32_t difficulty_bits = 0;
  /// Flat intrinsic fee charged per transaction (Ethereum: 21,000). Defaults
  /// to 0 for parity with the paper's per-operation accounting; batching
  /// experiments enable it.
  gas::Gas tx_base_fee = 0;
};

/// Outcome of one contract invocation.
struct TxReceipt {
  /// The transaction's sequence number (its Transaction::seq) and the height
  /// of the block its batch seals into.
  uint64_t seq = 0;
  uint64_t height = 0;
  bool ok = true;
  gas::Gas gas_used = 0;
  gas::GasBreakdown breakdown;
  gas::OpCounts op_counts;
  std::string error;
};

/// What a client retrieves from the blockchain for a contract (VO_chain): the
/// contract's whole committed digest list in ledger order, the inclusion
/// proof of the one state leaf that commits it, and the header whose state
/// root the proof reaches. Dropping, adding, reordering or relabelling a
/// digest changes the leaf, so the list is exactly what the block committed.
struct AuthenticatedState {
  std::string contract;
  std::vector<DigestEntry> digests;
  crypto::MerkleProof proof;
  BlockHeader header;

  friend bool operator==(const AuthenticatedState&, const AuthenticatedState&) = default;
};

/// Counters for the state commitment (bench introspection).
struct StateCommitStats {
  uint64_t root_computations = 0;  // state roots computed
  uint64_t entries_updated = 0;    // contract leaves hashed
};

class Environment {
 public:
  explicit Environment(EnvironmentOptions options = {});

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Registers a contract (non-owning; the caller keeps it alive).
  void Register(Contract* contract);

  /// Runs `body` against `contract` as a metered transaction. On
  /// gas::OutOfGasError the storage is rolled back and the receipt reports
  /// failure; any other exception propagates after rollback.
  TxReceipt Execute(Contract& contract, const std::string& method,
                    const std::function<void(gas::Meter&)>& body);

  /// Seals pending transactions (if any) plus the current state commitment
  /// into a new block. Called automatically every `txs_per_block` executes.
  void SealBlock();

  /// Seals any pending transactions so the latest header reflects the current
  /// contract state; then returns digests + proofs for `contract_name`.
  AuthenticatedState ReadAuthenticatedState(const std::string& contract_name);

  /// Multi-contract read: one AuthenticatedState per name, all anchored at
  /// the SAME sealed header. The state root is computed once, however many
  /// names are read, and each state's proof comes from that one tree. This
  /// is what a sharded client retrieves to verify a composite response —
  /// every shard digest under one state commitment. Throws
  /// std::invalid_argument for an unregistered name.
  std::vector<AuthenticatedState> ReadAuthenticatedStates(
      const std::vector<std::string>& contract_names);

  /// Client-side check: the leaf recomputed from the contract name and its
  /// full digest list reaches the header's state root, and the header
  /// carries valid PoW.
  [[nodiscard]] static bool VerifyAuthenticatedState(const AuthenticatedState& state);

  /// State root over the registered contracts' current digests — what the
  /// next sealed block will commit. Unmetered introspection: the fault
  /// harness compares it across an aborted transaction to prove the rollback
  /// left no trace.
  Hash CurrentStateRoot() const { return ComputeStateRoot(); }

  const Blockchain& blockchain() const { return blockchain_; }
  const EnvironmentOptions& options() const { return options_; }
  uint64_t total_gas_used() const { return total_gas_used_; }
  uint64_t num_transactions() const { return next_seq_; }
  const StateCommitStats& commit_stats() const { return commit_stats_; }

 private:
  /// Keccak(len‖contract ‖ u32 n ‖ (len‖label ‖ digest) × n), lengths as
  /// big-endian u32: the contract's one leaf in the state tree.
  static Hash StateLeaf(const std::string& contract,
                        const std::vector<DigestEntry>& digests);

  /// Every registered contract's leaf, in name order, from its committed
  /// digests (appended to `*digests` when non-null); counts one root
  /// computation.
  std::vector<Hash> StateLeaves(
      std::vector<std::vector<DigestEntry>>* digests = nullptr) const;

  Hash ComputeStateRoot() const;

  /// Appends the pending batch as a block committing `*state_root`, or the
  /// current state root computed inside the block.seal span when null.
  void SealWith(const Hash* state_root);

  EnvironmentOptions options_;
  Blockchain blockchain_;
  std::map<std::string, Contract*> contracts_;
  std::vector<Transaction> pending_;  // the unsealed batch; its buffer is reused
  uint64_t next_seq_ = 0;
  uint64_t clock_ = 1;
  uint64_t total_gas_used_ = 0;
  mutable StateCommitStats commit_stats_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_ENVIRONMENT_H_
