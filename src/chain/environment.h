/// \file environment.h
/// The execution host tying contracts to the ledger. It meters each contract
/// invocation as one transaction (rolling back storage on out-of-gas), batches
/// transactions into blocks, commits contract digests into the block state
/// root, and serves authenticated state (VO_chain) with inclusion proofs.
///
/// Throughput machinery (all off-meter; gas is bit-identical either way, see
/// docs/PERFORMANCE.md "Simulator fast path"):
///   - the state commitment is maintained *incrementally*: one persistent
///     trie / Merkle tree absorbs only the digest entries that changed since
///     the last seal, instead of a from-scratch rebuild per block;
///   - block sealing is *pipelined*: the transaction-root computation, PoW
///     nonce search, and state-root hashing for block k run on the global
///     ThreadPool while transactions for block k+1 execute.
/// Set GEM2_STATE_CROSSCHECK=1 to re-derive every root from scratch and
/// compare (debug mode for the incremental path); contracts consult the same
/// flag through StateCrosscheckEnabled() for their own mirror checks.
#ifndef GEM2_CHAIN_ENVIRONMENT_H_
#define GEM2_CHAIN_ENVIRONMENT_H_

#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/blockchain.h"
#include "chain/contract.h"
#include "crypto/merkle.h"
#include "crypto/mpt.h"
#include "gas/meter.h"
#include "gas/schedule.h"
#include "telemetry/telemetry.h"

namespace gem2::chain {

/// True when GEM2_STATE_CROSSCHECK is set to anything but "" or "0".
bool StateCrosscheckEnabled();

/// How contract digests are committed into block headers.
enum class StateCommitment {
  /// Binary Merkle tree over (contract, label, digest) leaves.
  kBinaryMerkle,
  /// Ethereum-style Merkle Patricia Trie keyed by contract/label.
  kPatriciaTrie,
};

struct EnvironmentOptions {
  gas::Schedule schedule = gas::kEthereumSchedule;
  StateCommitment state_commitment = StateCommitment::kBinaryMerkle;
  gas::Gas gas_limit = gas::kDefaultGasLimit;
  /// Transactions accumulated before a block is sealed automatically.
  size_t txs_per_block = 16;
  /// PoW difficulty in leading zero bits (0 = trivial sealing, for benches).
  uint32_t difficulty_bits = 0;
  /// Flat intrinsic fee charged per transaction (Ethereum: 21,000). Defaults
  /// to 0 for parity with the paper's per-operation accounting; batching
  /// experiments enable it.
  gas::Gas tx_base_fee = 0;
  /// When true (and the telemetry tracer has at least one sink), every
  /// receipt carries the transaction's span tree in `TxReceipt::trace`.
  bool capture_tx_trace = false;
  /// Maintain the state commitment incrementally (default). Off = rebuild
  /// from scratch every time, the pre-overhaul behaviour; kept as a
  /// reference mode for the equivalence suite and bench comparisons.
  bool incremental_commitment = true;
  /// Overlap block k's seal (tx root, PoW, state-root hashing) with block
  /// k+1's transaction execution on the global ThreadPool. Automatically
  /// disabled when the pool has no workers (GEM2_THREADS=1) or telemetry
  /// tracing is active; the sealed chain is byte-identical either way.
  bool pipeline_sealing = true;
};

/// Outcome of one contract invocation.
struct TxReceipt {
  bool ok = true;
  gas::Gas gas_used = 0;
  gas::GasBreakdown breakdown;
  gas::OpCounts op_counts;
  std::string error;
  /// Span tree of this transaction (empty unless
  /// EnvironmentOptions::capture_tx_trace and telemetry are active). Spans
  /// appear in close order (children before their parent); the last record
  /// is the root "tx.<method>" span whose gas equals `gas_used`.
  std::vector<telemetry::SpanRecord> trace;
};

/// Authenticated digest together with its state-root inclusion proof.
/// Exactly one of the proof members is populated, matching the environment's
/// StateCommitment mode.
struct ProvenDigest {
  DigestEntry entry;
  crypto::MerkleProof proof;            // kBinaryMerkle
  crypto::PatriciaTrie::Proof mpt_proof;  // kPatriciaTrie
};

/// What a client retrieves from the blockchain for a contract: the digests,
/// their proofs, and the header they commit into.
struct AuthenticatedState {
  std::string contract;
  StateCommitment commitment = StateCommitment::kBinaryMerkle;
  std::vector<ProvenDigest> digests;
  BlockHeader header;
};

/// Counters for the incremental state commitment (bench introspection).
struct StateCommitStats {
  uint64_t root_computations = 0;  // total state-root requests
  uint64_t full_rebuilds = 0;      // computed from scratch
  uint64_t entries_seen = 0;       // digest entries scanned across requests
  uint64_t entries_updated = 0;    // entries actually (re)hashed into the
                                   // persistent structure
};

class Environment {
 public:
  explicit Environment(EnvironmentOptions options = {});
  ~Environment();

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
  /// the SAME sealed header (the first read seals; later reads observe an
  /// unchanged root). This is what a sharded client retrieves to verify a
  /// composite response — every shard digest under one state commitment.
  std::vector<AuthenticatedState> ReadAuthenticatedStates(
      const std::vector<std::string>& contract_names);

  /// Client-side check: header committed by the chain, proofs valid.
  static bool VerifyAuthenticatedState(const AuthenticatedState& state);

  /// State root over the registered contracts' current digests — what the
  /// next sealed block will commit. Unmetered introspection: the fault
  /// harness compares it across an aborted transaction to prove the rollback
  /// left no trace.
  Hash CurrentStateRoot() const { return ComputeStateRoot(); }

  /// Blocks until any in-flight pipelined seal has landed, then returns the
  /// chain. Every read goes through here so callers never observe a block
  /// mid-seal.
  const Blockchain& blockchain() const {
    DrainSeal();
    return blockchain_;
  }
  const EnvironmentOptions& options() const { return options_; }
  uint64_t total_gas_used() const { return total_gas_used_; }
  uint64_t num_transactions() const { return next_seq_; }
  const StateCommitStats& commit_stats() const { return commit_stats_; }

 private:
  /// One gathered digest entry; `contract` points at the contracts_ map key
  /// (stable for the environment's lifetime).
  struct StateEntry {
    const std::string* contract;
    std::string label;
    Hash digest{};
  };

  /// Digest view of every registered contract, in deterministic
  /// (contract name, ledger/entry order) order. Cheap relative to hashing:
  /// ledger-backed contracts answer without touching their ADS.
  std::vector<StateEntry> GatherStateEntries() const;

  static Hash StateLeaf(const std::string& contract, const DigestEntry& entry);
  static Hash StateLeafOf(const StateEntry& e);
  /// MPT key for one digest entry (kPatriciaTrie mode).
  static Bytes StateKey(const std::string& contract, const std::string& label);

  static crypto::PatriciaTrie TrieFromEntries(const std::vector<StateEntry>& cur);
  static std::vector<Hash> LeavesFromEntries(const std::vector<StateEntry>& cur);

  /// Computes the root for `cur`, updating the persistent commitment caches.
  /// Callers must hold the seal pipeline drained (or be the seal task).
  Hash ComputeStateRootFrom(const std::vector<StateEntry>& cur) const;
  /// Drains the pipeline, gathers, and computes.
  Hash ComputeStateRoot() const;

  /// Blocks until the in-flight seal (if any) finishes, helping the pool
  /// drain queues meanwhile; rethrows the seal's exception.
  void DrainSeal() const;
  bool PipelineActive(bool traced) const;

  EnvironmentOptions options_;
  Blockchain blockchain_;
  std::map<std::string, Contract*> contracts_;
  std::vector<Transaction> pending_;
  uint64_t next_seq_ = 0;
  uint64_t clock_ = 1;
  uint64_t total_gas_used_ = 0;
  bool crosscheck_ = false;  // GEM2_STATE_CROSSCHECK

  // --- incremental commitment caches (guarded by the seal pipeline: only
  // the in-flight seal task or a drained caller touches them) --------------
  mutable bool commit_valid_ = false;
  // kPatriciaTrie: persistent trie + applied (key -> digest) map. The MPT
  // supports no deletion, so a vanished label forces a rebuild; additions
  // and digest changes apply in place.
  mutable crypto::PatriciaTrie state_trie_;
  mutable std::unordered_map<std::string, Hash> trie_applied_;
  // kBinaryMerkle: persistent tree + the (contract, label, digest) layout it
  // was built over. Leaves are positional, so any layout change rebuilds;
  // digest-only changes patch via UpdateLeaf.
  mutable std::optional<crypto::BinaryMerkleTree> state_tree_;
  mutable std::vector<StateEntry> last_entries_;
  mutable StateCommitStats commit_stats_;

  // --- pipelined sealing ---------------------------------------------------
  mutable std::future<void> seal_future_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_ENVIRONMENT_H_
