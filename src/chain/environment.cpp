#include "chain/environment.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "crypto/keccak.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace gem2::chain {

bool StateCrosscheckEnabled() {
  const char* v = std::getenv("GEM2_STATE_CROSSCHECK");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

Environment::Environment(EnvironmentOptions options)
    : options_(options),
      blockchain_(options.difficulty_bits),
      crosscheck_(StateCrosscheckEnabled()) {}

Environment::~Environment() {
  // A pipelined seal may still be in flight; land it so the task never
  // outlives the members it references. Sealing errors are lost here (a
  // destructor must not throw) — any caller who cares reads blockchain()
  // before destruction and gets the rethrow there.
  try {
    DrainSeal();
  } catch (...) {
  }
}

void Environment::Register(Contract* contract) {
  if (contract == nullptr) throw std::invalid_argument("null contract");
  auto [it, inserted] = contracts_.emplace(contract->name(), contract);
  if (!inserted) throw std::invalid_argument("duplicate contract " + contract->name());
}

TxReceipt Environment::Execute(Contract& contract, const std::string& method,
                               const std::function<void(gas::Meter&)>& body) {
  if (contracts_.find(contract.name()) == contracts_.end()) {
    throw std::logic_error("contract not registered: " + contract.name());
  }
  gas::Meter meter(options_.schedule, options_.gas_limit);
  TxReceipt receipt;
  Transaction tx;
  tx.seq = next_seq_++;
  tx.contract = contract.name();
  tx.method = method;

  // Telemetry: the transaction is the root span; every phase span opened by
  // the contract code nests under it and attributes gas against `meter`.
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  const bool traced = telemetry::kCompiledIn && tracer.enabled();
  const bool capture = traced && options_.capture_tx_trace;
  std::optional<telemetry::ScopedMeter> scoped_meter;
  std::optional<telemetry::MeterMetricsObserver> observer;
  if (traced) {
    scoped_meter.emplace(&meter);
    observer.emplace();
    meter.set_observer(&*observer);
    if (capture) tracer.BeginTxCapture();
  }

  // Ledger-backed contracts roll their digest view back transactionally, so
  // the common (successful) path copies nothing. Legacy contracts keep the
  // snapshot + freeze/thaw discipline: their in-memory structures cannot be
  // rolled back, and without the freeze an aborted transaction would leak
  // into the state root.
  DigestLedger* ledger = contract.digest_ledger();
  std::vector<DigestEntry> pre_tx_digests;
  if (ledger == nullptr) pre_tx_digests = contract.CommittedDigests();

  contract.storage().BeginTx();
  if (ledger != nullptr) ledger->BeginTx();
  {
    std::optional<telemetry::Span> root_span;
    if (traced) root_span.emplace("tx." + method);
    try {
      if (options_.tx_base_fee > 0) meter.ChargeIntrinsic(options_.tx_base_fee);
      body(meter);
      contract.storage().CommitTx();
      if (ledger != nullptr) {
        ledger->CommitTx();
      } else {
        contract.ThawDigests();
      }
    } catch (const gas::OutOfGasError& e) {
      contract.storage().RollbackTx();
      if (ledger != nullptr) {
        ledger->RollbackTx();
      } else {
        contract.FreezeDigests(std::move(pre_tx_digests));
      }
      receipt.ok = false;
      receipt.error = e.what();
    } catch (...) {
      contract.storage().RollbackTx();
      if (ledger != nullptr) {
        ledger->RollbackTx();
      } else {
        contract.FreezeDigests(std::move(pre_tx_digests));
      }
      throw;
    }
  }

  receipt.gas_used = meter.used();
  receipt.breakdown = meter.breakdown();
  receipt.op_counts = meter.op_counts();
  if (traced) {
    meter.set_observer(nullptr);
    if (capture) receipt.trace = tracer.EndTxCapture();
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("tx.count").Add(1);
    if (!receipt.ok) metrics.counter("tx.failed").Add(1);
    metrics.histogram("tx.gas").Observe(receipt.gas_used);
  }
  tx.gas_used = receipt.gas_used;
  tx.ok = receipt.ok;
  tx.error = receipt.error;
  total_gas_used_ += receipt.gas_used;

  pending_.push_back(std::move(tx));
  if (pending_.size() >= options_.txs_per_block) SealBlock();
  return receipt;
}

Bytes Environment::StateKey(const std::string& contract, const std::string& label) {
  Bytes key;
  AppendString(&key, contract);
  key.push_back(0);
  AppendString(&key, label);
  return key;
}

std::vector<Environment::StateEntry> Environment::GatherStateEntries() const {
  std::vector<StateEntry> entries;
  for (const auto& [name, contract] : contracts_) {
    for (DigestEntry& entry : contract->CommittedDigests()) {
      entries.push_back({&name, std::move(entry.label), entry.digest});
    }
  }
  return entries;
}

Hash Environment::StateLeaf(const std::string& contract, const DigestEntry& entry) {
  crypto::Keccak256Hasher h;
  h.Update(contract);
  h.Update(std::string(1, '\0'));
  h.Update(entry.label);
  h.Update(std::string(1, '\0'));
  h.Update(entry.digest);
  return h.Finalize();
}

Hash Environment::StateLeafOf(const StateEntry& e) {
  crypto::Keccak256Hasher h;
  h.Update(*e.contract);
  h.Update(std::string(1, '\0'));
  h.Update(e.label);
  h.Update(std::string(1, '\0'));
  h.Update(e.digest);
  return h.Finalize();
}

crypto::PatriciaTrie Environment::TrieFromEntries(const std::vector<StateEntry>& cur) {
  crypto::PatriciaTrie trie;
  for (const StateEntry& e : cur) {
    trie.Put(StateKey(*e.contract, e.label),
             Bytes(e.digest.begin(), e.digest.end()));
  }
  return trie;
}

std::vector<Hash> Environment::LeavesFromEntries(const std::vector<StateEntry>& cur) {
  std::vector<Hash> leaves;
  leaves.reserve(cur.size());
  for (const StateEntry& e : cur) leaves.push_back(StateLeafOf(e));
  return leaves;
}

namespace {

/// Mirrors the deltas one root computation adds to the per-environment
/// StateCommitStats into the process-wide metrics registry, so the
/// introspection surface sees commitment work without holding Environment
/// references (multiple environments simply aggregate).
class CommitStatsMirror {
 public:
  explicit CommitStatsMirror(const StateCommitStats& stats)
      : stats_(stats), before_(stats) {}

  ~CommitStatsMirror() {
    if constexpr (telemetry::kCompiledIn) {
      auto& registry = telemetry::MetricsRegistry::Global();
      static telemetry::Counter& roots =
          registry.counter("chain.commit.root_computations");
      static telemetry::Counter& rebuilds =
          registry.counter("chain.commit.full_rebuilds");
      static telemetry::Counter& seen =
          registry.counter("chain.commit.entries_seen");
      static telemetry::Counter& updated =
          registry.counter("chain.commit.entries_updated");
      roots.Add(stats_.root_computations - before_.root_computations);
      rebuilds.Add(stats_.full_rebuilds - before_.full_rebuilds);
      seen.Add(stats_.entries_seen - before_.entries_seen);
      updated.Add(stats_.entries_updated - before_.entries_updated);
    }
  }

 private:
  const StateCommitStats& stats_;
  StateCommitStats before_;
};

}  // namespace

Hash Environment::ComputeStateRootFrom(const std::vector<StateEntry>& cur) const {
  CommitStatsMirror mirror(commit_stats_);
  ++commit_stats_.root_computations;
  commit_stats_.entries_seen += cur.size();

  const bool mpt = options_.state_commitment == StateCommitment::kPatriciaTrie;

  if (!options_.incremental_commitment) {
    ++commit_stats_.full_rebuilds;
    commit_stats_.entries_updated += cur.size();
    commit_valid_ = false;
    if (mpt) return TrieFromEntries(cur).RootHash();
    return crypto::BinaryMerkleTree::RootOf(LeavesFromEntries(cur));
  }

  Hash root{};
  if (mpt) {
    // The MPT has no delete, so a vanished label forces a rebuild. A label
    // set is matched against what the persistent trie holds: every current
    // key found + equal cardinality means no key disappeared, and only the
    // digests that actually changed get re-inserted.
    bool rebuild = !commit_valid_;
    std::vector<std::pair<std::string, const StateEntry*>> changed;
    if (!rebuild) {
      size_t matched = 0;
      for (const StateEntry& e : cur) {
        Bytes key = StateKey(*e.contract, e.label);
        std::string key_str(key.begin(), key.end());
        auto it = trie_applied_.find(key_str);
        if (it == trie_applied_.end()) {
          changed.emplace_back(std::move(key_str), &e);
        } else {
          ++matched;
          if (it->second != e.digest) changed.emplace_back(std::move(key_str), &e);
        }
      }
      rebuild = matched != trie_applied_.size();
    }
    if (rebuild) {
      state_trie_ = TrieFromEntries(cur);
      trie_applied_.clear();
      trie_applied_.reserve(cur.size());
      for (const StateEntry& e : cur) {
        Bytes key = StateKey(*e.contract, e.label);
        trie_applied_.emplace(std::string(key.begin(), key.end()), e.digest);
      }
      ++commit_stats_.full_rebuilds;
      commit_stats_.entries_updated += cur.size();
    } else {
      for (auto& [key_str, e] : changed) {
        state_trie_.Put(
            std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(key_str.data()), key_str.size()),
            Bytes(e->digest.begin(), e->digest.end()));
        trie_applied_[key_str] = e->digest;
      }
      commit_stats_.entries_updated += changed.size();
    }
    commit_valid_ = true;
    root = state_trie_.RootHash();
  } else {
    // Binary-tree leaves are positional: any layout change (entry added,
    // removed, relabeled, contract registered) rebuilds; a digest-only
    // change patches one leaf in O(log n).
    bool same_layout = commit_valid_ && cur.size() == last_entries_.size();
    if (same_layout) {
      for (size_t i = 0; i < cur.size(); ++i) {
        // Contract pointers alias the contracts_ map keys, so pointer
        // equality is name equality.
        if (cur[i].contract != last_entries_[i].contract ||
            cur[i].label != last_entries_[i].label) {
          same_layout = false;
          break;
        }
      }
    }
    if (!same_layout) {
      if (cur.empty()) {
        state_tree_.reset();
      } else {
        state_tree_.emplace(LeavesFromEntries(cur));
      }
      last_entries_ = cur;
      ++commit_stats_.full_rebuilds;
      commit_stats_.entries_updated += cur.size();
    } else {
      for (size_t i = 0; i < cur.size(); ++i) {
        if (cur[i].digest != last_entries_[i].digest) {
          state_tree_->UpdateLeaf(i, StateLeafOf(cur[i]));
          last_entries_[i].digest = cur[i].digest;
          ++commit_stats_.entries_updated;
        }
      }
    }
    commit_valid_ = true;
    root = state_tree_.has_value() ? state_tree_->root()
                                   : crypto::BinaryMerkleTree::RootOf({});
  }

  if (crosscheck_) {
    const Hash reference =
        mpt ? TrieFromEntries(cur).RootHash()
            : crypto::BinaryMerkleTree::RootOf(LeavesFromEntries(cur));
    if (reference != root) {
      throw std::logic_error(
          "GEM2_STATE_CROSSCHECK: incremental state root diverged from "
          "from-scratch root");
    }
  }
  return root;
}

Hash Environment::ComputeStateRoot() const {
  DrainSeal();
  return ComputeStateRootFrom(GatherStateEntries());
}

bool Environment::PipelineActive(bool traced) const {
  // Ask the pool the seal is submitted to: its size is fixed at creation,
  // while DefaultThreads() re-reads the environment and the host's CPU count
  // on every call.
  return options_.pipeline_sealing && !traced &&
         common::ThreadPool::Global().num_threads() >= 1;
}

void Environment::DrainSeal() const {
  if (!seal_future_.valid()) return;
  common::ThreadPool& pool = common::ThreadPool::Global();
  // Help run queued work instead of sleeping: the seal task itself may still
  // be sitting in a deque, and a pool starved by blocked waiters would
  // deadlock.
  while (seal_future_.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool.TryRunOneTask()) {
      seal_future_.wait_for(std::chrono::microseconds(50));
    }
  }
  std::future<void> done = std::move(seal_future_);
  done.get();  // rethrow the seal's exception, if any
}

void Environment::SealBlock() {
  DrainSeal();
  if (pending_.empty()) return;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  const bool traced = telemetry::kCompiledIn && tracer.enabled();

  // Snapshot everything the seal depends on *now*, synchronously: the digest
  // view, the timestamp, and the transaction batch. The deferred work (tx
  // root, PoW, state-root hashing) is then a pure function of the snapshot,
  // which is what keeps the pipelined chain byte-identical to a serial one.
  std::vector<Transaction> txs = std::move(pending_);
  pending_.clear();
  const uint64_t timestamp = clock_++;

  if (PipelineActive(traced)) {
    auto state = std::make_shared<std::pair<std::vector<Transaction>,
                                            std::vector<StateEntry>>>(
        std::move(txs), GatherStateEntries());
    auto done = std::make_shared<std::promise<void>>();
    seal_future_ = done->get_future();
    common::ThreadPool::Global().Submit([this, state, done, timestamp] {
      try {
        const Hash root = ComputeStateRootFrom(state->second);
        blockchain_.Append(std::move(state->first), root, timestamp);
        done->set_value();
      } catch (...) {
        done->set_exception(std::current_exception());
      }
    });
    return;
  }

  const uint64_t t0 = traced ? telemetry::Tracer::NowNs() : 0;
  const size_t num_txs = txs.size();
  {
    std::optional<telemetry::Span> span;
    if (traced) span.emplace("block.seal");
    blockchain_.Append(std::move(txs),
                       ComputeStateRootFrom(GatherStateEntries()), timestamp);
  }
  if (traced) {
    const uint64_t seal_ns = telemetry::Tracer::NowNs() - t0;
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("block.count").Add(1);
    metrics.histogram("block.seal_ns").Observe(seal_ns);
    metrics.gauge("block.height").Set(static_cast<int64_t>(blockchain_.height()));
    tracer.EmitInstant(telemetry::InstantEvent{
        "block.seal",
        0,
        0,
        {{"height", static_cast<double>(blockchain_.height())},
         {"txs", static_cast<double>(num_txs)},
         {"seal_ms", static_cast<double>(seal_ns) / 1e6}}});
  }
}

AuthenticatedState Environment::ReadAuthenticatedState(const std::string& contract_name) {
  auto it = contracts_.find(contract_name);
  if (it == contracts_.end()) {
    throw std::invalid_argument("unknown contract " + contract_name);
  }
  // Make sure the latest header commits to the current state. Registering a
  // contract changes the state tree without any transaction, so an empty
  // block may be needed even when nothing is pending.
  SealBlock();
  const Hash root = ComputeStateRoot();
  if (blockchain_.latest().header.state_root != root) {
    blockchain_.Append({}, root, clock_++);
  }

  AuthenticatedState state;
  state.contract = contract_name;
  state.commitment = options_.state_commitment;
  state.header = blockchain_.latest().header;

  // ComputeStateRoot() above left the persistent commitment synchronized
  // with the current digest view, so proofs come straight from it; the
  // compat mode (incremental_commitment = false) rebuilds locally.
  if (options_.state_commitment == StateCommitment::kPatriciaTrie) {
    crypto::PatriciaTrie local;
    const bool cached = options_.incremental_commitment && commit_valid_;
    if (!cached) local = TrieFromEntries(GatherStateEntries());
    const crypto::PatriciaTrie& trie = cached ? state_trie_ : local;
    for (const DigestEntry& entry : it->second->CommittedDigests()) {
      ProvenDigest pd;
      pd.entry = entry;
      pd.mpt_proof = trie.Prove(StateKey(contract_name, entry.label));
      state.digests.push_back(std::move(pd));
    }
    return state;
  }

  std::vector<StateEntry> gathered;
  std::optional<crypto::BinaryMerkleTree> local_tree;
  const std::vector<StateEntry>* entries = nullptr;
  const crypto::BinaryMerkleTree* tree = nullptr;
  if (options_.incremental_commitment && commit_valid_) {
    entries = &last_entries_;
    if (state_tree_.has_value()) tree = &*state_tree_;
  } else {
    gathered = GatherStateEntries();
    entries = &gathered;
    if (!gathered.empty()) {
      local_tree.emplace(LeavesFromEntries(gathered));
      tree = &*local_tree;
    }
  }
  for (size_t i = 0; i < entries->size(); ++i) {
    const StateEntry& e = (*entries)[i];
    if (*e.contract != contract_name) continue;
    ProvenDigest pd;
    pd.entry = {e.label, e.digest};
    pd.proof = tree->Prove(i);
    state.digests.push_back(std::move(pd));
  }
  return state;
}

std::vector<AuthenticatedState> Environment::ReadAuthenticatedStates(
    const std::vector<std::string>& contract_names) {
  std::vector<AuthenticatedState> states;
  states.reserve(contract_names.size());
  // ReadAuthenticatedState is idempotent once the first call has sealed: no
  // transaction runs in between, so the root cannot move and every state
  // anchors at the same header.
  for (const std::string& name : contract_names) {
    states.push_back(ReadAuthenticatedState(name));
  }
  return states;
}

bool Environment::VerifyAuthenticatedState(const AuthenticatedState& state) {
  for (const ProvenDigest& pd : state.digests) {
    if (state.commitment == StateCommitment::kPatriciaTrie) {
      if (!crypto::PatriciaTrie::VerifyProof(
              state.header.state_root, StateKey(state.contract, pd.entry.label),
              Bytes(pd.entry.digest.begin(), pd.entry.digest.end()),
              pd.mpt_proof)) {
        return false;
      }
    } else {
      Hash leaf = StateLeaf(state.contract, pd.entry);
      if (crypto::BinaryMerkleTree::RootFromProof(leaf, pd.proof) !=
          state.header.state_root) {
        return false;
      }
    }
  }
  return SatisfiesPow(state.header.Digest(), state.header.difficulty_bits);
}

}  // namespace gem2::chain
