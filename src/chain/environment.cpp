#include "chain/environment.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

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

  // The digest ledger rolls back with storage, so the committed digest view
  // never sees an aborted transaction and the common path copies nothing.
  DigestLedger& ledger = contract.digest_ledger();
  contract.storage().BeginTx();
  ledger.BeginTx();
  {
    std::optional<telemetry::Span> root_span;
    if (traced) root_span.emplace("tx." + method);
    try {
      if (options_.tx_base_fee > 0) meter.ChargeIntrinsic(options_.tx_base_fee);
      body(meter);
      contract.storage().CommitTx();
      ledger.CommitTx();
    } catch (const gas::OutOfGasError& e) {
      contract.storage().RollbackTx();
      ledger.RollbackTx();
      receipt.ok = false;
      receipt.error = e.what();
    } catch (...) {
      contract.storage().RollbackTx();
      ledger.RollbackTx();
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

std::vector<Environment::StateEntry> Environment::GatherStateEntries() const {
  std::vector<StateEntry> entries;
  for (const auto& [name, contract] : contracts_) {
    for (DigestEntry& entry : contract->CommittedDigests()) {
      entries.push_back({&name, std::move(entry.label), entry.digest});
    }
  }
  return entries;
}

Hash Environment::StateLeaf(const std::string& contract, const std::string& label,
                            const Hash& digest) {
  crypto::Keccak256Hasher h;
  h.Update(contract);
  h.Update(std::string(1, '\0'));
  h.Update(label);
  h.Update(std::string(1, '\0'));
  h.Update(digest);
  return h.Finalize();
}

Hash Environment::StateLeafOf(const StateEntry& e) {
  return StateLeaf(*e.contract, e.label, e.digest);
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

Hash Environment::ComputeStateRoot() const {
  const std::vector<StateEntry> cur = GatherStateEntries();
  CommitStatsMirror mirror(commit_stats_);
  ++commit_stats_.root_computations;
  commit_stats_.entries_seen += cur.size();

  // Leaves are positional: any layout change (entry added, removed,
  // relabeled, contract registered) rebuilds; a digest-only change patches
  // one leaf in O(log n).
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
  const Hash root = state_tree_.has_value()
                        ? state_tree_->root()
                        : crypto::BinaryMerkleTree::RootOf({});

  if (crosscheck_) {
    const Hash reference =
        crypto::BinaryMerkleTree::RootOf(LeavesFromEntries(cur));
    if (reference != root) {
      throw std::logic_error(
          "GEM2_STATE_CROSSCHECK: incremental state root diverged from "
          "from-scratch root");
    }
  }
  return root;
}

void Environment::SealBlock() {
  if (pending_.empty()) return;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  const bool traced = telemetry::kCompiledIn && tracer.enabled();
  const uint64_t t0 = traced ? telemetry::Tracer::NowNs() : 0;
  const size_t num_txs = pending_.size();
  {
    std::optional<telemetry::Span> span;
    if (traced) span.emplace("block.seal");
    // The header keeps only the batch's tx_root, so the buffer is cleared
    // and reused for the next batch.
    blockchain_.Append(pending_, ComputeStateRoot(), clock_++);
    pending_.clear();
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
  return std::move(ReadAuthenticatedStates({contract_name}).front());
}

std::vector<AuthenticatedState> Environment::ReadAuthenticatedStates(
    const std::vector<std::string>& contract_names) {
  std::vector<AuthenticatedState> states(contract_names.size());
  // Keyed by the contracts_ key each StateEntry points at. A name listed
  // twice is filled at its first listing and copied to the others.
  std::map<const std::string*, size_t> state_of;
  std::vector<size_t> first(contract_names.size());
  for (size_t i = 0; i < contract_names.size(); ++i) {
    auto it = contracts_.find(contract_names[i]);
    if (it == contracts_.end()) {
      throw std::invalid_argument("unknown contract " + contract_names[i]);
    }
    states[i].contract = contract_names[i];
    first[i] = state_of.emplace(&it->first, i).first->second;
  }
  // Make sure the latest header commits to the current state, computing the
  // root once: a seal commits it; with nothing pending, registering a
  // contract may still have changed the state tree, so an empty block may be
  // needed.
  if (!pending_.empty()) {
    SealBlock();
  } else {
    const Hash root = ComputeStateRoot();
    if (blockchain_.latest().state_root != root) {
      blockchain_.Append({}, root, clock_++);
    }
  }

  // The root computation above left the persistent commitment synchronized
  // with the current digest view, so proofs come straight from it, in one
  // pass over every contract's entries.
  for (size_t i = 0; i < last_entries_.size(); ++i) {
    const StateEntry& e = last_entries_[i];
    auto s = state_of.find(e.contract);
    if (s == state_of.end()) continue;
    states[s->second].digests.push_back(
        {{e.label, e.digest}, state_tree_->Prove(i)});
  }
  for (size_t i = 0; i < states.size(); ++i) {
    states[i].header = blockchain_.latest();
    if (first[i] != i) states[i].digests = states[first[i]].digests;
  }
  return states;
}

bool Environment::VerifyAuthenticatedState(const AuthenticatedState& state) {
  for (const ProvenDigest& pd : state.digests) {
    const Hash leaf = StateLeaf(state.contract, pd.entry.label, pd.entry.digest);
    if (crypto::BinaryMerkleTree::RootFromProof(leaf, pd.proof) !=
        state.header.state_root) {
      return false;
    }
  }
  return SatisfiesPow(state.header.Digest(), state.header.difficulty_bits);
}

}  // namespace gem2::chain
