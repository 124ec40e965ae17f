#include "chain/environment.h"

#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "crypto/keccak.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace gem2::chain {

Environment::Environment(EnvironmentOptions options)
    : options_(options), blockchain_(options.difficulty_bits) {}

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
  receipt.seq = tx.seq;
  // The pending batch, this transaction included, seals into the next block.
  receipt.height = blockchain_.height() + 1;

  // Telemetry: the transaction is the root span; every phase span opened by
  // the contract code nests under it and attributes gas against `meter`.
  const bool traced = telemetry::Tracer::Global().enabled();
  std::optional<telemetry::ScopedMeter> scoped_meter;
  std::optional<telemetry::MeterMetricsObserver> observer;
  if (traced) {
    scoped_meter.emplace(&meter);
    observer.emplace();
    meter.set_observer(&*observer);
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

Hash Environment::StateLeaf(const std::string& contract,
                            const std::vector<DigestEntry>& digests) {
  crypto::Keccak256Hasher h;
  auto u32 = [&h](size_t v) {
    const uint8_t be[4] = {static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
                           static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
    h.Update(be, sizeof(be));
  };
  u32(contract.size());
  h.Update(contract);
  u32(digests.size());
  for (const DigestEntry& entry : digests) {
    u32(entry.label.size());
    h.Update(entry.label);
    h.Update(entry.digest);
  }
  return h.Finalize();
}

std::vector<Hash> Environment::StateLeaves(
    std::vector<std::vector<DigestEntry>>* digests) const {
  std::vector<Hash> leaves;
  leaves.reserve(contracts_.size());
  for (const auto& [name, contract] : contracts_) {
    std::vector<DigestEntry> committed = contract->CommittedDigests();
    leaves.push_back(StateLeaf(name, committed));
    if (digests != nullptr) digests->push_back(std::move(committed));
  }
  ++commit_stats_.root_computations;
  commit_stats_.entries_updated += leaves.size();
  // Mirrored into the process-wide registry, so the introspection surface
  // sees commitment work without holding Environment references (multiple
  // environments simply aggregate).
  static telemetry::Counter& roots =
      telemetry::MetricsRegistry::Global().counter("chain.commit.root_computations");
  static telemetry::Counter& hashed =
      telemetry::MetricsRegistry::Global().counter("chain.commit.entries_updated");
  roots.Add(1);
  hashed.Add(leaves.size());
  return leaves;
}

Hash Environment::ComputeStateRoot() const {
  return crypto::BinaryMerkleTree::RootOf(StateLeaves());
}

void Environment::SealBlock() {
  if (!pending_.empty()) SealWith(nullptr);
}

void Environment::SealWith(const Hash* state_root) {
  const bool traced = telemetry::Tracer::Global().enabled();
  const uint64_t t0 = traced ? telemetry::Tracer::NowNs() : 0;
  {
    TELEMETRY_SPAN("block.seal");
    // The header keeps only the batch's tx_root, so the buffer is cleared
    // and reused for the next batch.
    blockchain_.Append(pending_,
                       state_root != nullptr ? *state_root : ComputeStateRoot(),
                       clock_++);
    pending_.clear();
  }
  if (traced) {
    const uint64_t seal_ns = telemetry::Tracer::NowNs() - t0;
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("block.count").Add(1);
    metrics.histogram("block.seal_ns").Observe(seal_ns);
    metrics.gauge("block.height").Set(static_cast<int64_t>(blockchain_.height()));
  }
}

AuthenticatedState Environment::ReadAuthenticatedState(const std::string& contract_name) {
  return std::move(ReadAuthenticatedStates({contract_name}).front());
}

std::vector<AuthenticatedState> Environment::ReadAuthenticatedStates(
    const std::vector<std::string>& contract_names) {
  std::vector<AuthenticatedState> states(contract_names.size());
  std::vector<size_t> leaf(contract_names.size());
  for (size_t i = 0; i < contract_names.size(); ++i) {
    auto it = contracts_.find(contract_names[i]);
    if (it == contracts_.end()) {
      throw std::invalid_argument("unknown contract " + contract_names[i]);
    }
    states[i].contract = contract_names[i];
    leaf[i] = static_cast<size_t>(std::distance(contracts_.begin(), it));
  }
  // One root computation serves the seal and every proof. Make sure the
  // latest header commits to it: a seal does; with nothing pending,
  // registering a contract may still have changed the state tree, so an
  // empty block may be needed.
  std::vector<std::vector<DigestEntry>> digests;
  const crypto::BinaryMerkleTree tree(StateLeaves(&digests));
  if (!pending_.empty()) {
    SealWith(&tree.root());
  } else if (blockchain_.latest().state_root != tree.root()) {
    blockchain_.Append({}, tree.root(), clock_++);
  }
  for (size_t i = 0; i < states.size(); ++i) {
    states[i].digests = digests[leaf[i]];
    states[i].proof = tree.Prove(leaf[i]);
    states[i].header = blockchain_.latest();
  }
  return states;
}

bool Environment::VerifyAuthenticatedState(const AuthenticatedState& state) {
  const Hash leaf = StateLeaf(state.contract, state.digests);
  return crypto::BinaryMerkleTree::RootFromProof(leaf, state.proof) ==
             state.header.state_root &&
         SatisfiesPow(state.header.Digest(), state.header.difficulty_bits);
}

}  // namespace gem2::chain
