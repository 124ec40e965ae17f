/// \file contract.h
/// Base class for on-chain smart contracts. Each contract owns one metered
/// storage space and exposes the list of authenticated digests (ADS roots)
/// that clients retrieve as VO_chain.
#ifndef GEM2_CHAIN_CONTRACT_H_
#define GEM2_CHAIN_CONTRACT_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/digest_ledger.h"
#include "chain/storage.h"
#include "common/types.h"

namespace gem2::chain {

/// A named authenticated digest exposed by a contract, e.g. an MB-tree root
/// or one slot of a GEM2-tree part_table.
struct DigestEntry {
  std::string label;
  Hash digest{};

  friend bool operator==(const DigestEntry& a, const DigestEntry& b) = default;
};

inline std::vector<DigestEntry> DigestLedger::Snapshot() const {
  std::vector<DigestEntry> out;
  out.reserve(entries_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [order, slot] : entries_) {
    if (slot.pending) {
      slot.digest = slot.pending->Resolve();
      slot.pending.reset();
    }
    out.push_back({slot.label, slot.digest});
  }
  return out;
}

class Contract {
 public:
  explicit Contract(std::string name) : name_(std::move(name)) {}
  virtual ~Contract() = default;

  Contract(const Contract&) = delete;
  Contract& operator=(const Contract&) = delete;

  const std::string& name() const { return name_; }

  MeteredStorage& storage() { return storage_; }
  const MeteredStorage& storage() const { return storage_; }

  /// The authenticated digests this contract currently exposes, in a
  /// deterministic order. These are committed into every block's state root
  /// and served to clients (with inclusion proofs) as VO_chain.
  virtual std::vector<DigestEntry> AuthenticatedDigests() const = 0;

  /// The digest view as of the last *committed* transaction.
  ///
  /// Ledger-maintained contracts (every ADS contract) answer from their
  /// DigestLedger, which the environment brackets alongside storage — an
  /// aborted transaction simply rolls the ledger back, no snapshot needed.
  ///
  /// Legacy contracts fall back to the freeze/thaw discipline: normally this
  /// is just AuthenticatedDigests(); after a failed transaction the
  /// environment freezes it at the pre-transaction value, because a
  /// contract's in-memory structures (unlike its metered storage) cannot be
  /// rolled back — without the freeze an aborted transaction would leak into
  /// the state root. A later successful transaction thaws the view.
  std::vector<DigestEntry> CommittedDigests() const {
    if (ledger_ != nullptr) return ledger_->Snapshot();
    return frozen_digests_.has_value() ? *frozen_digests_
                                       : AuthenticatedDigests();
  }

  /// Opts this contract into ledger-maintained committed digests. The
  /// contract must then keep every entry current via DigestLedger::Set /
  /// Erase as its operations run (the equivalence suite cross-checks the
  /// ledger against AuthenticatedDigests() after each committed tx).
  DigestLedger& EnableDigestLedger() {
    if (ledger_ == nullptr) ledger_ = std::make_unique<DigestLedger>();
    return *ledger_;
  }
  DigestLedger* digest_ledger() { return ledger_.get(); }
  const DigestLedger* digest_ledger() const { return ledger_.get(); }

  void FreezeDigests(std::vector<DigestEntry> pre_tx) {
    frozen_digests_ = std::move(pre_tx);
  }
  void ThawDigests() { frozen_digests_.reset(); }

 private:
  std::string name_;
  MeteredStorage storage_;
  std::optional<std::vector<DigestEntry>> frozen_digests_;
  std::unique_ptr<DigestLedger> ledger_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_CONTRACT_H_
