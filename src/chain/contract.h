/// \file contract.h
/// Base class for on-chain smart contracts. Each contract owns one metered
/// storage space and one digest ledger: the authenticated digests (ADS
/// roots) that every block commits and clients retrieve as VO_chain.
#ifndef GEM2_CHAIN_CONTRACT_H_
#define GEM2_CHAIN_CONTRACT_H_

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

  /// The authenticated digests recomputed from the contract's live
  /// structures, in a deterministic order: the reference CommittedDigests()
  /// must equal after every committed transaction.
  virtual std::vector<DigestEntry> AuthenticatedDigests() const = 0;

  /// The digest view as of the last *committed* transaction: the snapshot
  /// of this contract's DigestLedger. The environment brackets the ledger
  /// alongside storage, so an aborted transaction rolls both back and never
  /// reaches the state root.
  std::vector<DigestEntry> CommittedDigests() const {
    return ledger_.Snapshot();
  }

  /// The ledger every committed digest goes through. A contract keeps each
  /// entry current via DigestLedger::Set / Erase as its operations run (the
  /// equivalence suite cross-checks the ledger against
  /// AuthenticatedDigests() after each committed tx).
  DigestLedger& digest_ledger() { return ledger_; }
  const DigestLedger& digest_ledger() const { return ledger_; }

 private:
  std::string name_;
  MeteredStorage storage_;
  DigestLedger ledger_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_CONTRACT_H_
