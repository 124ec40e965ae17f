/// \file digest_ledger.h
/// Incrementally-maintained committed-digest view of a contract.
///
/// Contracts originally recomputed their full digest list from the live ADS
/// on every CommittedDigests() call, and the environment deep-copied that
/// list before *every* transaction just in case it aborted. The ledger
/// replaces both costs: the contract updates exactly the digest entries an
/// operation touched (O(1) per touched tree instead of O(trees) per call),
/// and abort handling becomes a first-touch undo journal replay — the same
/// discipline MeteredStorage uses — instead of an up-front snapshot.
///
/// An entry may also be *pending* (SetPending): its digest is computed on
/// first observation (Snapshot(), which every block seal,
/// ReadAuthenticatedState and CommittedDigests() goes through) instead of at
/// the transaction. GEM2 partition rebuilds use this: the transaction pays
/// the full gas of the rebuild, but a root that a later transaction of the
/// same block supersedes is never hashed. The pending computation owns
/// whatever it needs (never a pointer into live contract structures, which an
/// aborted transaction may leave mutated), it rolls back with the undo
/// journal like a digest, and it runs at most once.
///
/// Entries are keyed by a caller-chosen `order` so Snapshot() reproduces the
/// exact deterministic ordering AuthenticatedDigests() used to emit; the
/// randomized equivalence suite asserts the two stay bit-identical across
/// committed transactions.
#ifndef GEM2_CHAIN_DIGEST_LEDGER_H_
#define GEM2_CHAIN_DIGEST_LEDGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace gem2::chain {

struct DigestEntry;

class DigestLedger {
 public:
  /// Inserts or overwrites the entry at `order`. A write that changes nothing
  /// is a no-op (and journals nothing).
  void Set(uint64_t order, std::string label, const Hash& digest) {
    auto it = entries_.find(order);
    if (it != entries_.end() && !it->second.pending &&
        it->second.digest == digest && it->second.label == label) {
      return;
    }
    Write(order, it, std::move(label), digest, nullptr);
  }

  /// Inserts or overwrites the entry at `order` with a digest that `compute`
  /// produces when the entry is first observed (see file comment).
  void SetPending(uint64_t order, std::string label,
                  std::function<Hash()> compute) {
    Write(order, entries_.find(order), std::move(label), Hash{},
          std::make_shared<Pending>(std::move(compute)));
  }

  /// Removes the entry at `order` (no-op when absent).
  void Erase(uint64_t order) {
    auto it = entries_.find(order);
    if (it == entries_.end()) return;
    RecordUndo(order, it);
    entries_.erase(it);
  }

  /// The committed digest list, in ascending `order`; resolves every pending
  /// entry first. Safe to call from concurrent readers (resolution is
  /// serialized on an internal mutex); the mutators above must be exclusive
  /// with readers, as every contract write is.
  std::vector<DigestEntry> Snapshot() const;

  size_t size() const { return entries_.size(); }

  /// Transaction bracketing, mirroring MeteredStorage: first-touch undo
  /// records are replayed in reverse on rollback. Writes outside a bracket
  /// apply immediately and permanently (bootstrap / unmetered seeding).
  void BeginTx() {
    if (in_tx_) throw std::logic_error("nested digest-ledger transaction");
    in_tx_ = true;
    undo_log_.clear();
    ++epoch_;
  }
  void CommitTx() {
    if (!in_tx_) throw std::logic_error("digest-ledger commit outside tx");
    in_tx_ = false;
    undo_log_.clear();
  }
  void RollbackTx() {
    if (!in_tx_) throw std::logic_error("digest-ledger rollback outside tx");
    in_tx_ = false;
    for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
      if (it->second.has_value()) {
        entries_[it->first] = std::move(*it->second);
      } else {
        entries_.erase(it->first);
      }
    }
    undo_log_.clear();
  }
  bool in_tx() const { return in_tx_; }

 private:
  /// A digest computed on first use. Shared between the live entry and any
  /// undo record of it, so however often a rollback restores it, the
  /// computation runs once; it is dropped, with everything it captured, as
  /// soon as it has run. Resolve runs under mutex_.
  struct Pending {
    explicit Pending(std::function<Hash()> fn) : compute(std::move(fn)) {}
    const Hash& Resolve() {
      if (compute) {
        value = compute();
        compute = nullptr;
      }
      return value;
    }
    std::function<Hash()> compute;
    Hash value{};
  };

  struct Slot {
    std::string label;
    // Snapshot() folds a resolved `pending` into `digest` under mutex_.
    mutable Hash digest{};
    mutable std::shared_ptr<Pending> pending;
    uint64_t touch_epoch = 0;
  };

  void Write(uint64_t order, std::map<uint64_t, Slot>::iterator it,
             std::string label, const Hash& digest,
             std::shared_ptr<Pending> pending) {
    RecordUndo(order, it);
    if (it == entries_.end()) it = entries_.emplace(order, Slot{}).first;
    it->second.label = std::move(label);
    it->second.digest = digest;
    it->second.pending = std::move(pending);
  }

  void RecordUndo(uint64_t order, std::map<uint64_t, Slot>::iterator it) {
    if (!in_tx_) return;
    if (it != entries_.end()) {
      if (it->second.touch_epoch == epoch_) return;  // already journaled
      it->second.touch_epoch = epoch_;
      undo_log_.emplace_back(order, it->second);
    } else {
      // First touch of an absent entry. A later Set+Erase+Set sequence in the
      // same tx re-journals (absent again after Erase); duplicates are benign
      // because the oldest record replays last.
      undo_log_.emplace_back(order, std::nullopt);
    }
  }

  std::map<uint64_t, Slot> entries_;
  mutable std::mutex mutex_;  // serializes Snapshot()'s pending resolution
  bool in_tx_ = false;
  uint64_t epoch_ = 0;
  std::vector<std::pair<uint64_t, std::optional<Slot>>> undo_log_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_DIGEST_LEDGER_H_
