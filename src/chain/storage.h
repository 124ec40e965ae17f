/// \file storage.h
/// Word-granular, gas-metered contract storage with transactional journaling.
///
/// Semantics mirror the paper's cost model (Table I):
///   Load          -> Csload per word
///   Store (empty) -> Csstore per word
///   Store (taken) -> Csupdate per word
/// Storing the all-zero word clears the slot (Ethereum storage deletion);
/// we charge it as an update and ignore refunds, as the paper does.
///
/// A transaction that runs out of gas must leave no trace, so the host brackets
/// execution with BeginTx / CommitTx / RollbackTx and the storage keeps an
/// undo log of every write inside the transaction.
///
/// Layout: a single open-addressing (linear probing) table of 24-byte entries
/// holding only what Ethereum's storage model needs — the slot and its word —
/// plus an occupancy byte and a form byte, so the sload/sstore hot path costs
/// exactly one probe sequence. A word whose first 24 bytes are zero (every
/// key, location, count and partition count the contracts store) is held
/// inline in the entry's 8-byte payload; any other word (value hashes, packed
/// ranges, roots) lives in one side array of words, and the payload holds its
/// index there. Clearing a slot, or rewriting it with an inline word, frees
/// its side word to a free list that the next side word reuses, so the side
/// array never outgrows the peak count of live side words. Nothing
/// per-transaction lives in the table: the undo log records every in-tx
/// write as a full word, and rollback replays it newest first, so the oldest
/// record of a slot (its pre-transaction word) is restored last.
#ifndef GEM2_CHAIN_STORAGE_H_
#define GEM2_CHAIN_STORAGE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "gas/meter.h"

namespace gem2::chain {

/// Address of one storage word: a contract-defined region (think Solidity
/// state variable) plus an index within it (array slot / mapping bucket).
struct Slot {
  uint32_t region = 0;
  uint64_t index = 0;

  friend bool operator==(const Slot& a, const Slot& b) = default;
};

struct SlotHasher {
  size_t operator()(const Slot& s) const {
    // Splitmix-style mix of region and index.
    uint64_t x = (static_cast<uint64_t>(s.region) << 48) ^ s.index;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

inline const Word kZeroWord{};

class MeteredStorage {
 public:
  /// Metered read. A missing slot reads as the zero word (still charged).
  Word Load(const Slot& slot, gas::Meter& meter);

  /// Metered write; charges sstore on an empty slot, supdate otherwise.
  /// Writing the zero word clears the slot.
  void Store(const Slot& slot, const Word& value, gas::Meter& meter);

  /// Metered convenience wrappers for integer-valued slots.
  uint64_t LoadUint(const Slot& slot, gas::Meter& meter);
  void StoreUint(const Slot& slot, uint64_t value, gas::Meter& meter);

  /// Unmetered, unjournaled overwrite of an occupied slot with a nonzero
  /// word (anything else throws std::logic_error). For a contract that
  /// stored a placeholder word under full charge and fills in the real word
  /// once it is computed: occupancy, and so every charge, is unchanged.
  /// Within a transaction, a slot journaled earlier in it still rolls back
  /// to its pre-transaction word.
  void Poke(const Slot& slot, const Word& value);

  /// Unmetered inspection (tests, SP mirroring, state commitment).
  bool Contains(const Slot& slot) const;
  Word Peek(const Slot& slot) const;
  size_t NumSlots() const { return live_; }

  /// Keccak digest of the full live slot contents, in sorted slot order:
  /// two storages hold identical words iff their fingerprints match. Used to
  /// assert a rolled-back transaction left storage bit-identical.
  Hash Fingerprint() const;

  /// Transaction bracketing (see file comment).
  void BeginTx();
  void CommitTx();
  void RollbackTx();
  bool in_tx() const { return in_tx_; }

  /// Test introspection: words the side array holds, live or free.
  size_t side_words() const { return side_.size(); }

 private:
  enum : uint8_t { kEmpty = 0, kLive = 1, kDead = 2 };
  enum : uint8_t { kInline = 0, kSide = 1 };
  static constexpr uint64_t kNoSide = UINT64_MAX;

  /// One table bucket: the slot's fields, unpacked so the state and form
  /// bytes fill the slot's padding, and the word's payload (see file
  /// comment). Empty and dead entries are always inline with payload 0.
  struct Entry {
    uint64_t index = 0;
    uint32_t region = 0;
    uint8_t state = kEmpty;
    uint8_t form = kInline;
    uint64_t payload = 0;

    Slot slot() const { return Slot{region, index}; }
    bool holds(const Slot& s) const { return index == s.index && region == s.region; }
  };
  static_assert(sizeof(Entry) == 24);

  /// Probes for `slot`. Returns the live entry holding it, or nullptr. When
  /// `insert_pos` is non-null it receives the bucket a fresh insert should
  /// use (first tombstone on the probe path, else the terminating empty one).
  Entry* Find(const Slot& slot, size_t* insert_pos);
  const Entry* Find(const Slot& slot) const;

  /// Grows (or compacts away tombstones) so one more insert fits.
  void Rehash(size_t min_capacity);

  Word WordOf(const Entry& e) const;
  /// Sets a live entry's nonzero word, moving it between inline and side
  /// form as the word requires.
  void SetWord(Entry* e, const Word& value);
  /// Fills the free bucket `pos` with `slot` holding a nonzero `value`.
  void Insert(size_t pos, const Slot& slot, const Word& value);
  /// Tombstones a live entry, freeing its side word.
  void Kill(Entry* e);
  uint64_t AllocSide(const Word& value);
  void FreeSide(uint64_t at);

  /// Unmetered write used by RollbackTx to restore a journaled value.
  void RestoreSlot(const Slot& slot, const std::optional<Word>& word);

  void RecordUndo(const Entry* entry, const Slot& slot);

  std::vector<Entry> table_;  // power-of-two size; empty until first store
  size_t mask_ = 0;
  size_t live_ = 0;  // entries in state kLive
  size_t used_ = 0;  // kLive + kDead (probe-chain occupancy)
  /// Side words. A free one holds the index of the next free one in its
  /// first 8 bytes; free_side_ heads that list (kNoSide when empty).
  std::vector<Word> side_;
  uint64_t free_side_ = kNoSide;
  bool in_tx_ = false;
  // Every write within a tx records (slot, previous value or nullopt if the
  // slot was empty). Replayed in reverse on rollback: a slot written several
  // times has several records, and the oldest one, its pre-tx value, replays
  // last and wins.
  std::vector<std::pair<Slot, std::optional<Word>>> undo_log_;
};

}  // namespace gem2::chain

#endif  // GEM2_CHAIN_STORAGE_H_
