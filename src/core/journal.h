/// \file journal.h
/// Data-owner operation journal and service-provider recovery.
///
/// In the hybrid-storage architecture the SP's materialized ADS is *derived*
/// state: every structural decision is a deterministic function of the
/// data-owner operation stream. A crashed or newly provisioned SP therefore
/// recovers by replaying the journal — and because the on-chain digests
/// commit to the same stream, a client can tell immediately (via any
/// authenticated query) whether the rebuilt SP is consistent with the chain.
///
/// The one serialized form of the stream is the durable on-disk segment
/// format in src/store/ (store::DurableJournal), which frames each entry body
/// (AppendJournalEntryBody / ParseJournalEntryBody) with its own length
/// prefix and CRC32C, so bit rot is attributable and never yields a silently
/// wrong SP.
#ifndef GEM2_CORE_JOURNAL_H_
#define GEM2_CORE_JOURNAL_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace gem2::core {

/// One data-owner operation, in stream order.
struct JournalEntry {
  enum class Op : uint8_t { kInsert = 1, kUpdate = 2, kDelete = 3 };
  Op op = Op::kInsert;
  Object object;  // for kDelete only the key matters

  friend bool operator==(const JournalEntry& a, const JournalEntry& b) = default;
};

/// Appends the canonical body encoding of one entry:
/// [op u8][key 8B BE][value_len u64 BE][value bytes]. No integrity framing —
/// the disk segment adds its own.
void AppendJournalEntryBody(Bytes* out, const JournalEntry& entry);

/// Parses one entry body from `data` at `*pos`, advancing `*pos` past it.
/// Returns false (leaving `*pos` unspecified) on malformed input.
bool ParseJournalEntryBody(const Bytes& data, size_t* pos, JournalEntry* out);

/// Where AuthenticatedDb records every committed data-owner operation, in
/// commit order — the seam that makes durability pluggable without the core
/// library depending on the storage engine. store::DurableJournal implements
/// this over checksummed on-disk segments (src/store/durable_journal.h); a
/// Journal keeps the stream in memory.
///
/// Append is called after the operation committed on-chain and applied to
/// the SP mirrors, and before the operation is acknowledged to the data
/// owner; returning false fails the operation closed (AuthenticatedDb
/// throws), because an un-journaled ack could never be recovered.
class JournalSink {
 public:
  virtual ~JournalSink() = default;

  /// Durably records `entry` per the sink's fsync policy. False on I/O error.
  virtual bool Append(const JournalEntry& entry) = 0;

  /// Forces everything appended so far to stable storage.
  virtual bool Sync() = 0;

  /// Human-readable description of the last failure (empty when none).
  virtual std::string last_error() const { return {}; }
};

/// An op stream in memory. Attached as a DbOptions::journal_sink it records
/// what a db committed; it is also what Replay rebuilds a db from.
class Journal : public JournalSink {
 public:
  void Record(JournalEntry entry) { entries_.push_back(std::move(entry)); }

  /// JournalSink: records a copy of `entry`; never fails.
  bool Append(const JournalEntry& entry) override {
    entries_.push_back(entry);
    return true;
  }
  bool Sync() override { return true; }

  const std::vector<JournalEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// The first `n` entries (the whole journal when n >= size): what a crashed
  /// SP finds in its durable log when the tail was lost with the process.
  Journal Prefix(size_t n) const;

  friend bool operator==(const Journal& a, const Journal& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<JournalEntry> entries_;
};

}  // namespace gem2::core

#endif  // GEM2_CORE_JOURNAL_H_
