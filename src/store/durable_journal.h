/// \file durable_journal.h
/// File-backed segmented operation journal — the SP's only durable store.
///
/// In the hybrid-storage model the SP's ADS is derived state, so the op
/// journal is all it needs to persist. DurableJournal implements
/// core::JournalSink over checksummed on-disk segments (store/segment.h):
/// AuthenticatedDb hands it every committed data-owner operation before
/// acknowledging, and after a crash DurableJournal::Recover() returns exactly
/// the acknowledged prefix of the stream (for AuthenticatedDb::Replay),
/// repairs the attributable tail damage it found, and reopens the journal so
/// the rebuilt SP keeps appending to it. The fsync policy is the durability
/// dial:
///
///   kEveryRecord  sync after every append — an acked op is never lost
///   kBatch        sync every `batch_records` appends — bounded-loss window
///   kNever        leave syncing to the OS — crash loses the unsynced tail
///
/// Recovery is recover-or-fail-closed: a torn or checksum-failed record at
/// the very tail of the *last* segment is truncated away (a lost tail, which
/// client verification against the on-chain digests then attributes), but
/// damage anywhere else — mid-stream corruption, a broken non-last segment,
/// a sequence-number gap between segments or before the first one (the
/// stream starts at seqno 0) — refuses recovery entirely rather than serve a
/// stream with a hole.
///
/// One recover-repair-reopen path:
///
///   auto journal = DurableJournal::Recover(vfs, dir, options, &recovery,
///                                          &error);
///   // recovery.entries -> AuthenticatedDb::Replay; then journal new ops
///   // through `journal`.
///
/// RecoverJournal() is the read-only scan underneath (gem2_fsck --check and
/// post-mortems of a killed process read the raw bytes through it), and
/// RepairJournal() is the one repair routine (gem2_fsck --repair calls it
/// too).
#ifndef GEM2_STORE_DURABLE_JOURNAL_H_
#define GEM2_STORE_DURABLE_JOURNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/journal.h"
#include "store/segment.h"
#include "store/vfs.h"

namespace gem2::store {

enum class FsyncPolicy : uint8_t { kNever = 0, kBatch = 1, kEveryRecord = 2 };

const char* FsyncPolicyName(FsyncPolicy policy);

struct JournalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Rotate to a fresh segment once the current one exceeds this many bytes.
  uint64_t segment_bytes = 4ull << 20;
  /// kBatch: sync once every this many appended records.
  uint32_t batch_records = 64;
};

struct JournalRecovery;

class DurableJournal : public core::JournalSink {
 public:
  /// The SP's restart path: RecoverJournal(), then RepairJournal() on what
  /// the scan attributed (torn/corrupt tails truncated, bad-header torn
  /// creations removed — counted in `recovery->repaired_segments`), then
  /// Open() at `recovery->next_seqno`. Without the repair the dropped tail
  /// would sit behind the fresh segment and read as mid-stream damage on the
  /// next recovery. Nullptr + `*error` when the scan fails closed
  /// (`recovery->ok` false) or on a repair or reopen I/O failure.
  /// `recovery` must be non-null.
  static std::unique_ptr<DurableJournal> Recover(Vfs* vfs,
                                                 const std::string& dir,
                                                 const JournalOptions& options,
                                                 JournalRecovery* recovery,
                                                 std::string* error);

  /// Opens `dir` (created if missing) for appending with `next_seqno` as the
  /// sequence number of the next record. Always starts a fresh segment —
  /// recovery may have truncated or distrusted the previous tail, and a new
  /// header re-anchors the seqno chain. Nullptr + `*error` on I/O failure.
  static std::unique_ptr<DurableJournal> Open(Vfs* vfs, const std::string& dir,
                                              uint64_t next_seqno,
                                              const JournalOptions& options,
                                              std::string* error);

  /// core::JournalSink: frames, appends, and (per policy) syncs one entry.
  /// False on any I/O failure — the op must fail closed, so the journal
  /// also refuses all further appends until reopened.
  bool Append(const core::JournalEntry& entry) override;
  bool Sync() override;
  std::string last_error() const override { return last_error_; }

  uint64_t next_seqno() const { return next_seqno_; }
  const std::string& dir() const { return dir_; }

 private:
  DurableJournal(Vfs* vfs, std::string dir, uint64_t next_seqno,
                 const JournalOptions& options)
      : vfs_(vfs),
        dir_(std::move(dir)),
        next_seqno_(next_seqno),
        options_(options) {}

  bool StartSegment();
  bool Fail(const std::string& message);

  Vfs* vfs_;
  std::string dir_;
  uint64_t next_seqno_;
  JournalOptions options_;

  std::unique_ptr<WritableFile> segment_;
  uint64_t segment_base_ = 0;     // base seqno of the open segment
  uint64_t segment_bytes_ = 0;    // bytes written to the open segment
  uint32_t unsynced_records_ = 0;
  bool failed_ = false;
  std::string last_error_;
};

/// Everything a recovery scan learned about one segment file — enough for
/// gem2_fsck to report it and for RepairJournal to truncate its torn tail.
struct SegmentInfo {
  std::string name;
  uint64_t base_seqno = 0;
  uint64_t records = 0;
  SegmentScan::Outcome outcome = SegmentScan::Outcome::kCorrupt;
  uint64_t valid_bytes = 0;
  uint64_t truncated_bytes = 0;
  std::string error;
};

struct JournalRecovery {
  /// False means fail closed: the directory holds damage that truncation
  /// cannot attribute, and nothing recovered from it may be served.
  bool ok = false;
  std::string error;

  /// The recovered operation stream; entries[i] has sequence number i.
  /// Empty directory -> ok with no entries.
  std::vector<core::JournalEntry> entries;
  uint64_t next_seqno = 0;  // entries.size()

  /// Aggregate damage accounting (also exported as recovery.* counters).
  uint64_t replayed_ops = 0;
  uint64_t truncated_bytes = 0;
  uint32_t corrupt_records = 0;
  /// True when a torn/corrupt tail was dropped — acked-but-unsynced ops may
  /// be gone, distinguishable from `corrupt_records` damage by the caller.
  bool tail_lost = false;
  /// Segment files RepairJournal truncated to their valid prefix (torn or
  /// corrupt tail) or removed (bad-header torn creation).
  uint32_t repaired_segments = 0;

  std::vector<SegmentInfo> segments;
};

/// Scans every segment in `dir` (oldest first), applying the cross-segment
/// fail-closed rules, and bumps the recovery.{replayed_ops,truncated_bytes,
/// corrupt_records,failed_closed} counters. Read-only.
JournalRecovery RecoverJournal(Vfs* vfs, const std::string& dir);

/// Repairs what a successful RecoverJournal(`dir`) scan attributed, so the
/// next recovery starts clean: truncates torn/corrupt tails to their valid
/// prefix and removes bad-header torn creations, counting each in
/// `recovery->repaired_segments` (and recovery.repaired_segments). Stops at
/// the first I/O failure. `recovery` must be a successful scan of `dir`.
IoStatus RepairJournal(Vfs* vfs, const std::string& dir,
                       JournalRecovery* recovery);

}  // namespace gem2::store

#endif  // GEM2_STORE_DURABLE_JOURNAL_H_
