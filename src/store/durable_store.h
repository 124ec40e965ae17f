/// \file durable_store.h
/// The durable SP storage engine: checkpoint + journal-suffix recovery.
///
/// DurableSpStore owns one directory holding journal segments ("seg-*.log",
/// durable_journal.h) and epoch checkpoints ("ckpt-*", checkpoint.h) side by
/// side, and keeps one invariant: the driven StateMachine always equals the
/// checkpointed state plus the journal suffix past the checkpoint's seqno.
/// Open() proves it by construction — restore the newest good checkpoint
/// (falling back past damaged ones), replay the suffix, fail closed on any
/// damage truncation cannot attribute. Apply() maintains it — durable journal
/// append first, acknowledge (apply to the state machine) second, so a crash
/// at any instant loses at most un-acked work under FsyncPolicy::kEveryRecord.
#ifndef GEM2_STORE_DURABLE_STORE_H_
#define GEM2_STORE_DURABLE_STORE_H_

#include <memory>
#include <string>

#include "store/checkpoint.h"
#include "store/durable_journal.h"
#include "store/state_machine.h"
#include "store/vfs.h"

namespace gem2::store {

struct StoreOptions {
  JournalOptions journal;
  /// Publish a checkpoint automatically every this many applied ops
  /// (0 = only explicit Checkpoint() calls).
  uint64_t checkpoint_interval = 0;
};

/// What Open() found and did; mirrored into the recovery.* counters.
struct RecoveryReport {
  bool ok = false;
  std::string error;

  bool used_checkpoint = false;
  uint64_t checkpoint_seqno = 0;
  uint32_t discarded_checkpoints = 0;

  /// Journal entries applied on top of the restored state.
  uint64_t replayed_ops = 0;
  uint64_t truncated_bytes = 0;
  uint32_t corrupt_records = 0;
  bool tail_lost = false;
  /// Segment files whose torn/corrupt tails Open() truncated away (or, for
  /// bad-header torn creations, removed) so the next recovery starts clean.
  uint32_t repaired_segments = 0;

  uint64_t next_seqno = 0;
};

class DurableSpStore {
 public:
  /// Recovers `state` from `dir` (which may be empty/missing: a fresh store)
  /// and opens the journal for appending. Returns nullptr with the failure
  /// recorded in `*report` when the directory is damaged beyond attributable
  /// truncation — serving from it would risk a silently wrong SP.
  /// `state` must outlive the store.
  static std::unique_ptr<DurableSpStore> Open(Vfs* vfs, const std::string& dir,
                                              StateMachine* state,
                                              const StoreOptions& options,
                                              RecoveryReport* report);

  /// Durably journals `entry`, then applies it to the state machine. False
  /// (entry NOT applied — fail closed) on journal I/O failure.
  bool Apply(const core::JournalEntry& entry);

  /// Snapshots the state machine, publishes it as a checkpoint at the current
  /// seqno, and prunes covered journal segments.
  bool Checkpoint(std::string* error);

  bool Sync() { return journal_->Sync(); }

  /// The underlying sink, for wiring into core::DbOptions::journal_sink.
  core::JournalSink* sink() { return journal_.get(); }

  uint64_t next_seqno() const { return journal_->next_seqno(); }
  const RecoveryReport& recovery() const { return recovery_; }
  std::string last_error() const { return journal_->last_error(); }

 private:
  DurableSpStore(Vfs* vfs, std::string dir, StateMachine* state,
                 StoreOptions options)
      : vfs_(vfs),
        dir_(std::move(dir)),
        state_(state),
        options_(std::move(options)) {}

  Vfs* vfs_;
  std::string dir_;
  StateMachine* state_;
  StoreOptions options_;
  std::unique_ptr<DurableJournal> journal_;
  RecoveryReport recovery_;
  uint64_t ops_since_checkpoint_ = 0;
};

}  // namespace gem2::store

#endif  // GEM2_STORE_DURABLE_STORE_H_
