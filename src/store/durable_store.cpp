#include "store/durable_store.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace gem2::store {
namespace {

RecoveryReport FailClosed(RecoveryReport report, std::string error) {
  report.ok = false;
  report.error = std::move(error);
  return report;
}

}  // namespace

std::unique_ptr<DurableSpStore> DurableSpStore::Open(
    Vfs* vfs, const std::string& dir, StateMachine* state,
    const StoreOptions& options, RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};

  // 1. Scan the journal. Any damage past an attributable tail fails here.
  JournalRecovery journal = RecoverJournal(vfs, dir);
  rep.replayed_ops = 0;
  rep.truncated_bytes = journal.truncated_bytes;
  rep.corrupt_records = journal.corrupt_records;
  rep.tail_lost = journal.tail_lost;
  if (!journal.ok) {
    rep = FailClosed(std::move(rep), journal.error);
    return nullptr;
  }
  // Repair what the scan attributed: truncate torn/corrupt tails to their
  // valid prefix and delete bad-header torn creations. Without this, the
  // leftover tail would sit *behind* the next segment we open and turn into
  // fail-closed "mid-stream" damage on the recovery after this one.
  for (const SegmentInfo& info : journal.segments) {
    const std::string path = dir + "/" + info.name;
    IoStatus repaired = IoStatus::Ok();
    switch (info.outcome) {
      case SegmentScan::Outcome::kTornTail:
      case SegmentScan::Outcome::kCorruptTail:
        repaired = vfs->TruncateFile(path, info.valid_bytes);
        break;
      case SegmentScan::Outcome::kBadHeader:
        repaired = vfs->RemoveFile(path);
        break;
      case SegmentScan::Outcome::kClean:
      case SegmentScan::Outcome::kCorrupt:
        continue;
    }
    if (!repaired) {
      rep = FailClosed(std::move(rep),
                       "repair " + info.name + ": " + repaired.message);
      return nullptr;
    }
    ++rep.repaired_segments;
  }

  // 2. Restore the newest good checkpoint (if any). A checkpoint whose pages
  // checksum but whose state image does not restore counts as damaged too —
  // fall back to full replay when the journal still covers seqno 0.
  state->Reset();
  uint64_t base_seqno = 0;
  CheckpointLoad ckpt = LoadLatestCheckpoint(vfs, dir);
  rep.discarded_checkpoints = ckpt.discarded;
  if (ckpt.found) {
    if (state->RestoreState(ckpt.state)) {
      rep.used_checkpoint = true;
      rep.checkpoint_seqno = ckpt.seqno;
      base_seqno = ckpt.seqno;
    } else {
      state->Reset();
      ++rep.discarded_checkpoints;
      telemetry::MetricsRegistry::Global()
          .counter("recovery.discarded_checkpoints")
          .Add(1);
    }
  }

  // 3. Replay the journal suffix past the restored seqno.
  if (!journal.entries.empty() || journal.next_seqno > 0) {
    if (journal.first_seqno > base_seqno) {
      // The journal starts after the state we restored: the records in
      // between are gone (over-pruned or deleted), and nothing can attest
      // what they held. Fail closed.
      rep = FailClosed(std::move(rep),
                       "journal starts at seqno " +
                           std::to_string(journal.first_seqno) +
                           " but recovered state ends at " +
                           std::to_string(base_seqno));
      return nullptr;
    }
    for (size_t i = base_seqno - journal.first_seqno;
         i < journal.entries.size(); ++i) {
      state->Apply(journal.entries[i]);
      ++rep.replayed_ops;
    }
  }
  rep.next_seqno = std::max(base_seqno, journal.next_seqno);

  // 4. Open for appending, re-anchoring the seqno chain in a new segment.
  std::unique_ptr<DurableSpStore> store(
      new DurableSpStore(vfs, dir, state, options));
  std::string error;
  store->journal_ = DurableJournal::Open(vfs, dir, rep.next_seqno,
                                         options.journal, &error);
  if (store->journal_ == nullptr) {
    rep = FailClosed(std::move(rep), "reopen journal: " + error);
    return nullptr;
  }
  rep.ok = true;
  if (rep.used_checkpoint) {
    telemetry::MetricsRegistry::Global()
        .counter("recovery.checkpoint_restores")
        .Add(1);
  }
  if (rep.repaired_segments > 0) {
    telemetry::MetricsRegistry::Global()
        .counter("recovery.repaired_segments")
        .Add(rep.repaired_segments);
  }
  store->recovery_ = rep;
  return store;
}

bool DurableSpStore::Apply(const core::JournalEntry& entry) {
  if (!journal_->Append(entry)) return false;
  state_->Apply(entry);
  ++ops_since_checkpoint_;
  if (options_.checkpoint_interval > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_interval) {
    std::string error;
    // A failed auto-checkpoint is not a lost op — the journal already holds
    // everything — so it degrades to slower recovery, not failure.
    Checkpoint(&error);
  }
  return true;
}

bool DurableSpStore::Checkpoint(std::string* error) {
  // Everything the checkpoint covers must be durable before the checkpoint
  // claims to cover it.
  if (!journal_->Sync()) {
    if (error != nullptr) *error = journal_->last_error();
    return false;
  }
  const uint64_t seqno = journal_->next_seqno();
  if (IoStatus status =
          WriteCheckpoint(vfs_, dir_, seqno, state_->SnapshotState());
      !status) {
    if (error != nullptr) *error = status.message;
    return false;
  }
  ops_since_checkpoint_ = 0;
  journal_->PruneSegmentsBelow(seqno);
  return true;
}

}  // namespace gem2::store
