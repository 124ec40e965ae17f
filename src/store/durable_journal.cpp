#include "store/durable_journal.h"

#include <algorithm>
#include <utility>

#include "telemetry/event_log.h"
#include "telemetry/metrics.h"

namespace gem2::store {
namespace {

void Bump(const char* name, uint64_t delta) {
  if (delta == 0) return;
  telemetry::MetricsRegistry::Global().counter(name).Add(delta);
}

void EmitRecoveryEvent(const JournalRecovery& recovery) {
  auto& log = telemetry::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(telemetry::Event("store.journal_recovery")
               .Num("ok", recovery.ok ? 1 : 0)
               .Num("replayed_ops", recovery.replayed_ops)
               .Num("truncated_bytes", recovery.truncated_bytes)
               .Num("corrupt_records", recovery.corrupt_records)
               .Num("tail_lost", recovery.tail_lost ? 1 : 0)
               .Str("error", recovery.error));
}

JournalRecovery FailClosed(JournalRecovery recovery, std::string error) {
  recovery.ok = false;
  recovery.error = std::move(error);
  recovery.entries.clear();
  recovery.replayed_ops = 0;
  Bump("recovery.failed_closed", 1);
  Bump("recovery.corrupt_records", recovery.corrupt_records);
  EmitRecoveryEvent(recovery);
  return recovery;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "unknown";
}

std::unique_ptr<DurableJournal> DurableJournal::Open(
    Vfs* vfs, const std::string& dir, uint64_t next_seqno,
    const JournalOptions& options, std::string* error) {
  if (IoStatus status = vfs->CreateDir(dir); !status) {
    if (error != nullptr) *error = status.message;
    return nullptr;
  }
  std::unique_ptr<DurableJournal> journal(
      new DurableJournal(vfs, dir, next_seqno, options));
  if (!journal->StartSegment()) {
    if (error != nullptr) *error = journal->last_error_;
    return nullptr;
  }
  return journal;
}

std::unique_ptr<DurableJournal> DurableJournal::Recover(
    Vfs* vfs, const std::string& dir, const JournalOptions& options,
    JournalRecovery* recovery, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };
  *recovery = RecoverJournal(vfs, dir);
  if (!recovery->ok) return fail(recovery->error);
  if (IoStatus status = RepairJournal(vfs, dir, recovery); !status) {
    return fail(status.message);
  }
  std::string open_error;
  std::unique_ptr<DurableJournal> journal =
      Open(vfs, dir, recovery->next_seqno, options, &open_error);
  if (journal == nullptr) return fail("reopen journal: " + open_error);
  return journal;
}

bool DurableJournal::Fail(const std::string& message) {
  failed_ = true;
  last_error_ = message;
  telemetry::MetricsRegistry::Global()
      .counter("store.journal_append_failures")
      .Add(1);
  return false;
}

bool DurableJournal::StartSegment() {
  if (segment_ != nullptr) {
    // Make the outgoing segment durable before the new one takes over the
    // seqno chain; a crash between the two must not lose its synced tail.
    if (unsynced_records_ > 0 || options_.fsync_policy != FsyncPolicy::kNever) {
      if (IoStatus status = segment_->Sync(); !status) {
        return Fail("segment rotation sync: " + status.message);
      }
      unsynced_records_ = 0;
    }
    if (IoStatus status = segment_->Close(); !status) {
      return Fail("segment rotation close: " + status.message);
    }
  }
  segment_base_ = next_seqno_;
  const std::string path = dir_ + "/" + SegmentFileName(segment_base_);
  // A leftover file at exactly this base holds records recovery never
  // validated (a dropped bad-header segment, or stale garbage); appending
  // after it would interleave trusted and untrusted bytes.
  if (vfs_->FileExists(path)) {
    if (IoStatus status = vfs_->RemoveFile(path); !status) {
      return Fail("remove stale segment " + path + ": " + status.message);
    }
  }
  IoStatus status = IoStatus::Ok();
  segment_ = vfs_->OpenAppend(path, &status);
  if (segment_ == nullptr) {
    return Fail("open segment " + path + ": " + status.message);
  }
  const Bytes header = SegmentHeader(segment_base_);
  if (status = segment_->Append(header.data(), header.size()); !status) {
    return Fail("write segment header: " + status.message);
  }
  // The header must be durable before any record relies on it framing them.
  if (options_.fsync_policy != FsyncPolicy::kNever) {
    if (status = segment_->Sync(); !status) {
      return Fail("sync segment header: " + status.message);
    }
  }
  segment_bytes_ = header.size();
  return true;
}

bool DurableJournal::Append(const core::JournalEntry& entry) {
  if (failed_) return false;  // fail closed until reopened
  if (segment_bytes_ >= options_.segment_bytes && !StartSegment()) {
    return false;
  }
  Bytes payload;
  core::AppendJournalEntryBody(&payload, entry);
  Bytes frame;
  AppendRecordFrame(&frame, payload);
  if (IoStatus status = segment_->Append(frame.data(), frame.size()); !status) {
    return Fail("append record: " + status.message);
  }
  segment_bytes_ += frame.size();
  ++next_seqno_;
  ++unsynced_records_;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kBatch:
      if (unsynced_records_ >= options_.batch_records && !Sync()) return false;
      break;
    case FsyncPolicy::kEveryRecord:
      if (!Sync()) return false;
      break;
  }
  telemetry::MetricsRegistry::Global()
      .counter("store.journal_appends")
      .Add(1);
  return true;
}

bool DurableJournal::Sync() {
  if (failed_) return false;
  if (segment_ == nullptr) return true;
  if (IoStatus status = segment_->Sync(); !status) {
    return Fail("sync: " + status.message);
  }
  unsynced_records_ = 0;
  return true;
}

JournalRecovery RecoverJournal(Vfs* vfs, const std::string& dir) {
  JournalRecovery recovery;
  auto names = vfs->ListDir(dir);
  if (!names.has_value()) {
    // No directory at all: a fresh SP with nothing to replay.
    recovery.ok = true;
    EmitRecoveryEvent(recovery);
    return recovery;
  }

  std::vector<std::pair<uint64_t, std::string>> segments;  // (base, name)
  for (const std::string& name : *names) {
    uint64_t base = 0;
    if (ParseSegmentFileName(name, &base)) segments.emplace_back(base, name);
  }
  std::sort(segments.begin(), segments.end());
  if (segments.empty()) {
    recovery.ok = true;
    EmitRecoveryEvent(recovery);
    return recovery;
  }

  // The stream starts at seqno 0: replay rebuilds the SP from the first op,
  // so a missing head segment is a gap like any other.
  uint64_t expected_base = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, name] = segments[i];
    const bool last = i + 1 == segments.size();

    Bytes image;
    if (IoStatus status = vfs->ReadFile(dir + "/" + name, &image); !status) {
      return FailClosed(std::move(recovery),
                        "read " + name + ": " + status.message);
    }
    SegmentScan scan = ScanSegment(image);

    SegmentInfo info;
    info.name = name;
    info.base_seqno = scan.base_seqno;
    info.records = scan.entries.size();
    info.outcome = scan.outcome;
    info.valid_bytes = scan.valid_bytes;
    info.truncated_bytes = scan.truncated_bytes;
    info.error = scan.error;
    recovery.segments.push_back(info);

    if (scan.outcome == SegmentScan::Outcome::kBadHeader) {
      if (!last) {
        return FailClosed(std::move(recovery),
                          name + ": " + scan.error + " (non-final segment)");
      }
      // A final segment whose header never became durable (possible under
      // FsyncPolicy::kNever before the first rotation syncs it) is a torn
      // creation: it holds nothing attributable, drop the whole file.
      recovery.tail_lost = true;
      recovery.truncated_bytes += scan.truncated_bytes;
      break;
    }
    if (scan.failed_closed()) {
      recovery.corrupt_records += scan.corrupt_records;
      return FailClosed(std::move(recovery), name + ": " + scan.error);
    }
    if (scan.base_seqno != base) {
      return FailClosed(std::move(recovery),
                        name + ": header seqno " +
                            std::to_string(scan.base_seqno) +
                            " disagrees with file name");
    }
    if (base != expected_base) {
      // A hole between segments: records expected_base..base-1 are missing
      // entirely. Truncation cannot explain a gap, so fail closed.
      return FailClosed(std::move(recovery),
                        "sequence gap: expected segment base " +
                            std::to_string(expected_base) + ", found " +
                            name);
    }
    if (!last && scan.outcome != SegmentScan::Outcome::kClean) {
      // Damage in a non-last segment has data after it (the later segments),
      // which makes it mid-stream corruption no matter what the tail of this
      // file looks like.
      recovery.corrupt_records += scan.corrupt_records;
      return FailClosed(std::move(recovery),
                        name + ": torn/corrupt tail in a non-final segment");
    }

    recovery.corrupt_records += scan.corrupt_records;
    recovery.truncated_bytes += scan.truncated_bytes;
    if (scan.outcome != SegmentScan::Outcome::kClean) recovery.tail_lost = true;
    recovery.entries.insert(recovery.entries.end(), scan.entries.begin(),
                            scan.entries.end());
    expected_base = base + scan.entries.size();
  }

  recovery.ok = true;
  recovery.replayed_ops = recovery.entries.size();
  recovery.next_seqno = recovery.entries.size();
  Bump("recovery.replayed_ops", recovery.replayed_ops);
  Bump("recovery.truncated_bytes", recovery.truncated_bytes);
  Bump("recovery.corrupt_records", recovery.corrupt_records);
  if (recovery.tail_lost) Bump("recovery.tail_lost", 1);
  EmitRecoveryEvent(recovery);
  return recovery;
}

IoStatus RepairJournal(Vfs* vfs, const std::string& dir,
                       JournalRecovery* recovery) {
  for (const SegmentInfo& info : recovery->segments) {
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
      return IoStatus::Error("repair " + info.name + ": " + repaired.message);
    }
    ++recovery->repaired_segments;
    Bump("recovery.repaired_segments", 1);
  }
  return IoStatus::Ok();
}

}  // namespace gem2::store
