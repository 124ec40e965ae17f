// Durable SP journal tests: segment format and recovery scan (including the
// exhaustive truncation and bit-flip sweeps of the recover-or-fail-closed
// contract), fsync policies against simulated power cuts, the
// recover-repair-reopen path (DurableJournal::Recover) across torn tails,
// and the real-filesystem Vfs path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "fault/failpoint_sweep.h"
#include "seed_util.h"
#include "store/durable_journal.h"
#include "store/segment.h"
#include "store/vfs.h"

namespace gem2::store {
namespace {

using core::JournalEntry;
using testutil::SeedReporter;

std::vector<JournalEntry> SampleEntries(size_t n) {
  std::vector<JournalEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    JournalEntry e;
    e.op = i % 5 == 4 ? JournalEntry::Op::kDelete
           : i % 3 == 2 ? JournalEntry::Op::kUpdate
                        : JournalEntry::Op::kInsert;
    e.object.key = static_cast<Key>(100 + i);
    e.object.value =
        e.op == JournalEntry::Op::kDelete
            ? ""
            : "value-" + std::to_string(i) + std::string(i % 7, 'p');
    entries.push_back(std::move(e));
  }
  return entries;
}

Bytes BuildSegment(uint64_t base, const std::vector<JournalEntry>& entries) {
  Bytes image = SegmentHeader(base);
  for (const JournalEntry& e : entries) {
    Bytes body;
    core::AppendJournalEntryBody(&body, e);
    AppendRecordFrame(&image, body);
  }
  return image;
}

TEST(Crc32c, KnownAnswer) {
  // The CRC32C check value from RFC 3720: crc("123456789") = 0xE3069283.
  const char* s = "123456789";
  EXPECT_EQ(common::Crc32c(reinterpret_cast<const uint8_t*>(s), 9),
            0xE3069283u);
  EXPECT_EQ(common::Crc32c(nullptr, 0), 0u);
}

TEST(Segment, CleanScanRoundTrips) {
  const auto entries = SampleEntries(9);
  const Bytes image = BuildSegment(42, entries);
  const SegmentScan scan = ScanSegment(image);
  EXPECT_EQ(scan.outcome, SegmentScan::Outcome::kClean);
  EXPECT_EQ(scan.base_seqno, 42u);
  EXPECT_EQ(scan.entries, entries);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.truncated_bytes, 0u);
}

TEST(Segment, FileNameRoundTrips) {
  uint64_t base = 0;
  EXPECT_TRUE(ParseSegmentFileName(SegmentFileName(7), &base));
  EXPECT_EQ(base, 7u);
  EXPECT_FALSE(ParseSegmentFileName("seg-123.log", &base));
  EXPECT_FALSE(ParseSegmentFileName("ckpt-00000000000000000007", &base));
}

// The durability headline, part 1: EVERY byte-length truncation of a segment
// recovers a valid prefix of the original records (or reports an unusable
// header) — never a crash, never different records.
TEST(Segment, ExhaustiveTruncationRecoversAPrefixOrFailsClosed) {
  const auto entries = SampleEntries(12);
  const Bytes image = BuildSegment(0, entries);
  for (size_t len = 0; len < image.size(); ++len) {
    const Bytes cut(image.begin(), image.begin() + static_cast<long>(len));
    const SegmentScan scan = ScanSegment(cut);
    if (len < kSegmentHeaderBytes) {
      EXPECT_EQ(scan.outcome, SegmentScan::Outcome::kBadHeader) << len;
      continue;
    }
    // A truncation is a lost tail, never mid-stream damage.
    EXPECT_NE(scan.outcome, SegmentScan::Outcome::kCorrupt) << len;
    ASSERT_LE(scan.entries.size(), entries.size()) << len;
    for (size_t i = 0; i < scan.entries.size(); ++i) {
      ASSERT_EQ(scan.entries[i], entries[i]) << "prefix diverged at " << len;
    }
    EXPECT_EQ(scan.valid_bytes + scan.truncated_bytes, len) << len;
  }
}

// Part 2: EVERY single-byte flip yields a valid prefix of the original
// records or a fail-closed refusal — never a crash, never a silently wrong
// stream. (Bytes 20..23 are unchecksummed header padding: a flip there is
// semantically invisible and legitimately scans clean.)
TEST(Segment, ExhaustiveByteFlipNeverYieldsWrongRecords) {
  const auto entries = SampleEntries(10);
  const Bytes image = BuildSegment(3, entries);
  for (size_t off = 0; off < image.size(); ++off) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      Bytes flipped = image;
      flipped[off] ^= mask;
      const SegmentScan scan = ScanSegment(flipped);
      ASSERT_LE(scan.entries.size(), entries.size()) << off;
      for (size_t i = 0; i < scan.entries.size(); ++i) {
        ASSERT_EQ(scan.entries[i], entries[i])
            << "byte " << off << " mask " << int(mask)
            << " produced records that are not a prefix";
      }
      if (scan.outcome == SegmentScan::Outcome::kClean) {
        // Only the unchecksummed header padding may scan clean after a flip.
        ASSERT_GE(off, 20u) << "flip at " << off << " went undetected";
        ASSERT_LT(off, kSegmentHeaderBytes);
        EXPECT_EQ(scan.entries, entries);
      }
    }
  }
}

TEST(Segment, MidStreamCorruptionFailsClosed) {
  const auto entries = SampleEntries(8);
  const Bytes image = BuildSegment(0, entries);
  // Flip a payload byte of the FIRST record: valid records follow, so the
  // scan must refuse the segment rather than resync past the hole.
  Bytes corrupt = image;
  corrupt[kSegmentHeaderBytes + 8 + 2] ^= 0x10;
  const SegmentScan scan = ScanSegment(corrupt);
  EXPECT_EQ(scan.outcome, SegmentScan::Outcome::kCorrupt);
  EXPECT_TRUE(scan.failed_closed());
  EXPECT_EQ(scan.corrupt_records, 1u);
  EXPECT_TRUE(scan.entries.empty());
}

TEST(Segment, CorruptFinalRecordTruncates) {
  const auto entries = SampleEntries(6);
  const Bytes image = BuildSegment(0, entries);
  Bytes corrupt = image;
  corrupt.back() ^= 0x01;  // last byte of the last record's payload
  const SegmentScan scan = ScanSegment(corrupt);
  EXPECT_EQ(scan.outcome, SegmentScan::Outcome::kCorruptTail);
  EXPECT_EQ(scan.entries.size(), entries.size() - 1);
  EXPECT_EQ(scan.corrupt_records, 1u);
}

TEST(MemVfsModel, PowerCutKeepsDurableAndTearsVolatile) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/d").ok);
  IoStatus status = IoStatus::Ok();
  auto f = vfs.OpenAppend("/d/f", &status);
  ASSERT_NE(f, nullptr);
  const Bytes synced = {1, 2, 3, 4};
  const Bytes unsynced = {5, 6, 7, 8, 9};
  ASSERT_TRUE(f->Append(synced.data(), synced.size()).ok);
  ASSERT_TRUE(f->Sync().ok);
  ASSERT_TRUE(f->Append(unsynced.data(), unsynced.size()).ok);

  vfs.CutPower([](size_t volatile_bytes) { return volatile_bytes / 2; });
  EXPECT_TRUE(vfs.powered_off());
  EXPECT_FALSE(vfs.ReadFile("/d/f", nullptr).ok);

  vfs.Restart();
  Bytes after;
  ASSERT_TRUE(vfs.ReadFile("/d/f", &after).ok);
  EXPECT_EQ(after, (Bytes{1, 2, 3, 4, 5, 6}));  // synced + torn prefix
}

/// Publishes a long image, then a shorter one, at `dir`/f: the shorter one
/// replaces the whole file, with or without sync, and no `.tmp` remains.
void ExpectWriteFileAtomicReplaces(Vfs* vfs, const std::string& dir) {
  const std::string path = dir + "/f";
  const Bytes longer(100, 0xaa);
  const Bytes shorter = {1, 2, 3};
  for (bool sync : {false, true}) {
    ASSERT_TRUE(vfs->WriteFileAtomic(path, longer, sync).ok);
    ASSERT_TRUE(vfs->WriteFileAtomic(path, shorter, sync).ok);
    Bytes read;
    ASSERT_TRUE(vfs->ReadFile(path, &read).ok);
    EXPECT_EQ(read, shorter) << "sync " << sync;
    EXPECT_FALSE(vfs->FileExists(path + ".tmp"));
    EXPECT_EQ(vfs->ListDir(dir), std::vector<std::string>{"f"});
  }
  ASSERT_TRUE(vfs->WriteFileAtomic(path, {}, true).ok);
  EXPECT_EQ(vfs->FileSize(path), 0u);
}

TEST(MemVfsModel, WriteFileAtomicReplacesTheWholeFile) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/d").ok);
  ExpectWriteFileAtomicReplaces(&vfs, "/d");
}

TEST(DurableJournal, RotatesSegmentsAndRecoversAcrossThem) {
  MemVfs vfs;
  JournalOptions options;
  options.segment_bytes = 128;  // force frequent rotation
  std::string error;
  auto journal = DurableJournal::Open(&vfs, "/j", 0, options, &error);
  ASSERT_NE(journal, nullptr) << error;

  const auto entries = SampleEntries(40);
  for (const JournalEntry& e : entries) ASSERT_TRUE(journal->Append(e));
  EXPECT_EQ(journal->next_seqno(), entries.size());
  auto names = vfs.ListDir("/j");
  ASSERT_TRUE(names.has_value());
  EXPECT_GT(names->size(), 3u) << "rotation never triggered";

  const JournalRecovery recovery = RecoverJournal(&vfs, "/j");
  ASSERT_TRUE(recovery.ok) << recovery.error;
  EXPECT_EQ(recovery.entries, entries);
  EXPECT_EQ(recovery.next_seqno, entries.size());
  EXPECT_FALSE(recovery.tail_lost);
}

TEST(DurableJournal, FsyncPolicyDecidesWhatAPowerCutCosts) {
  const auto entries = SampleEntries(20);
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kBatch, FsyncPolicy::kEveryRecord}) {
    MemVfs vfs;
    JournalOptions options;
    options.fsync_policy = policy;
    options.batch_records = 4;
    std::string error;
    auto journal = DurableJournal::Open(&vfs, "/j", 0, options, &error);
    ASSERT_NE(journal, nullptr) << error;
    for (const JournalEntry& e : entries) ASSERT_TRUE(journal->Append(e));

    // Worst-case power cut: every unsynced byte is gone.
    vfs.CutPower([](size_t) { return 0; });
    vfs.Restart();
    const JournalRecovery recovery = RecoverJournal(&vfs, "/j");
    ASSERT_TRUE(recovery.ok) << recovery.error;
    switch (policy) {
      case FsyncPolicy::kEveryRecord:
        EXPECT_EQ(recovery.entries.size(), entries.size());
        break;
      case FsyncPolicy::kBatch:
        EXPECT_GE(recovery.entries.size(),
                  entries.size() - options.batch_records);
        break;
      case FsyncPolicy::kNever:
        EXPECT_LE(recovery.entries.size(), entries.size());
        break;
    }
    for (size_t i = 0; i < recovery.entries.size(); ++i) {
      ASSERT_EQ(recovery.entries[i], entries[i]);
    }
  }
}

TEST(DurableJournal, DamageInNonFinalSegmentFailsClosed) {
  MemVfs vfs;
  JournalOptions options;
  options.segment_bytes = 128;
  std::string error;
  auto journal = DurableJournal::Open(&vfs, "/j", 0, options, &error);
  ASSERT_NE(journal, nullptr) << error;
  for (const JournalEntry& e : SampleEntries(40)) {
    ASSERT_TRUE(journal->Append(e));
  }
  auto names = vfs.ListDir("/j");
  ASSERT_TRUE(names.has_value() && names->size() >= 3);

  // Rot a record byte in the FIRST segment: later segments depend on it.
  ASSERT_TRUE(vfs.CorruptByte("/j/" + names->front(),
                              kSegmentHeaderBytes + 10, 0x04));
  const JournalRecovery recovery = RecoverJournal(&vfs, "/j");
  EXPECT_FALSE(recovery.ok);
  EXPECT_TRUE(recovery.entries.empty());
  EXPECT_FALSE(recovery.error.empty());
}

TEST(DurableJournal, SequenceGapBetweenSegmentsFailsClosed) {
  MemVfs vfs;
  JournalOptions options;
  options.segment_bytes = 128;
  std::string error;
  auto journal = DurableJournal::Open(&vfs, "/j", 0, options, &error);
  ASSERT_NE(journal, nullptr) << error;
  for (const JournalEntry& e : SampleEntries(40)) {
    ASSERT_TRUE(journal->Append(e));
  }
  auto names = vfs.ListDir("/j");
  ASSERT_TRUE(names.has_value() && names->size() >= 3);
  ASSERT_TRUE(vfs.RemoveFile("/j/" + (*names)[1]).ok);  // middle segment gone

  const JournalRecovery recovery = RecoverJournal(&vfs, "/j");
  EXPECT_FALSE(recovery.ok);
  EXPECT_NE(recovery.error.find("gap"), std::string::npos) << recovery.error;
}

TEST(DurableJournal, MissingHeadSegmentFailsClosed) {
  MemVfs vfs;
  JournalOptions options;
  options.segment_bytes = 128;
  std::string error;
  auto journal = DurableJournal::Open(&vfs, "/j", 0, options, &error);
  ASSERT_NE(journal, nullptr) << error;
  for (const JournalEntry& e : SampleEntries(40)) {
    ASSERT_TRUE(journal->Append(e));
  }
  auto names = vfs.ListDir("/j");
  ASSERT_TRUE(names.has_value() && names->size() >= 3);
  ASSERT_TRUE(vfs.RemoveFile("/j/" + names->front()).ok);  // seqno 0.. gone

  // Replay starts at seqno 0: a stream without its head is a gap, not a
  // shorter journal.
  const JournalRecovery recovery = RecoverJournal(&vfs, "/j");
  EXPECT_FALSE(recovery.ok);
  EXPECT_TRUE(recovery.entries.empty());
  EXPECT_NE(recovery.error.find("gap"), std::string::npos) << recovery.error;
}

// Regression: recover a journal whose tail was torn, resume appending, and
// recover again. Recovery must repair the torn tail it dropped before it
// reopens; a read-only scan followed by DurableJournal::Open leaves the torn
// bytes behind the new segment, and the next recovery fails closed on them
// as damage in a non-final segment.
TEST(DurableJournal, RecoverThenResumeThenRecoverAfterTornTail) {
  MemVfs vfs;
  const auto entries = SampleEntries(15);
  const std::vector<JournalEntry> first(entries.begin(), entries.begin() + 10);
  const std::vector<JournalEntry> resumed(entries.begin() + 10, entries.end());
  std::string error;
  {
    auto journal = DurableJournal::Open(&vfs, "/j", 0, JournalOptions{}, &error);
    ASSERT_NE(journal, nullptr) << error;
    for (const JournalEntry& e : first) ASSERT_TRUE(journal->Append(e));
  }
  auto names = vfs.ListDir("/j");
  ASSERT_TRUE(names.has_value());
  ASSERT_EQ(names->size(), 1u);
  const std::string tail = "/j/" + names->front();
  ASSERT_TRUE(vfs.TruncateFile(tail, *vfs.FileSize(tail) - 3).ok);

  JournalRecovery recovery;
  {
    auto journal =
        DurableJournal::Recover(&vfs, "/j", JournalOptions{}, &recovery, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_TRUE(recovery.tail_lost);
    EXPECT_EQ(recovery.repaired_segments, 1u);
    EXPECT_EQ(recovery.entries,
              std::vector<JournalEntry>(first.begin(), first.end() - 1));
    EXPECT_EQ(journal->next_seqno(), 9u);
    for (const JournalEntry& e : resumed) ASSERT_TRUE(journal->Append(e));
  }

  JournalRecovery again;
  auto journal =
      DurableJournal::Recover(&vfs, "/j", JournalOptions{}, &again, &error);
  ASSERT_NE(journal, nullptr) << "second recovery failed closed: " << error;
  EXPECT_FALSE(again.tail_lost);
  EXPECT_EQ(again.repaired_segments, 0u);
  std::vector<JournalEntry> expected(first.begin(), first.end() - 1);
  expected.insert(expected.end(), resumed.begin(), resumed.end());
  EXPECT_EQ(again.entries, expected);
  EXPECT_EQ(again.next_seqno, 14u);
}

// The same property under a real power cut: the torn tail is whatever
// prefix of the unsynced bytes survived, and the resumed op lands in a
// fresh segment after the repaired one.
TEST(DurableJournal, RecoveryAfterRecoveryAfterTornTail) {
  MemVfs vfs;
  JournalOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  const auto stream = fault::OwnerStream(23, 60);
  std::string error;
  {
    JournalRecovery fresh;
    auto journal = DurableJournal::Recover(&vfs, "/sp", options, &fresh, &error);
    ASSERT_NE(journal, nullptr) << error;
    for (const JournalEntry& e : stream) ASSERT_TRUE(journal->Append(e));
  }
  // Power cut mid-write: keep an odd prefix of the unsynced tail.
  vfs.CutPower([](size_t volatile_bytes) {
    return volatile_bytes > 3 ? volatile_bytes - 3 : 0;
  });
  vfs.Restart();

  JournalEntry extra;
  extra.op = JournalEntry::Op::kInsert;
  extra.object = {int64_t{7'000'000}, "second-life"};
  JournalRecovery first;
  {
    auto journal = DurableJournal::Recover(&vfs, "/sp", options, &first, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_LT(first.entries.size(), stream.size());
    // Write through the reopened journal so the second recovery has a suffix.
    ASSERT_TRUE(journal->Append(extra));
    ASSERT_TRUE(journal->Sync());
  }

  JournalRecovery second;
  auto reopened = DurableJournal::Recover(&vfs, "/sp", options, &second, &error);
  ASSERT_NE(reopened, nullptr) << "second recovery failed closed: " << error;
  EXPECT_EQ(second.next_seqno, first.next_seqno + 1);
  std::vector<JournalEntry> expected(
      stream.begin(), stream.begin() + static_cast<long>(first.entries.size()));
  expected.push_back(extra);
  EXPECT_EQ(second.entries, expected);
}

TEST(PosixVfsStore, EngineWorksOnTheRealFilesystem) {
  char tmpl[] = "/tmp/gem2_store_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string root = std::string(dir) + "/sp";

  PosixVfs vfs;
  JournalOptions options;
  options.segment_bytes = 512;
  const auto stream = fault::OwnerStream(51, 50);
  std::string error;
  {
    JournalRecovery fresh;
    auto journal = DurableJournal::Recover(&vfs, root, options, &fresh, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_TRUE(fresh.entries.empty());
    for (const JournalEntry& e : stream) ASSERT_TRUE(journal->Append(e));
  }
  auto names = vfs.ListDir(root);
  ASSERT_TRUE(names.has_value());
  ASSERT_GT(names->size(), 1u) << "rotation never triggered";

  // Tear the final segment on disk, then recover, resume and recover again.
  std::sort(names->begin(), names->end());
  const std::string tail = root + "/" + names->back();
  ASSERT_TRUE(vfs.TruncateFile(tail, *vfs.FileSize(tail) - 3).ok);
  JournalRecovery recovery;
  {
    auto journal =
        DurableJournal::Recover(&vfs, root, options, &recovery, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(recovery.repaired_segments, 1u);
    EXPECT_EQ(recovery.entries,
              std::vector<JournalEntry>(stream.begin(), stream.end() - 1));
    ASSERT_TRUE(journal->Append(stream.back()));
  }
  JournalRecovery again;
  auto reopened = DurableJournal::Recover(&vfs, root, options, &again, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(again.entries, stream);
  reopened.reset();

  // Tidy up the temp tree (best effort).
  if (auto left = vfs.ListDir(root); left.has_value()) {
    for (const std::string& name : *left) vfs.RemoveFile(root + "/" + name);
  }
  rmdir(root.c_str());
  rmdir(dir);
}

TEST(PosixVfsStore, WriteFileAtomicReplacesTheWholeFile) {
  char tmpl[] = "/tmp/gem2_store_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  PosixVfs vfs;
  ExpectWriteFileAtomicReplaces(&vfs, dir);
  vfs.RemoveFile(std::string(dir) + "/f");
  rmdir(dir);
}

}  // namespace
}  // namespace gem2::store
