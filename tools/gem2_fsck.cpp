// gem2_fsck — scan (and optionally repair) a durable SP store directory.
//
//   gem2_fsck --check <dir>    read-only scan, report per-segment verdicts
//   gem2_fsck --repair <dir>   additionally truncate torn/corrupt tails to
//                              their valid prefix and remove bad-header torn
//                              creations (store::RepairJournal, the routine
//                              DurableJournal::Recover runs before reopening)
//
// Exit codes:
//   0  clean — every byte accounted for
//   1  attributable tail damage (torn or corrupt tail, bad-header creation);
//      recovery serves the valid prefix, client verification attributes the
//      lost tail. --repair turns this state back into exit 0.
//   2  fail closed — mid-stream corruption, a sequence gap, or a broken
//      non-final segment. Nothing recovered from this directory may be
//      served, and fsck refuses to "repair" what it cannot attribute.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "store/durable_journal.h"
#include "store/segment.h"
#include "store/vfs.h"

namespace {

const char* OutcomeName(gem2::store::SegmentScan::Outcome outcome) {
  using Outcome = gem2::store::SegmentScan::Outcome;
  switch (outcome) {
    case Outcome::kClean:
      return "clean";
    case Outcome::kTornTail:
      return "torn-tail";
    case Outcome::kCorruptTail:
      return "corrupt-tail";
    case Outcome::kBadHeader:
      return "bad-header";
    case Outcome::kCorrupt:
      return "CORRUPT";
  }
  return "?";
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --check|--repair <store-dir>\n", argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage(argv[0]);
  bool repair = false;
  if (std::strcmp(argv[1], "--repair") == 0) {
    repair = true;
  } else if (std::strcmp(argv[1], "--check") != 0) {
    return Usage(argv[0]);
  }
  const std::string dir = argv[2];

  gem2::store::PosixVfs vfs;
  gem2::store::JournalRecovery journal = gem2::store::RecoverJournal(&vfs, dir);

  std::printf("gem2_fsck %s %s\n", repair ? "--repair" : "--check",
              dir.c_str());
  bool tail_damage = false;
  for (const gem2::store::SegmentInfo& info : journal.segments) {
    std::printf("  %-28s base=%-10" PRIu64 " records=%-8" PRIu64
                " %-12s valid=%" PRIu64 " truncated=%" PRIu64 "%s%s\n",
                info.name.c_str(), info.base_seqno, info.records,
                OutcomeName(info.outcome), info.valid_bytes,
                info.truncated_bytes, info.error.empty() ? "" : "  ",
                info.error.c_str());
    if (info.outcome != gem2::store::SegmentScan::Outcome::kClean) {
      tail_damage = true;
    }
  }

  if (!journal.ok) {
    std::printf("FAIL-CLOSED: %s\n", journal.error.c_str());
    std::printf("nothing recovered from this directory may be served; "
                "restore from the on-chain journal replay instead\n");
    return 2;
  }

  std::printf("  recoverable: %" PRIu64 " ops (seqno 0..%" PRIu64
              "), %" PRIu64 " bytes truncated, %u corrupt records%s\n",
              journal.replayed_ops, journal.next_seqno,
              journal.truncated_bytes, journal.corrupt_records,
              journal.tail_lost ? ", tail lost" : "");

  if (repair && tail_damage) {
    if (const gem2::store::IoStatus status =
            gem2::store::RepairJournal(&vfs, dir, &journal);
        !status) {
      std::fprintf(stderr, "%s\n", status.message.c_str());
      return 2;
    }
    for (const gem2::store::SegmentInfo& info : journal.segments) {
      if (info.outcome == gem2::store::SegmentScan::Outcome::kClean) continue;
      std::printf("  repaired %s (%s): kept %" PRIu64 " bytes\n",
                  info.name.c_str(), OutcomeName(info.outcome),
                  info.valid_bytes);
    }
    std::printf("repair complete: %u segment(s) repaired; re-run --check to "
                "confirm\n",
                journal.repaired_segments);
    return 0;
  }

  if (tail_damage) {
    std::printf("TAIL DAMAGE: recovery serves the valid prefix; run --repair "
                "to truncate it in place\n");
    return 1;
  }
  std::printf("clean\n");
  return 0;
}
