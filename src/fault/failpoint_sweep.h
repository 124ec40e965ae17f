/// \file failpoint_sweep.h
/// The failpoint sweep: hundreds of seeded I/O-fault schedules against the
/// SP's durable journal, each held to recover-or-fail-closed.
///
/// Per schedule, a fault mix (short writes, EIO, lying fsyncs, power cuts,
/// bit rot), an fsync policy, and tiny segment sizes are drawn from the
/// schedule's seed; the journal is opened with store::DurableJournal::Recover
/// and a deterministic data-owner stream is appended through it until the
/// schedule kills it; then the machine restarts and Recover runs again on
/// honest hardware. The recovered entries must equal a prefix of the op
/// stream exactly (or the journal must refuse to serve). Schedules whose
/// hardware never lied and never rotted, running under
/// FsyncPolicy::kEveryRecord, must additionally recover every acknowledged
/// op — the durability floor. Every recovered schedule then resumes: one
/// more op is appended through the reopened journal, and a second recovery
/// must return the prefix plus exactly that op.
#ifndef GEM2_FAULT_FAILPOINT_SWEEP_H_
#define GEM2_FAULT_FAILPOINT_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/journal.h"
#include "fault/failpoint_vfs.h"

namespace gem2::fault {

/// Deterministic data-owner operation stream: a seeded insert/update/delete
/// mix over a small key domain (so updates and deletes hit live keys).
/// Pure function of (seed, n) — the sweep and the kill-9 harness regenerate
/// it instead of shipping it.
std::vector<core::JournalEntry> OwnerStream(uint64_t seed, size_t n);

struct FailpointSweepOptions {
  uint64_t seed = 0;
  int schedules = 500;
  size_t ops_per_schedule = 48;
};

struct FailpointSweepReport {
  uint64_t seed = 0;
  int schedules = 0;
  /// Schedules whose recovery served an exact prefix of the op stream.
  int recovered = 0;
  /// Schedules whose recovery refused to serve (acceptable under injected
  /// lies/rot; a violation on honest schedules).
  int failed_closed = 0;
  /// Recovered schedules that lost an acked tail (truncation at work).
  int tail_lost = 0;

  /// Violations — any nonzero fails the sweep:
  /// recovered state matched no prefix of the op stream.
  int wrong_recoveries = 0;
  /// honest kEveryRecord schedule lost an acked op or failed closed.
  int floor_violations = 0;
  /// recovered schedule whose reopened journal did not take one more op, or
  /// whose second recovery did not return the prefix plus that op.
  int resume_violations = 0;

  FailpointStats injected;  // aggregate faults across all schedules
  std::string error;        // first violation, with its schedule seed

  bool ok() const {
    return wrong_recoveries == 0 && floor_violations == 0 &&
           resume_violations == 0;
  }
};

/// Runs the sweep. Reproducible from options.seed alone; on a violation, if
/// GEM2_FAULT_DUMP_DIR is set, the offending schedule's simulated disk is
/// dumped there for post-mortem.
FailpointSweepReport RunFailpointSweep(const FailpointSweepOptions& options);

}  // namespace gem2::fault

#endif  // GEM2_FAULT_FAILPOINT_SWEEP_H_
