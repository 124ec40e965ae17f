/// \file recovery.h
/// Crash-recovery harnesses: SP rebuild by journal replay, cross-instance
/// client detection of a stale (partially recovered) SP, and a randomized
/// gas-limit sweep proving out-of-gas rollback is exact.
#ifndef GEM2_FAULT_RECOVERY_H_
#define GEM2_FAULT_RECOVERY_H_

#include <memory>
#include <string>

#include "core/authenticated_db.h"

namespace gem2::fault {

struct CrashReport {
  uint64_t seed = 0;
  size_t total_ops = 0;  // data-owner operations before the crash
  /// Journal entries that survived in the durable log (== total_ops here:
  /// every op is journaled through store::DurableJournal with
  /// FsyncPolicy::kEveryRecord before it is acknowledged — see
  /// RecoverFromPrefix for the lost-tail case).
  size_t replayed = 0;
  bool digests_match = false;     // rebuilt tree digests == on-chain, bit-for-bit
  bool state_root_match = false;  // environment state roots agree
  bool query_ok = false;          // a verified query succeeds post-recovery
  /// The rebuilt instance accepts a new op, journals it through the journal
  /// DurableJournal::Recover reopened, and a second recovery returns
  /// `replayed` + 1 entries.
  bool resumed = false;

  /// What the durable-log scan found, distinguishing the two damage shapes:
  /// a *lost tail* (torn or checksum-failed trailing record, truncated away,
  /// `tail_lost` with `truncated_bytes`) versus *corruption* the scan cannot
  /// attribute (`failed_closed`; nothing is served). Mirrored into the
  /// recovery.{replayed_ops,truncated_bytes,corrupt_records} counters in the
  /// Prometheus exposition.
  uint64_t truncated_bytes = 0;
  uint32_t corrupt_records = 0;
  bool tail_lost = false;
  bool failed_closed = false;
  std::string error;
};

/// Drives `ops` seeded data-owner operations (mixed inserts/updates/deletes,
/// plus one mid-stream batch) against a reference instance whose every op is
/// durably journaled (store::DurableJournal over an in-memory disk,
/// FsyncPolicy::kEveryRecord), crashes the SP process, recovers the op
/// stream from the on-disk segments alone (DurableJournal::Recover), rebuilds
/// a fresh instance by replay, and checks the rebuilt digests bit-for-bit
/// against the reference's on-chain commitment. On success the rebuilt
/// instance also serves a verified query and journals a further operation
/// through the reopened journal, which a second recovery returns.
CrashReport CrashAndRecover(core::DbOptions options, uint64_t seed, size_t ops);

/// CrashAndRecover, but the durable log suffers before recovery:
/// `torn_tail_bytes` > 0 shears that many bytes off the final segment (a
/// power-cut tail), and `flip_offset` >= 0 XORs `flip_mask` into that byte
/// offset of the final segment (bit rot). The report then shows either a
/// truncated recovery whose SP fails client verification against the live
/// chain (tail_lost), or a fail-closed refusal (failed_closed) — never a
/// silently wrong rebuilt SP.
CrashReport CrashAndRecoverDamaged(core::DbOptions options, uint64_t seed,
                                   size_t ops, uint64_t torn_tail_bytes,
                                   int64_t flip_offset, uint8_t flip_mask);

/// Rebuilds an SP from only the first `keep` journal entries (a crash that
/// lost the tail of the durable log) and answers `lb..ub` from it. Returns
/// the result of verifying that answer against `reference`'s chain — the
/// client's trust anchor. A truncated recovery must fail this check unless
/// the lost tail didn't touch the queried digests.
core::VerifiedResult CrossVerifyAgainst(core::AuthenticatedDb& reference,
                                        const core::AuthenticatedDb& sp,
                                        Key lb, Key ub);

/// Rebuilds an SP from only the first `keep` entries of `journal`, the op
/// stream a Journal attached to `reference` as its sink recorded (a durable
/// log whose tail was lost with the power), and returns the client's verdict
/// on its `lb..ub` answer, verified against the live chain via
/// CrossVerifyAgainst.
core::VerifiedResult RecoverFromPrefix(core::DbOptions options,
                                       core::AuthenticatedDb& reference,
                                       const core::Journal& journal,
                                       size_t keep, Key lb, Key ub);

struct GasSweepReport {
  uint64_t seed = 0;
  int draws = 0;
  int aborted = 0;    // draws whose transaction ran out of gas
  int committed = 0;  // draws whose transaction fit the drawn limit
  /// True while every aborted draw left the state root and tree digests
  /// identical to never having run the transaction.
  bool state_preserved = true;
  std::string error;

  friend bool operator==(const GasSweepReport&, const GasSweepReport&) = default;
};

/// Randomized gas-limit sweep: per draw, builds a database with a gas limit
/// drawn log-uniformly, seeds it, then attempts a batch insert sized to
/// straddle the limit. Aborted draws must leave the chain's state root and
/// the contract digests exactly as they were before the transaction.
GasSweepReport GasLimitSweep(core::DbOptions base, uint64_t seed, int draws);

}  // namespace gem2::fault

#endif  // GEM2_FAULT_RECOVERY_H_
