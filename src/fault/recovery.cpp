#include "fault/recovery.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault.h"
#include "store/durable_journal.h"
#include "store/vfs.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::fault {
namespace {

constexpr Key kDomainHi = 1'000'000'000;

void Count(const char* name) {
  if (telemetry::kCompiledIn) {
    telemetry::MetricsRegistry::Global().counter(name).Add(1);
  }
}

Key FreshKey(const core::AuthenticatedDb& db, Rng& rng) {
  Key key;
  do {
    key = static_cast<Key>(rng.Uniform(0, kDomainHi));
  } while (db.Contains(key));
  return key;
}

}  // namespace

namespace {

CrashReport RunCrashAndRecover(core::DbOptions options, uint64_t seed,
                               size_t ops, uint64_t torn_tail_bytes,
                               int64_t flip_offset, uint8_t flip_mask) {
  CrashReport report;
  report.seed = seed;
  Rng rng(DeriveSeed(seed, 0xc4));

  // The SP's disk: every committed op flows through a real segmented journal
  // (sync-per-record) before it is acknowledged.
  store::MemVfs disk;
  constexpr char kJournalDir[] = "/sp/journal";
  std::string open_error;
  std::unique_ptr<store::DurableJournal> sink = store::DurableJournal::Open(
      &disk, kJournalDir, 0, store::JournalOptions{}, &open_error);
  if (sink == nullptr) {
    report.error = "open durable journal: " + open_error;
    Count("fault.recovery.failed");
    return report;
  }
  options.journal_sink = sink.get();
  core::AuthenticatedDb reference(options);

  // Mixed data-owner stream, with one batch transaction mid-stream so the
  // journal covers every op kind the recovery path must replay.
  std::vector<Key> live;
  const size_t batch_at = ops / 2;
  for (size_t i = 0; i < ops; ++i) {
    if (i == batch_at) {
      std::vector<Object> batch;
      for (int j = 0; j < 16; ++j) {
        Key key;
        bool taken;
        do {
          key = static_cast<Key>(rng.Uniform(0, kDomainHi));
          taken = reference.Contains(key);
          for (const Object& b : batch) taken = taken || b.key == key;
        } while (taken);
        batch.push_back({key, "batch-" + std::to_string(j)});
      }
      reference.InsertBatch(batch);
      for (const Object& b : batch) live.push_back(b.key);
      continue;
    }
    const double dice = rng.NextDouble();
    if (dice < 0.60 || live.empty()) {
      const Key key = FreshKey(reference, rng);
      reference.Insert({key, "v" + std::to_string(i)});
      live.push_back(key);
    } else if (dice < 0.85) {
      const Key key = live[rng.Uniform(0, live.size() - 1)];
      reference.Update({key, "u" + std::to_string(i)});
    } else {
      const size_t at = rng.Uniform(0, live.size() - 1);
      reference.Delete(live[at]);
      live.erase(live.begin() + static_cast<long>(at));
    }
  }
  report.total_ops = reference.journal().size();

  // Crash: the SP process dies (kill -9 — in-memory state gone, no flush);
  // all that survives is what the journal already made durable.
  sink.reset();

  // Optional pre-recovery damage to the final segment.
  if (torn_tail_bytes > 0 || flip_offset >= 0) {
    auto names = disk.ListDir(kJournalDir);
    if (names.has_value() && !names->empty()) {
      const std::string tail_path = std::string(kJournalDir) + "/" +
                                    names->back();
      if (torn_tail_bytes > 0) {
        if (auto size = disk.FileSize(tail_path); size.has_value()) {
          const uint64_t keep =
              *size > torn_tail_bytes ? *size - torn_tail_bytes : 0;
          disk.TruncateFile(tail_path, keep);
        }
      }
      if (flip_offset >= 0) {
        disk.CorruptByte(tail_path, static_cast<uint64_t>(flip_offset),
                         flip_mask == 0 ? uint8_t{1} : flip_mask);
      }
    }
  }

  // Recovery reads the on-disk segments alone — the in-memory Journal object
  // died with the process.
  store::JournalRecovery recovered =
      store::RecoverJournal(&disk, kJournalDir);
  report.truncated_bytes = recovered.truncated_bytes;
  report.corrupt_records = recovered.corrupt_records;
  report.tail_lost = recovered.tail_lost;
  if (!recovered.ok) {
    report.failed_closed = true;
    report.error = "recovery failed closed: " + recovered.error;
    Count("fault.recovery.failed_closed");
    return report;
  }
  report.replayed = recovered.entries.size();

  core::Journal durable;
  for (core::JournalEntry& entry : recovered.entries) {
    durable.Record(std::move(entry));
  }
  core::DbOptions replay_options = options;
  replay_options.journal_sink = nullptr;
  std::unique_ptr<core::AuthenticatedDb> rebuilt;
  try {
    rebuilt = core::AuthenticatedDb::Replay(replay_options, durable);
  } catch (const std::exception& e) {
    report.error = std::string("replay aborted: ") + e.what();
    Count("fault.recovery.failed");
    return report;
  }

  report.digests_match = rebuilt->ChainDigests() == reference.ChainDigests();
  report.state_root_match = rebuilt->environment().CurrentStateRoot() ==
                            reference.environment().CurrentStateRoot();

  const core::QuerySpec everything = core::QuerySpec::Range(0, kDomainHi);
  core::VerifiedSpecResult vr = rebuilt->AuthenticatedSpec(everything);
  report.query_ok = vr.ok;
  if (!vr.ok) report.error = "post-recovery query failed: " + vr.error;

  // The rebuilt SP must be live, not just consistent: accept new operations
  // and keep serving verified answers.
  const Key resumed_key = FreshKey(*rebuilt, rng);
  const bool accepted = rebuilt->Insert({resumed_key, "resumed"}).ok;
  core::VerifiedSpecResult after = rebuilt->AuthenticatedSpec(everything);
  report.resumed = accepted && after.ok &&
                   after.objects.size() == vr.objects.size() + 1;

  Count(report.digests_match && report.state_root_match && report.query_ok &&
                report.resumed
            ? "fault.recovery.ok"
            : "fault.recovery.failed");
  return report;
}

}  // namespace

CrashReport CrashAndRecover(core::DbOptions options, uint64_t seed,
                            size_t ops) {
  return RunCrashAndRecover(std::move(options), seed, ops,
                            /*torn_tail_bytes=*/0, /*flip_offset=*/-1,
                            /*flip_mask=*/0);
}

CrashReport CrashAndRecoverDamaged(core::DbOptions options, uint64_t seed,
                                   size_t ops, uint64_t torn_tail_bytes,
                                   int64_t flip_offset, uint8_t flip_mask) {
  return RunCrashAndRecover(std::move(options), seed, ops, torn_tail_bytes,
                            flip_offset, flip_mask);
}

core::VerifiedResult RecoverFromPrefix(core::DbOptions options,
                                       core::AuthenticatedDb& reference,
                                       size_t keep, Key lb, Key ub) {
  options.journal_sink = nullptr;
  std::unique_ptr<core::AuthenticatedDb> stale =
      core::AuthenticatedDb::Replay(options, reference.journal().Prefix(keep));
  return CrossVerifyAgainst(reference, *stale, lb, ub);
}

core::VerifiedResult CrossVerifyAgainst(core::AuthenticatedDb& reference,
                                        const core::AuthenticatedDb& sp,
                                        Key lb, Key ub) {
  chain::AuthenticatedState state = reference.environment().ReadAuthenticatedState(
      core::AuthenticatedDb::kContractName);
  std::string error;
  const bool chain_valid = reference.environment().blockchain().Validate(&error);
  return core::VerifyResponse(
      state, chain_valid, reference.options().kind,
      sp.ExecuteSpec(core::QuerySpec::Range(lb, ub)).conjuncts[0]);
}

GasSweepReport GasLimitSweep(core::DbOptions base, uint64_t seed, int draws) {
  GasSweepReport report;
  report.seed = seed;
  Rng rng(DeriveSeed(seed, 0x6a));

  for (int d = 0; d < draws; ++d) {
    core::DbOptions options = base;
    // Log-uniform limit across three decades: some draws starve a single
    // insert, some fit singles but not the batch, some fit everything.
    const double lg = std::log(1e5) + rng.NextDouble() * (std::log(2e8) - std::log(1e5));
    options.env.gas_limit = static_cast<gas::Gas>(std::exp(lg));
    core::AuthenticatedDb db(options);
    ++report.draws;

    bool aborted = false;
    auto attempt = [&](auto&& run) {
      const Hash root_before = db.environment().CurrentStateRoot();
      const std::vector<chain::DigestEntry> digests_before = db.ChainDigests();
      const chain::TxReceipt receipt = run();
      if (receipt.ok) return true;
      aborted = true;
      // The whole point: an out-of-gas abort must be indistinguishable, at
      // the state-commitment level, from the transaction never running: the
      // committed digests and the state root derived from them are exactly
      // their pre-transaction values, and the database is poisoned (its
      // in-memory ADS mirrors are indeterminate, so it must refuse further
      // mutations).
      std::string trace;
      if (db.environment().CurrentStateRoot() != root_before) trace += " state-root";
      if (db.ChainDigests() != digests_before) trace += " digests";
      if (!db.poisoned()) trace += " not-poisoned";
      if (!trace.empty()) {
        report.state_preserved = false;
        if (report.error.empty()) {
          report.error = "OOG rollback left a trace (" + trace + "; seed " +
                         std::to_string(seed) + ", draw " + std::to_string(d) +
                         ", limit " + std::to_string(options.env.gas_limit) + ")";
        }
      }
      return false;
    };

    const int singles = static_cast<int>(4 + rng.Uniform(0, 8));
    for (int i = 0; i < singles && !aborted; ++i) {
      attempt([&] {
        return db.Insert({static_cast<Key>(d) * 1'000'000 + i,
                          std::string(rng.Uniform(40, 160), 'v')});
      });
    }
    if (!aborted) {
      std::vector<Object> batch;
      const int batch_size = static_cast<int>(32 + rng.Uniform(0, 96));
      for (int i = 0; i < batch_size; ++i) {
        batch.push_back({static_cast<Key>(d) * 1'000'000 + 1000 + i,
                         std::string(rng.Uniform(40, 160), 'b')});
      }
      if (attempt([&] { return db.InsertBatch(batch); })) ++report.committed;
    }
    if (aborted) ++report.aborted;

    if (telemetry::kCompiledIn) {
      auto& metrics = telemetry::MetricsRegistry::Global();
      metrics.histogram("fault.gas_sweep.limit").Observe(options.env.gas_limit);
      metrics.counter(aborted ? "fault.gas_sweep.aborted"
                              : "fault.gas_sweep.committed").Add(1);
    }
  }
  return report;
}

}  // namespace gem2::fault
