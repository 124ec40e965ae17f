#include "fault/failpoint_sweep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>

#include "common/random.h"
#include "fault/fault.h"
#include "store/durable_journal.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"

namespace gem2::fault {
namespace {

constexpr char kStoreDir[] = "/sp";

struct Schedule {
  FailpointConfig config;
  store::JournalOptions journal;
  bool cut_power_at_end = false;
  /// No lying fsyncs and no bit rot configured: the hardware is honest, so
  /// recovery must succeed, and under kEveryRecord must keep every acked op.
  bool honest() const {
    return config.p_sync_lie == 0.0 && config.p_bit_rot == 0.0;
  }
};

Schedule DrawSchedule(uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0x5c));
  Schedule s;
  s.config.seed = seed;
  // Tiny segments so every schedule exercises rotation, not just a single
  // file.
  s.journal.segment_bytes = 256 + rng.Uniform(0, 1024);
  s.journal.batch_records = 2 + static_cast<uint32_t>(rng.Uniform(0, 6));
  s.cut_power_at_end = rng.Chance(0.5);

  // A third of the sweep runs the durability-floor configuration: honest
  // hardware, sync-every-record. The rest draws hostile mixes.
  if (rng.Uniform(0, 2) == 0) {
    s.journal.fsync_policy = store::FsyncPolicy::kEveryRecord;
    s.config.p_append_error = rng.NextDouble() * 0.05;
    s.config.p_power_cut = rng.NextDouble() * 0.02;
    return s;
  }
  const uint64_t policy = rng.Uniform(0, 2);
  s.journal.fsync_policy =
      policy == 0   ? store::FsyncPolicy::kNever
      : policy == 1 ? store::FsyncPolicy::kBatch
                    : store::FsyncPolicy::kEveryRecord;
  s.config.p_append_error = rng.NextDouble() * 0.06;
  s.config.p_sync_error = rng.NextDouble() * 0.04;
  s.config.p_sync_lie = rng.Chance(0.4) ? rng.NextDouble() * 0.2 : 0.0;
  s.config.p_power_cut = rng.NextDouble() * 0.03;
  s.config.p_bit_rot = rng.Chance(0.3) ? rng.NextDouble() * 0.01 : 0.0;
  return s;
}

void DumpDisk(store::MemVfs* mem, uint64_t schedule_seed) {
  const char* dir = std::getenv("GEM2_FAULT_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return;
  for (const std::string& path : mem->AllFiles()) {
    std::string name = path;
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    const std::string out_path = std::string(dir) + "/schedule-" +
                                 std::to_string(schedule_seed) + name;
    auto image = mem->Snapshot(path);
    if (!image.has_value()) continue;
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) continue;
    if (!image->empty()) std::fwrite(image->data(), 1, image->size(), f);
    std::fclose(f);
  }
}

void Violation(FailpointSweepReport* report, store::MemVfs* mem,
               uint64_t schedule_seed, const std::string& what) {
  if (report->error.empty()) {
    report->error =
        what + " (schedule seed " + std::to_string(schedule_seed) + ")";
  }
  DumpDisk(mem, schedule_seed);
  if (telemetry::EventLog::Global().enabled()) {
    telemetry::EventLog::Global().Emit(
        telemetry::Event("fault.failpoint_violation")
            .Num("schedule_seed", schedule_seed)
            .Str("what", what));
  }
}

}  // namespace

std::vector<core::JournalEntry> OwnerStream(uint64_t seed, size_t n) {
  Rng rng(DeriveSeed(seed, 0x05));
  std::vector<core::JournalEntry> stream;
  stream.reserve(n);
  std::vector<Key> live;
  std::set<Key> live_set;
  for (size_t i = 0; i < n; ++i) {
    const double dice = rng.NextDouble();
    core::JournalEntry entry;
    if (dice < 0.55 || live.empty()) {
      entry.op = core::JournalEntry::Op::kInsert;
      // Fresh key only: the stream must be a *valid* data-owner history, so
      // it can drive a real AuthenticatedDb.
      do {
        entry.object.key = static_cast<Key>(rng.Uniform(0, 1u << 20));
      } while (live_set.count(entry.object.key) != 0);
      entry.object.value = "v" + std::to_string(i) + "-" +
                           std::string(rng.Uniform(0, 48), 'x');
      live.push_back(entry.object.key);
      live_set.insert(entry.object.key);
    } else if (dice < 0.82) {
      entry.op = core::JournalEntry::Op::kUpdate;
      entry.object.key = live[rng.Uniform(0, live.size() - 1)];
      entry.object.value = "u" + std::to_string(i);
    } else {
      const size_t at = rng.Uniform(0, live.size() - 1);
      entry.op = core::JournalEntry::Op::kDelete;
      entry.object.key = live[at];
      live.erase(live.begin() + static_cast<long>(at));
      live_set.erase(entry.object.key);
    }
    stream.push_back(std::move(entry));
  }
  return stream;
}

FailpointSweepReport RunFailpointSweep(const FailpointSweepOptions& options) {
  FailpointSweepReport report;
  report.seed = options.seed;

  for (int s = 0; s < options.schedules; ++s) {
    const uint64_t schedule_seed = DeriveSeed(options.seed, 0x10000u + s);
    const Schedule schedule = DrawSchedule(schedule_seed);
    ++report.schedules;

    const std::vector<core::JournalEntry> stream =
        OwnerStream(schedule_seed, options.ops_per_schedule);

    // --- the injected run -------------------------------------------------
    store::MemVfs mem;
    FailpointVfs vfs(&mem, schedule.config);
    size_t acked = 0;
    {
      store::JournalRecovery opened;
      auto journal = store::DurableJournal::Recover(
          &vfs, kStoreDir, schedule.journal, &opened, nullptr);
      if (journal != nullptr) {
        for (const core::JournalEntry& entry : stream) {
          if (!journal->Append(entry)) break;  // crashed / failed closed
          ++acked;
        }
      }
      // else: the journal failed closed before serving — acceptable.
    }
    if (schedule.cut_power_at_end && !vfs.powered_off()) {
      // kill -9 plus power loss: unsynced bytes keep a seeded torn prefix.
      const uint64_t tear = DeriveSeed(schedule_seed, 0x77);
      mem.CutPower([tear](size_t volatile_bytes) -> size_t {
        if (volatile_bytes == 0) return 0;
        return Rng(tear ^ volatile_bytes).Uniform(0, volatile_bytes);
      });
    }

    // --- recovery on honest hardware --------------------------------------
    mem.Restart();
    const FailpointStats injected = vfs.stats();
    report.injected.ops += injected.ops;
    report.injected.short_writes += injected.short_writes;
    report.injected.append_errors += injected.append_errors;
    report.injected.sync_errors += injected.sync_errors;
    report.injected.sync_lies += injected.sync_lies;
    report.injected.power_cuts += injected.power_cuts;
    report.injected.bit_flips += injected.bit_flips;
    const bool honest_run = schedule.honest() && injected.sync_lies == 0 &&
                            injected.bit_flips == 0;
    const bool floor = honest_run && schedule.journal.fsync_policy ==
                                         store::FsyncPolicy::kEveryRecord;

    store::JournalRecovery recovery;
    std::string error;
    auto reopened = store::DurableJournal::Recover(
        &mem, kStoreDir, store::JournalOptions{}, &recovery, &error);
    if (reopened == nullptr) {
      ++report.failed_closed;
      if (honest_run) {
        ++report.floor_violations;
        Violation(&report, &mem, schedule_seed,
                  "honest schedule failed closed: " + error);
      }
      continue;
    }

    const size_t k = recovery.entries.size();
    if (k > stream.size() ||
        !std::equal(recovery.entries.begin(), recovery.entries.end(),
                    stream.begin())) {
      ++report.wrong_recoveries;
      Violation(&report, &mem, schedule_seed,
                "recovered entries are not a prefix of the acked stream (k=" +
                    std::to_string(k) + ")");
      continue;
    }
    ++report.recovered;
    if (k < acked) {
      ++report.tail_lost;
      if (floor) {
        ++report.floor_violations;
        Violation(&report, &mem, schedule_seed,
                  "kEveryRecord on honest hardware lost acked ops: recovered " +
                      std::to_string(k) + " of " + std::to_string(acked));
      }
    }

    // --- resume: the recovered SP keeps journaling ------------------------
    // One more op through the reopened journal; a second recovery must
    // return the prefix plus exactly that op. A tail the first recovery
    // dropped but did not repair would sit behind the new segment and fail
    // this closed.
    core::JournalEntry resumed;
    resumed.object = {Key{1} << 40, "resumed"};  // past OwnerStream's domain
    std::string resume_error;
    if (!reopened->Append(resumed)) {
      resume_error = "append failed: " + reopened->last_error();
    }
    reopened.reset();
    if (resume_error.empty()) {
      store::JournalRecovery second;
      std::vector<core::JournalEntry> expected(
          stream.begin(), stream.begin() + static_cast<long>(k));
      expected.push_back(resumed);
      if (store::DurableJournal::Recover(&mem, kStoreDir,
                                         store::JournalOptions{}, &second,
                                         &error) == nullptr) {
        resume_error = "second recovery failed closed: " + error;
      } else if (second.entries != expected) {
        resume_error = "second recovery returned " +
                       std::to_string(second.entries.size()) +
                       " entries, not the prefix + 1";
      }
    }
    if (!resume_error.empty()) {
      ++report.resume_violations;
      Violation(&report, &mem, schedule_seed,
                "resume after recovering " + std::to_string(k) +
                    " ops: " + resume_error);
    }
  }

  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.counter("fault.failpoint.schedules").Add(report.schedules);
  metrics.counter("fault.failpoint.recovered").Add(report.recovered);
  metrics.counter("fault.failpoint.failed_closed").Add(report.failed_closed);
  metrics.counter("fault.failpoint.wrong_recoveries").Add(report.wrong_recoveries);
  metrics.counter("fault.failpoint.floor_violations").Add(report.floor_violations);
  metrics.counter("fault.failpoint.resume_violations").Add(report.resume_violations);
  return report;
}

}  // namespace gem2::fault
