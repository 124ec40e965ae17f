// The failpoint sweep: hundreds of seeded I/O-fault schedules (short writes,
// EIO, lying fsyncs, power cuts, bit rot) against the SP's durable journal,
// every one held to recover-or-fail-closed and the whole sweep reproducible
// from one seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/failpoint_sweep.h"
#include "fault/failpoint_vfs.h"
#include "fault/fault.h"
#include "seed_util.h"
#include "store/durable_journal.h"
#include "store/vfs.h"

namespace gem2::fault {
namespace {

using testutil::SeedReporter;

TEST(FailpointVfs, InjectionIsAPureFunctionOfTheSeed) {
  SeedReporter seed(2024);
  FailpointConfig config;
  config.seed = seed;
  config.p_append_error = 0.10;
  config.p_sync_error = 0.05;
  config.p_sync_lie = 0.10;
  config.p_power_cut = 0.02;
  config.p_bit_rot = 0.01;

  // Drive the identical op sequence twice; the injected runs must leave
  // bit-identical disks and identical fault statistics.
  auto run = [&](store::MemVfs* mem, FailpointStats* stats) {
    FailpointVfs vfs(mem, config);
    store::JournalOptions options;
    options.segment_bytes = 256;
    store::JournalRecovery recovery;
    auto journal = store::DurableJournal::Recover(&vfs, "/sp", options,
                                                  &recovery, nullptr);
    if (journal != nullptr) {
      for (const core::JournalEntry& entry : OwnerStream(seed, 64)) {
        if (!journal->Append(entry)) break;
      }
    }
    *stats = vfs.stats();
  };

  store::MemVfs a;
  store::MemVfs b;
  FailpointStats sa;
  FailpointStats sb;
  run(&a, &sa);
  run(&b, &sb);

  EXPECT_EQ(sa.ops, sb.ops);
  EXPECT_EQ(sa.short_writes, sb.short_writes);
  EXPECT_EQ(sa.append_errors, sb.append_errors);
  EXPECT_EQ(sa.sync_errors, sb.sync_errors);
  EXPECT_EQ(sa.sync_lies, sb.sync_lies);
  EXPECT_EQ(sa.power_cuts, sb.power_cuts);
  EXPECT_EQ(sa.bit_flips, sb.bit_flips);
  EXPECT_GT(sa.ops, 0u);

  const std::vector<std::string> files_a = a.AllFiles();
  ASSERT_EQ(files_a, b.AllFiles());
  for (const std::string& path : files_a) {
    EXPECT_EQ(a.Snapshot(path), b.Snapshot(path)) << path;
  }
}

TEST(FailpointSweep, FiveHundredSchedulesRecoverOrFailClosed) {
  SeedReporter seed(20260808);
  FailpointSweepOptions options;
  options.seed = seed;
  options.schedules = 500;

  const FailpointSweepReport report = RunFailpointSweep(options);
  EXPECT_EQ(report.schedules, options.schedules);
  // Recover-or-fail-closed, with zero accepted-but-wrong outcomes.
  EXPECT_EQ(report.recovered + report.failed_closed, report.schedules);
  EXPECT_EQ(report.wrong_recoveries, 0) << report.error;
  EXPECT_EQ(report.floor_violations, 0) << report.error;
  EXPECT_TRUE(report.ok()) << report.error;

  // The sweep must actually bite: injected faults of several kinds, and
  // schedules across the outcome spectrum.
  EXPECT_GT(report.injected.ops, 0u);
  EXPECT_GT(report.injected.append_errors + report.injected.short_writes, 0u);
  EXPECT_GT(report.injected.sync_lies, 0u);
  EXPECT_GT(report.injected.power_cuts, 0u);
  EXPECT_GT(report.injected.bit_flips, 0u);
  EXPECT_GT(report.recovered, 0);
}

TEST(FailpointSweep, ReproducesFromTheSeedAlone) {
  SeedReporter seed(1616);
  FailpointSweepOptions options;
  options.seed = seed;
  options.schedules = 60;

  const FailpointSweepReport a = RunFailpointSweep(options);
  const FailpointSweepReport b = RunFailpointSweep(options);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.failed_closed, b.failed_closed);
  EXPECT_EQ(a.tail_lost, b.tail_lost);
  EXPECT_EQ(a.wrong_recoveries, b.wrong_recoveries);
  EXPECT_EQ(a.floor_violations, b.floor_violations);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.injected.ops, b.injected.ops);
  EXPECT_EQ(a.injected.short_writes, b.injected.short_writes);
  EXPECT_EQ(a.injected.sync_lies, b.injected.sync_lies);
  EXPECT_EQ(a.injected.power_cuts, b.injected.power_cuts);
  EXPECT_EQ(a.injected.bit_flips, b.injected.bit_flips);
  EXPECT_TRUE(a.ok()) << a.error;
}

}  // namespace
}  // namespace gem2::fault
