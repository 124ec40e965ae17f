// Recovery-path throughput for the SP's durable journal. Two questions:
//
//   1. How fast does a crashed SP get its op stream back? Time
//      DurableJournal::Recover() (scan, repair, reopen) on a journal of N ops,
//      N in {1e4, 1e5, 1e6}.
//   2. What does the fsync policy cost at append time? Sustained append MB/s
//      through DurableJournal on the real filesystem per policy.
//
// Emits BENCH_recovery.json (baseline: bench/baselines/BENCH_recovery.json).
// Every row carries `effective_cores` (bench_common.h EffectiveCores()),
// probed before its timed region, to read its rates against.
// Scale knobs: GEM2_RECOVERY_MAX_N (default 1e6), GEM2_APPEND_N.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/failpoint_sweep.h"
#include "store/durable_journal.h"
#include "store/vfs.h"

namespace gem2::bench {
namespace {

constexpr char kStoreDir[] = "/sp";

/// Builds the on-"disk" journal of an SP that appended `ops` and then crashed.
void BuildDisk(store::MemVfs* vfs, const std::vector<core::JournalEntry>& ops) {
  store::JournalOptions options;
  options.fsync_policy = store::FsyncPolicy::kNever;  // build fast
  std::string error;
  auto journal = store::DurableJournal::Open(vfs, kStoreDir, 0, options, &error);
  for (const core::JournalEntry& entry : ops) journal->Append(entry);
  journal->Sync();
}

void RecoveryBench(benchmark::State& state, const std::string& name,
                   uint64_t n) {
  const std::vector<core::JournalEntry> ops = fault::OwnerStream(7, n);
  store::MemVfs vfs;
  BuildDisk(&vfs, ops);
  const double effective_cores = EffectiveCores();  // probed outside the timing

  double recover_ms = 0;
  store::JournalRecovery recovery;
  for (auto _ : state) {
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    auto reopened = store::DurableJournal::Recover(
        &vfs, kStoreDir, store::JournalOptions{}, &recovery, &error);
    recover_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (reopened == nullptr) state.SkipWithError(error.c_str());
    benchmark::DoNotOptimize(recovery.entries.size());
  }

  BenchRun run("recovery", name, "full-replay", "uniform", n);
  run.Extra("recover_ms", recover_ms);
  run.Extra("replayed_ops", static_cast<double>(recovery.replayed_ops));
  run.Extra("ops_per_s", recover_ms > 0 ? n * 1000.0 / recover_ms : 0);
  run.Extra("effective_cores", effective_cores);
  run.Finish();
  state.counters["recover_ms"] = benchmark::Counter(recover_ms);
}

void AppendBench(benchmark::State& state, const std::string& name,
                 store::FsyncPolicy policy, uint64_t n) {
  char tmpl[] = "/tmp/gem2_recovery_bench_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string journal_dir = std::string(dir) + "/journal";
  const std::vector<core::JournalEntry> ops = fault::OwnerStream(9, n);

  store::PosixVfs vfs;
  const double effective_cores = EffectiveCores();  // probed outside the timing
  double seconds = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    store::JournalOptions options;
    options.fsync_policy = policy;
    std::string error;
    auto journal = store::DurableJournal::Open(&vfs, journal_dir, 0, options,
                                               &error);
    if (journal == nullptr) {
      state.SkipWithError(error.c_str());
      break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const core::JournalEntry& entry : ops) journal->Append(entry);
    journal->Sync();
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    bytes = 0;
    if (auto names = vfs.ListDir(journal_dir); names.has_value()) {
      for (const std::string& file : *names) {
        bytes += vfs.FileSize(journal_dir + "/" + file).value_or(0);
        vfs.RemoveFile(journal_dir + "/" + file);
      }
    }
  }
  rmdir(journal_dir.c_str());
  rmdir(dir);

  const double mb = static_cast<double>(bytes) / (1 << 20);
  BenchRun run("recovery", name, store::FsyncPolicyName(policy), "uniform", n);
  run.Extra("append_mb_per_s", seconds > 0 ? mb / seconds : 0);
  run.Extra("appends_per_s", seconds > 0 ? n / seconds : 0);
  run.Extra("journal_bytes", static_cast<double>(bytes));
  run.Extra("effective_cores", effective_cores);
  run.Finish();
  state.counters["mb_per_s"] = benchmark::Counter(seconds > 0 ? mb / seconds : 0);
}

void RegisterAll() {
  const uint64_t max_n = EnvScale("GEM2_RECOVERY_MAX_N", 1'000'000);
  for (const uint64_t n : {uint64_t{10'000}, uint64_t{100'000},
                           uint64_t{1'000'000}}) {
    if (n > max_n) continue;
    const std::string name =
        "Recovery/full_replay/N:" + std::to_string(n);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, n](benchmark::State& s) { RecoveryBench(s, name, n); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  const uint64_t append_n = EnvScale("GEM2_APPEND_N", 20'000);
  for (const store::FsyncPolicy policy :
       {store::FsyncPolicy::kNever, store::FsyncPolicy::kBatch,
        store::FsyncPolicy::kEveryRecord}) {
    // fsync-per-record is orders of magnitude slower per op; scale its op
    // count down so the series finishes in comparable wall time.
    const uint64_t n = policy == store::FsyncPolicy::kEveryRecord
                           ? append_n / 10 + 1
                           : append_n;
    const std::string name = std::string("Append/") +
                             store::FsyncPolicyName(policy) +
                             "/N:" + std::to_string(n);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, policy, n](benchmark::State& s) { AppendBench(s, name, policy, n); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace gem2::bench

int main(int argc, char** argv) {
  gem2::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  gem2::bench::EmitBenchJson();
  benchmark::Shutdown();
  return 0;
}
