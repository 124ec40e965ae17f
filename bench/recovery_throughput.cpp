// Recovery-path throughput for the durable SP store. Two questions:
//
//   1. What does a checkpoint buy? Time DurableSpStore::Open() on a journal
//      of N ops with no checkpoint (full replay) versus a checkpoint near the
//      head plus a ~1% journal tail, at N in {1e4, 1e5, 1e6}. The engine's
//      pitch is that checkpoint+tail beats full replay at N=1e6.
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
#include "store/durable_store.h"
#include "store/sp_object_store.h"
#include "store/vfs.h"

namespace gem2::bench {
namespace {

constexpr char kStoreDir[] = "/sp";

/// Builds the on-"disk" state of an SP that applied `n` ops and then crashed:
/// plain journal for full replay, or a checkpoint at 99% with a journal tail.
void BuildDisk(store::MemVfs* vfs, const std::vector<core::JournalEntry>& ops,
               bool checkpointed) {
  store::SpObjectStore state;
  store::StoreOptions options;
  options.journal.fsync_policy = store::FsyncPolicy::kNever;  // build fast
  store::RecoveryReport report;
  auto store = store::DurableSpStore::Open(vfs, kStoreDir, &state, options,
                                           &report);
  const size_t checkpoint_at = ops.size() - ops.size() / 100 - 1;
  for (size_t i = 0; i < ops.size(); ++i) {
    store->Apply(ops[i]);
    if (checkpointed && i == checkpoint_at) {
      std::string error;
      store->Checkpoint(&error);
    }
  }
  store->Sync();
}

void RecoveryBench(benchmark::State& state, const std::string& name,
                   uint64_t n, bool checkpointed) {
  const std::vector<core::JournalEntry> ops = fault::OwnerStream(7, n);
  store::MemVfs vfs;
  BuildDisk(&vfs, ops, checkpointed);
  const double effective_cores = EffectiveCores();  // probed outside the timing

  double recover_ms = 0;
  store::RecoveryReport report;
  for (auto _ : state) {
    store::SpObjectStore recovered;
    const auto t0 = std::chrono::steady_clock::now();
    auto reopened = store::DurableSpStore::Open(&vfs, kStoreDir, &recovered,
                                                store::StoreOptions{}, &report);
    recover_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (reopened == nullptr) state.SkipWithError(report.error.c_str());
    benchmark::DoNotOptimize(recovered.size());
  }

  BenchRun run("recovery", name, checkpointed ? "ckpt+tail" : "full-replay",
               "uniform", n);
  run.Extra("recover_ms", recover_ms);
  run.Extra("replayed_ops", static_cast<double>(report.replayed_ops));
  run.Extra("used_checkpoint", report.used_checkpoint ? 1 : 0);
  run.Extra("checkpoint_seqno", static_cast<double>(report.checkpoint_seqno));
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
    for (const bool ckpt : {false, true}) {
      const std::string name = std::string("Recovery/") +
                               (ckpt ? "ckpt_tail" : "full_replay") +
                               "/N:" + std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [name, n, ckpt](benchmark::State& s) { RecoveryBench(s, name, n, ckpt); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
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
