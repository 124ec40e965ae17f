// End-to-end chain-simulator throughput: the full insert pipeline (contract
// execution -> gas metering -> ledger -> block sealing, each block sealed on
// the calling thread before the next block's transactions run) measured in
// blocks/s and txs/s. Also reported: the state-commitment work (roots
// computed, contract leaves hashed), Keccak permutations per transaction,
// the heap each transaction
// leaves behind (`heap_bytes_per_tx`, glibc mallinfo2), and the host's
// measured `effective_cores`. Emits BENCH_simulator.json; the nightly paper-scale CI
// job gates on the `Simulator/fast/merkle` row's blocks_per_s.
#include <malloc.h>

#include <chrono>

#include "bench_common.h"
#include "crypto/keccak.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct SimResult {
  double seconds = 0;
  double blocks = 0;
  double txs = 0;
  double perms = 0;
  double heap_bytes = 0;
  chain::StateCommitStats commit;
};

/// Bytes the allocator has handed out and not taken back: the in-use arena
/// bytes plus the mmapped blocks.
double HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

SimResult RunOnce(BenchRun* run, uint64_t n) {
  const double heap0 = HeapInUse();
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  AuthenticatedDb db(MakeDbOptions(AdsKind::kGem2, gen));

  const uint64_t perms0 = crypto::KeccakPermutationCount();
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    chain::TxReceipt r = db.Insert(gen.Next().object);
    if (run != nullptr) run->Count(r);
  }
  db.environment().SealBlock();  // flush the partial tail block
  const chain::Blockchain& chain = db.environment().blockchain();
  const auto t1 = Clock::now();

  SimResult res;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  res.blocks = static_cast<double>(chain.height());
  res.txs = static_cast<double>(db.environment().num_transactions());
  res.perms = static_cast<double>(crypto::KeccakPermutationCount() - perms0);
  res.commit = db.environment().commit_stats();
  res.heap_bytes = HeapInUse() - heap0;  // the db is still alive here
  benchmark::DoNotOptimize(chain.latest().state_root);
  return res;
}

void Simulator(benchmark::State& state, const std::string& name, uint64_t n) {
  BenchRun run("simulator", name, "GEM2-tree", "uniform", n);
  SimResult res;
  for (auto _ : state) {
    res = RunOnce(&run, n);
  }

  const double blocks_per_s = res.blocks / res.seconds;
  const double txs_per_s = res.txs / res.seconds;
  run.Extra("blocks_per_s", blocks_per_s);
  run.Extra("txs_per_s", txs_per_s);
  run.Extra("perms_per_tx", res.perms / res.txs);
  run.Extra("heap_bytes_per_tx", res.heap_bytes / res.txs);
  // State-commitment work: roots computed and contract leaves hashed.
  run.Extra("commit_entries_updated",
            static_cast<double>(res.commit.entries_updated));
  run.Extra("commit_root_computations",
            static_cast<double>(res.commit.root_computations));
  run.Extra("effective_cores", EffectiveCores());
  run.Finish();

  state.counters["blocks_per_s"] = benchmark::Counter(blocks_per_s);
  state.counters["txs_per_s"] = benchmark::Counter(txs_per_s);
}

void RegisterAll() {
  const uint64_t n = EnvScale("GEM2_SIM_N", 50'000);
  // The row keeps the name the committed baseline
  // (bench/baselines/simulator_baseline.json) and the nightly gate key on.
  const std::string name = "Simulator/fast/merkle/N:" + std::to_string(n);
  benchmark::RegisterBenchmark(
      name.c_str(), [name, n](benchmark::State& s) { Simulator(s, name, n); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
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
