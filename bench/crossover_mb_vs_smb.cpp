// Reproduces the paper's Section IV analysis: per-insert gas of the two
// baselines as the database grows. The MB-tree costs O(log N) per insert; the
// suppressed SMB-tree costs O(N log N) but with far cheaper constants (reads
// and memory instead of writes), so SMB wins below a crossover size and loses
// beyond it — the observation that motivates GEM2's exponential partitions
// and the Smax bound (paper default 2048).
#include "bench_common.h"
#include "crypto/digest.h"
#include "mbtree/mbtree.h"
#include "smbtree/smbtree.h"

namespace gem2::bench {
namespace {

/// Per-insert gas of an MB-tree that already holds n objects.
void MbInsertGasAt(benchmark::State& state, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  mbtree::MbTree tree(4);
  for (uint64_t i = 0; i < n; ++i) {
    Object obj = gen.Next().object;
    tree.Insert(obj.key, crypto::ValueHash(obj.value));
  }
  uint64_t gas = 0;
  uint64_t samples = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      Object obj = gen.Next().object;
      gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
      tree.Insert(obj.key, crypto::ValueHash(obj.value), &meter);
      gas += meter.used();
      ++samples;
    }
  }
  state.counters["gas_per_insert"] =
      benchmark::Counter(static_cast<double>(gas) / static_cast<double>(samples));
}

/// Per-insert gas of an SMB-tree that already holds n objects.
void SmbInsertGasAt(benchmark::State& state, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  smbtree::SmbTreeContract contract("smb", 4);
  ads::EntryList seed;
  for (uint64_t i = 0; i < n; ++i) {
    Object obj = gen.Next().object;
    seed.push_back({obj.key, crypto::ValueHash(obj.value)});
  }
  contract.SeedUnmetered(seed);
  uint64_t gas = 0;
  uint64_t samples = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      Object obj = gen.Next().object;
      gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
      contract.Insert(obj.key, crypto::ValueHash(obj.value), meter);
      gas += meter.used();
      ++samples;
    }
  }
  state.counters["gas_per_insert"] =
      benchmark::Counter(static_cast<double>(gas) / static_cast<double>(samples));
}

void RegisterAll() {
  const uint64_t max_n = EnvScale("GEM2_CROSSOVER_MAX_N", 8192);
  for (uint64_t n = 64; n <= max_n; n *= 2) {
    benchmark::RegisterBenchmark(
        ("Crossover/MB-tree/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { MbInsertGasAt(s, n); })
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        ("Crossover/SMB-tree/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { SmbInsertGasAt(s, n); })
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace gem2::bench

int main(int argc, char** argv) {
  gem2::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
