// Ablation: the GEM2*-tree upper-level region count (paper uses 100). Sweeps
// the number of regions and reports both maintenance gas and query-side cost,
// exposing the trade-off Section VI-A describes: more regions mean more
// (and smaller) SMB-trees and more key-local bulk inserts — cheaper
// maintenance — but more lower-level trees for a query to touch. One region
// is the plain GEM2-tree (no upper level, no split points), the sanity row.
#include <chrono>

#include "bench_common.h"

namespace gem2::bench {
namespace {

void Gem2StarVsRegions(benchmark::State& state, size_t regions) {
  const uint64_t n = EnvScale("GEM2_ABLATION_N", 30'000);
  const uint64_t queries = 25;
  uint64_t total_gas = 0;
  double sp_seconds = 0;
  uint64_t vo_bytes = 0;
  for (auto _ : state) {
    WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
    DbOptions options = MakeDbOptions(
        regions == 1 ? AdsKind::kGem2 : AdsKind::kGem2Star, gen, regions);
    AuthenticatedDb db(options);
    for (uint64_t i = 0; i < n; ++i) {
      total_gas += db.Insert(gen.Next().object).gas_used;
    }
    for (uint64_t q = 0; q < queries; ++q) {
      const workload::RangeQuerySpec probe = gen.NextQuery(0.05);
      const core::QuerySpec spec = core::QuerySpec::Range(probe.lb, probe.ub);
      auto t0 = std::chrono::steady_clock::now();
      core::SpecResponse response = db.ExecuteSpec(spec);
      sp_seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                        .count();
      vo_bytes += core::VoSpBytes(response);
    }
  }
  state.counters["gas_per_op"] =
      benchmark::Counter(static_cast<double>(total_gas) / static_cast<double>(n));
  state.counters["sp_ms_per_query"] =
      benchmark::Counter(sp_seconds * 1000.0 / static_cast<double>(queries));
  state.counters["vo_sp_kb_per_query"] = benchmark::Counter(
      static_cast<double>(vo_bytes) / static_cast<double>(queries) / 1024.0);
}

void RegisterAll() {
  for (size_t regions : {1, 10, 50, 100, 200, 400}) {
    benchmark::RegisterBenchmark(
        ("AblationRegions/GEM2x-tree/R:" + std::to_string(regions)).c_str(),
        [regions](benchmark::State& s) { Gem2StarVsRegions(s, regions); })
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
