// Shard-scaling benchmark: scatter-gather query throughput of the sharded
// multi-contract RangeStore versus shard count, over one fixed dataset.
//
// For S in {1, 2, 4, 8} a ShardedDb is preloaded with the same uniform
// workload (quantile partition bounds), plus an unsharded AuthenticatedDb
// reference row (S = 0). Each query scatters across the overlapping shards
// in plan order on the calling thread, so the rows measure what sharding
// costs one query; S=1 vs the unsharded row isolates the composite
// protocol's own overhead. One probe answer is client-verified up front
// (seam completeness + per-shard VOs), then every timed query is answered
// once untimed, so the timed loop measures serving, not lazy SP tree builds.
//
// Emits BENCH_shard.json. Reported per row: qps, sp_ms_per_query,
// speedup_vs_s1 (sharded rows), results per query, the core count the run
// had (`cores`) and the parallel capacity it measured (`effective_cores`).
// Every row runs the same queries over the same dataset, so CI gates that
// each sharded row's results_per_query equals the unsharded row's.
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "telemetry/metrics.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

double g_qps_s1 = 0;  // registration order runs S=1 first

void ShardScaling(benchmark::State& state, const std::string& name,
                  size_t shards, uint64_t n, double selectivity) {
  const uint64_t queries = EnvScale("GEM2_SHARD_QUERIES", 200);

  WorkloadGenerator gen;
  auto store = BuildStore(AdsKind::kGem2, KeyDistribution::kUniform, n, shards,
                          &gen);

  // Correctness gate: the scatter-gather answer must verify end-to-end
  // (through the wire codec) before we bother timing it.
  {
    const workload::RangeQuerySpec probe = gen.NextQuery(selectivity);
    const core::QuerySpec spec = core::QuerySpec::Range(probe.lb, probe.ub);
    core::VerifiedSpecResult vr =
        store->VerifySpecWire(spec, store->SpecWire(spec));
    if (!vr.ok) {
      state.SkipWithError(("verification failed: " + vr.error).c_str());
      return;
    }
  }

  std::vector<core::QuerySpec> specs;
  specs.reserve(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    const workload::RangeQuerySpec probe = gen.NextQuery(selectivity);
    specs.push_back(core::QuerySpec::Range(probe.lb, probe.ub));
  }
  for (const core::QuerySpec& spec : specs) {
    benchmark::DoNotOptimize(store->ExecuteSpec(spec));
  }

  double seconds = 0;
  uint64_t results = 0;
  telemetry::Histogram latency;  // per-query ns, for exact quantiles
  for (auto _ : state) {
    for (const core::QuerySpec& spec : specs) {
      const auto t0 = Clock::now();
      const core::SpecResponse answer = store->ExecuteSpec(spec);
      const auto t1 = Clock::now();
      const core::QueryResponse& response = answer.conjuncts[0];
      latency.Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      seconds += std::chrono::duration<double>(t1 - t0).count();
      for (const auto& slice : response.slices)
        for (const auto& tree : slice.response.trees) results += tree.objects.size();
      for (const auto& tree : response.trees) results += tree.objects.size();
      benchmark::DoNotOptimize(response.lb);
    }
  }

  const double q = static_cast<double>(queries);
  const double qps = seconds > 0 ? q / seconds : 0;
  if (shards == 1) g_qps_s1 = qps;

  const double effective_cores = EffectiveCores();  // probed outside wall_ms
  BenchRun run("shard", name, store->BackendName(), "uniform", n);
  run.Extra("shards", static_cast<double>(shards));
  run.Extra("selectivity", selectivity);
  run.Extra("queries", q);
  run.Extra("qps", qps);
  run.Extra("sp_ms_per_query", seconds * 1000.0 / q);
  run.Extra("results_per_query", static_cast<double>(results) / q);
  run.Extra("cores", static_cast<double>(std::thread::hardware_concurrency()));
  run.Extra("effective_cores", effective_cores);
  const telemetry::QuantileSummary lat_q = latency.Quantiles();
  run.Extra("query_p50_ns", lat_q.p50);
  run.Extra("query_p99_ns", lat_q.p99);
  run.Extra("query_p999_ns", lat_q.p999);
  if (shards >= 1 && g_qps_s1 > 0) run.Extra("speedup_vs_s1", qps / g_qps_s1);
  run.Finish();

  state.counters["qps"] = benchmark::Counter(qps);
  state.counters["sp_ms_per_query"] = benchmark::Counter(seconds * 1000.0 / q);
}

void RegisterAll() {
  const uint64_t n = EnvScale("GEM2_SHARD_N", 20'000);
  const double selectivity = 0.05;
  // S=0 is the unsharded AuthenticatedDb reference; S=1 must run before the
  // larger shard counts (speedup_vs_s1 anchors on it).
  for (size_t shards : {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::string name = shards == 0
                           ? "Shard/unsharded/N:" + std::to_string(n)
                           : "Shard/S:" + std::to_string(shards) +
                                 "/N:" + std::to_string(n);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, shards, n, selectivity](benchmark::State& s) {
          ShardScaling(s, name, shards, n, selectivity);
        })
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
