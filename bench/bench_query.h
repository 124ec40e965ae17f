/// \file bench_query.h
/// Shared implementation of the paper's query-performance experiments
/// (Figs. 9 and 10): SP CPU time, VO size (VO_sp + VO_chain), and client
/// verification CPU time versus query selectivity, for the MB-tree,
/// GEM2-tree, GEM2*-tree, and LSM-tree.
///
/// Protocol (Section VII-B2, scaled): fixed database size, selectivity in
/// {1%, 2%, 5%, 10%}, 50 randomly positioned range queries per point,
/// averages reported.
///
/// Expected shape: all metrics increase with the query range; GEM2 tracks
/// the MB-tree closely; GEM2* is only slightly worse at large ranges and
/// under skew.
#ifndef GEM2_BENCH_BENCH_QUERY_H_
#define GEM2_BENCH_BENCH_QUERY_H_

#include <cctype>
#include <chrono>

#include "bench_common.h"

namespace gem2::bench {

inline void QueryPerformance(benchmark::State& state, const std::string& bench,
                             const std::string& name, const char* ads,
                             AdsKind kind, KeyDistribution dist,
                             double selectivity) {
  const uint64_t n = EnvScale("GEM2_QUERY_N", 50'000);
  const uint64_t queries = EnvScale("GEM2_QUERY_COUNT", 50);

  WorkloadGenerator gen(MakeWorkload(dist));
  auto owned = std::make_unique<AuthenticatedDb>(MakeDbOptions(kind, gen));
  core::RangeStore& db = *owned;
  for (uint64_t i = 0; i < n; ++i) db.Insert(gen.Next().object);

  // VO_chain is retrieved once; the client reuses it across queries. Going
  // through RangeStore keeps this loop backend-agnostic (a sharded store
  // returns one state per shard contract).
  std::vector<chain::AuthenticatedState> vo_chain = db.ReadChainState();

  double sp_seconds = 0;
  double client_seconds = 0;
  uint64_t vo_sp_bytes = 0;
  uint64_t results = 0;

  for (auto _ : state) {
    for (uint64_t q = 0; q < queries; ++q) {
      const workload::RangeQuerySpec probe = gen.NextQuery(selectivity);
      const core::QuerySpec spec = core::QuerySpec::Range(probe.lb, probe.ub);

      auto t0 = std::chrono::steady_clock::now();
      core::SpecResponse response = db.ExecuteSpec(spec);
      auto t1 = std::chrono::steady_clock::now();
      core::VerifiedSpecResult vr =
          db.VerifySpecAgainst(vo_chain, spec, response);
      auto t2 = std::chrono::steady_clock::now();

      if (!vr.ok) {
        state.SkipWithError(("verification failed: " + vr.error).c_str());
        return;
      }
      sp_seconds += std::chrono::duration<double>(t1 - t0).count();
      client_seconds += std::chrono::duration<double>(t2 - t1).count();
      vo_sp_bytes += vr.vo_sp_bytes;
      results += vr.objects.size();
    }
  }

  const double q = static_cast<double>(queries);
  // Query/verify burn no gas; the record carries the figure's metrics in
  // `extra` (per-query averages) instead of the gas columns.
  BenchRun run(bench, name, ads, DistName(dist), n);
  run.Extra("selectivity", selectivity);
  run.Extra("queries", q);
  run.Extra("sp_ms_per_query", sp_seconds * 1000.0 / q);
  run.Extra("client_ms_per_query", client_seconds * 1000.0 / q);
  run.Extra("vo_sp_kb_per_query", static_cast<double>(vo_sp_bytes) / q / 1024.0);
  run.Extra("results_per_query", static_cast<double>(results) / q);
  run.Finish();
  state.counters["sp_ms_per_query"] = benchmark::Counter(sp_seconds * 1000.0 / q);
  state.counters["client_ms_per_query"] =
      benchmark::Counter(client_seconds * 1000.0 / q);
  state.counters["vo_sp_kb_per_query"] =
      benchmark::Counter(static_cast<double>(vo_sp_bytes) / q / 1024.0);
  state.counters["results_per_query"] =
      benchmark::Counter(static_cast<double>(results) / q);
}

inline void RegisterQueryBenchmarks(const char* figure, KeyDistribution dist) {
  std::string bench(figure);
  for (char& c : bench) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const struct {
    AdsKind kind;
    const char* name;
  } kinds[] = {
      {AdsKind::kMbTree, "MB-tree"},
      {AdsKind::kGem2, "GEM2-tree"},
      {AdsKind::kGem2Star, "GEM2x-tree"},
      {AdsKind::kLsm, "LSM-tree"},
  };
  for (const auto& k : kinds) {
    for (double sel : {0.01, 0.02, 0.05, 0.10}) {
      std::string name = std::string(figure) + "/" + k.name + "/" +
                         DistName(dist) +
                         "/selectivity:" + std::to_string(sel).substr(0, 4);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [bench, name, ads = k.name, kind = k.kind, dist, sel](benchmark::State& s) {
            QueryPerformance(s, bench, name, ads, kind, dist, sel);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace gem2::bench

#endif  // GEM2_BENCH_BENCH_QUERY_H_
