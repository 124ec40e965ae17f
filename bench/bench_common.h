/// \file bench_common.h
/// Shared plumbing for the paper-reproduction benchmarks: database builders,
/// workload wiring, and environment-variable scale knobs.
///
/// Every bench binary prints one series per benchmark name, e.g.
///   Fig7/GEM2-tree/uniform/N:10000  ... gas_per_op=1.23e5
/// matching the corresponding paper table or figure (see EXPERIMENTS.md).
#ifndef GEM2_BENCH_BENCH_COMMON_H_
#define GEM2_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "shard/sharded_db.h"
#include "telemetry/exporters.h"
#include "workload/workload.h"

namespace gem2::bench {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using workload::KeyDistribution;
using workload::Operation;
using workload::WorkloadGenerator;
using workload::WorkloadOptions;

/// Reads a positive integer scale knob from the environment.
inline uint64_t EnvScale(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

inline const char* DistName(KeyDistribution d) {
  return d == KeyDistribution::kUniform ? "uniform" : "zipfian";
}

inline WorkloadOptions MakeWorkload(KeyDistribution dist, uint64_t seed = 42,
                                    double update_ratio = 0.0) {
  WorkloadOptions w;
  w.distribution = dist;
  w.zipf_constant = 0.8;
  w.domain_max = 1'000'000'000;
  w.update_ratio = update_ratio;
  w.seed = seed;
  return w;
}

/// DbOptions with the paper's Section VII-A parameters. The gas limit is
/// lifted so gas can be *measured* past the 8M block limit (the gasLimit
/// feasibility experiment enforces the real limit separately).
inline DbOptions MakeDbOptions(AdsKind kind, const WorkloadGenerator& gen,
                               size_t regions = 100) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 8;
  o.gem2.smax = 2048;
  o.gem2.fanout = 4;
  o.lsm.level0_capacity = 8;
  o.lsm.fanout = 4;
  o.env.gas_limit = 1'000'000'000'000'000ull;
  o.env.txs_per_block = 1024;
  if (kind == AdsKind::kGem2Star) {
    o.split_points = gen.SplitPoints(regions);
  }
  return o;
}

/// Builds a database preloaded with `n` fresh objects.
inline std::unique_ptr<AuthenticatedDb> BuildDb(AdsKind kind, KeyDistribution dist,
                                                uint64_t n,
                                                WorkloadGenerator* gen_out = nullptr,
                                                size_t regions = 100) {
  WorkloadGenerator gen(MakeWorkload(dist));
  auto db = std::make_unique<AuthenticatedDb>(MakeDbOptions(kind, gen, regions));
  for (uint64_t i = 0; i < n; ++i) {
    db->Insert(gen.Next().object);
  }
  if (gen_out != nullptr) *gen_out = std::move(gen);
  return db;
}

/// Builds a RangeStore preloaded with `n` fresh objects: `shards == 0` gives
/// the single-contract AuthenticatedDb, `shards >= 1` a ShardedDb
/// partitioned at the workload distribution's quantile bounds (so a one-shard
/// sharded store measures the composite protocol's own overhead). Benchmarks
/// drive the role-separated interface either way.
inline std::unique_ptr<core::RangeStore> BuildStore(
    AdsKind kind, KeyDistribution dist, uint64_t n, size_t shards,
    WorkloadGenerator* gen_out = nullptr, size_t regions = 100) {
  WorkloadGenerator gen(MakeWorkload(dist));
  std::unique_ptr<core::RangeStore> store;
  if (shards == 0) {
    store = std::make_unique<AuthenticatedDb>(MakeDbOptions(kind, gen, regions));
  } else {
    shard::ShardOptions o;
    o.base = MakeDbOptions(kind, gen, regions);
    o.bounds = gen.ShardBounds(shards);
    store = std::make_unique<shard::ShardedDb>(std::move(o));
  }
  for (uint64_t i = 0; i < n; ++i) store->Insert(gen.Next().object);
  if (gen_out != nullptr) *gen_out = std::move(gen);
  return store;
}

/// Parallel capacity the host delivers, measured once per process (about
/// 0.1 s). A container can report more hardware threads than it delivers, so
/// gates that need parallel hardware key on this instead of
/// hardware_concurrency(): k = hardware_concurrency() spin workers run the
/// same fixed work as one worker alone, and effective_cores = k * t(1) / t(k),
/// capped at k, best of two timings per side. gem2bench's host probe
/// measures the same way.
inline double EffectiveCores() {
  static const double cores = [] {
    using Clock = std::chrono::steady_clock;
    static std::atomic<uint64_t> sink{0};  // keeps the spins observable
    constexpr uint64_t kIterations = 10'000'000;
    auto time_workers = [](unsigned k) {
      const auto t0 = Clock::now();
      std::vector<std::thread> workers;
      for (unsigned i = 0; i < k; ++i) {
        workers.emplace_back([i] {
          uint64_t x = (i + 1) | 1;
          for (uint64_t j = 0; j < kIterations; ++j) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
          }
          sink.fetch_xor(x, std::memory_order_relaxed);
        });
      }
      for (std::thread& t : workers) t.join();
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const unsigned k = std::max(1u, std::thread::hardware_concurrency());
    const double t1 = std::min(time_workers(1), time_workers(1));
    const double tk = std::min(time_workers(k), time_workers(k));
    return std::min<double>(k, k * t1 / std::max(tk, 1e-9));
  }();
  return cores;
}

/// Accumulates one benchmark data point (receipts + wall clock) and reports
/// it to the global telemetry::BenchReporter. Create it at the top of a
/// benchmark body, Count() every receipt, and Finish() once done; the main()
/// then calls EmitBenchJson() to write BENCH_<bench>.json files.
class BenchRun {
 public:
  BenchRun(std::string bench, std::string name, std::string ads, std::string dist,
           uint64_t dataset_size)
      : start_(std::chrono::steady_clock::now()) {
    record_.bench = std::move(bench);
    record_.name = std::move(name);
    record_.ads = std::move(ads);
    record_.dist = std::move(dist);
    record_.dataset_size = dataset_size;
  }

  void Count(const chain::TxReceipt& receipt) {
    ++record_.ops;
    record_.gas_total += static_cast<double>(receipt.gas_used);
    record_.breakdown += receipt.breakdown;
  }

  void Extra(const std::string& key, double value) { record_.extra[key] = value; }

  void Finish() {
    record_.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    record_.gas_mean =
        record_.ops > 0 ? record_.gas_total / static_cast<double>(record_.ops) : 0;
    telemetry::BenchReporter::Global().Record(record_);
  }

 private:
  telemetry::BenchRecord record_;
  std::chrono::steady_clock::time_point start_;
};

/// Writes every recorded data point to BENCH_<bench>.json (under
/// $GEM2_BENCH_JSON_DIR or the working directory) and says where they went.
/// Call after benchmark::RunSpecifiedBenchmarks().
inline void EmitBenchJson() {
  for (const std::string& path : telemetry::BenchReporter::Global().WriteFiles()) {
    printf("bench-json: %s\n", path.c_str());
  }
}

}  // namespace gem2::bench

#endif  // GEM2_BENCH_BENCH_COMMON_H_
