// Wall-clock benchmarks for the concurrent SP engine and the incremental
// digest machinery (this repo's perf additions on top of the paper's gas
// experiments):
//   - Keccak kernel throughput (MB/s, ns per permutation);
//   - parallel vs serial SP StaticTree bulk-load (speedup on the pool);
//   - parallel QueryBatch vs serial ExecuteSpec throughput (ops/sec);
//   - Keccak permutations per incremental update vs full rebuild;
//   - metered MB-tree P0 bulk merges (ns and Keccak permutations per bulk);
//   - metered GEM2 owner inserts through AuthenticatedDb (ns, gas and Keccak
//     permutations per insert, p50 of the block-sealing inserts);
//   - the spec-response wire codec (serialize and parse ns, bytes per
//     response) for a flat and a 4-shard store.
// Emits BENCH_throughput.json; the speedup / savings factors are the
// acceptance numbers tracked in EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "ads/static_tree.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "mbtree/mbtree.h"
#include "telemetry/metrics.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

ads::EntryList MakeEntries(uint64_t n, uint64_t seed) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform, seed));
  ads::EntryList entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const Object obj = gen.Next().object;
    entries.push_back({obj.key, crypto::ValueHash(obj.value)});
  }
  std::sort(entries.begin(), entries.end(), ads::EntryKeyLess);
  return entries;
}

void KeccakKernel(benchmark::State& state) {
  const uint64_t mib = EnvScale("GEM2_KECCAK_MIB", 8);
  Bytes data(mib << 20);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 131);

  double seconds = 0;
  uint64_t permutations = 0;
  for (auto _ : state) {
    const uint64_t p0 = crypto::KeccakPermutationCount();
    const auto t0 = Clock::now();
    Hash digest = crypto::Keccak256(data);
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(digest);
    seconds += Seconds(t0, t1);
    permutations += crypto::KeccakPermutationCount() - p0;
  }

  const double mb = static_cast<double>(data.size()) / 1e6 *
                    static_cast<double>(state.iterations());
  BenchRun run("throughput", "Throughput/Keccak/kernel", "-", "-", data.size());
  run.Extra("mb_per_s", mb / seconds);
  run.Extra("ns_per_permutation",
            seconds * 1e9 / static_cast<double>(permutations));
  run.Finish();
  state.counters["mb_per_s"] = benchmark::Counter(mb / seconds);
}

/// Serial vs pool-parallel StaticTree construction over the same sorted run.
/// This is the SP's bulk-load path: every SMB-tree / partition materialization
/// goes through this constructor.
void BulkLoad(benchmark::State& state) {
  const uint64_t n = EnvScale("GEM2_BULKLOAD_N", 200'000);
  ads::EntryList entries = MakeEntries(n, 42);
  common::ThreadPool& pool = common::ThreadPool::Global();

  double serial_s = 0;
  double parallel_s = 0;
  for (auto _ : state) {
    ads::EntryList serial_in = entries;
    const auto t0 = Clock::now();
    ads::StaticTree serial(std::move(serial_in), 4, nullptr);
    const auto t1 = Clock::now();
    ads::EntryList parallel_in = entries;
    const auto t2 = Clock::now();
    ads::StaticTree parallel(std::move(parallel_in), 4, &pool);
    const auto t3 = Clock::now();
    if (serial.root_digest() != parallel.root_digest()) {
      state.SkipWithError("parallel bulk-load root diverged from serial");
      return;
    }
    serial_s += Seconds(t0, t1);
    parallel_s += Seconds(t2, t3);
  }

  BenchRun run("throughput", "Throughput/BulkLoad/StaticTree", "SMB-tree",
               "uniform", n);
  run.Extra("threads", static_cast<double>(pool.num_threads() + 1));
  run.Extra("serial_ms", serial_s * 1000.0);
  run.Extra("parallel_ms", parallel_s * 1000.0);
  run.Extra("speedup", serial_s / parallel_s);
  run.Finish();
  state.counters["speedup"] = benchmark::Counter(serial_s / parallel_s);
}

/// Serial ExecuteSpec loop vs one QueryBatch over the same range specs and
/// snapshot.
void QueryThroughput(benchmark::State& state, const char* ads, AdsKind kind) {
  const uint64_t n = EnvScale("GEM2_QUERY_N", 50'000);
  const uint64_t queries = EnvScale("GEM2_BATCH_QUERIES", 200);

  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  auto db = std::make_unique<AuthenticatedDb>(MakeDbOptions(kind, gen));
  core::SpQueryEngine engine(db.get());
  // Ingest through the engine so its write-latency reservoir sees every op.
  telemetry::MetricsRegistry::Global().histogram("sp_engine.write_ns").Reset();
  for (uint64_t i = 0; i < n; ++i) engine.Insert(gen.Next().object);

  std::vector<core::QuerySpec> specs;
  specs.reserve(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    const workload::RangeQuerySpec probe = gen.NextQuery(0.01);
    specs.push_back(core::QuerySpec::Range(probe.lb, probe.ub));
  }
  // Warm the SP caches so both sides measure query serving, not tree builds.
  benchmark::DoNotOptimize(engine.ExecuteSpec(specs[0]));
  telemetry::MetricsRegistry::Global().histogram("sp_engine.query_ns").Reset();

  double serial_s = 0;
  double parallel_s = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    for (const core::QuerySpec& spec : specs) {
      core::SpecResponse response = engine.ExecuteSpec(spec);
      benchmark::DoNotOptimize(response);
    }
    const auto t1 = Clock::now();
    std::vector<core::SpecResponse> batch = engine.QueryBatch(specs);
    const auto t2 = Clock::now();
    if (batch.size() != specs.size()) {
      state.SkipWithError("batch result count mismatch");
      return;
    }
    serial_s += Seconds(t0, t1);
    parallel_s += Seconds(t1, t2);
  }

  const double total =
      static_cast<double>(queries) * static_cast<double>(state.iterations());
  BenchRun run("throughput", std::string("Throughput/QueryBatch/") + ads, ads,
               "uniform", n);
  run.Extra("threads",
            static_cast<double>(engine.pool().num_threads() + 1));
  run.Extra("queries", static_cast<double>(queries));
  run.Extra("serial_qps", total / serial_s);
  run.Extra("parallel_qps", total / parallel_s);
  run.Extra("speedup", serial_s / parallel_s);
  // Exact per-op latency quantiles, cut from the engine's fixed-memory
  // reservoirs over the ops this run actually issued.
  auto& registry = telemetry::MetricsRegistry::Global();
  const telemetry::QuantileSummary query_q =
      registry.histogram("sp_engine.query_ns").Quantiles();
  run.Extra("query_p50_ns", query_q.p50);
  run.Extra("query_p99_ns", query_q.p99);
  run.Extra("query_p999_ns", query_q.p999);
  const telemetry::QuantileSummary write_q =
      registry.histogram("sp_engine.write_ns").Quantiles();
  run.Extra("insert_p50_ns", write_q.p50);
  run.Extra("insert_p99_ns", write_q.p99);
  run.Extra("insert_p999_ns", write_q.p999);
  run.Finish();
  state.counters["serial_qps"] = benchmark::Counter(total / serial_s);
  state.counters["parallel_qps"] = benchmark::Counter(total / parallel_s);
  state.counters["speedup"] = benchmark::Counter(serial_s / parallel_s);
}

/// Keccak permutations per incremental UpdateValueHash vs a full rebuild of
/// the same tree — the dirty-tracking acceptance number (target: >= 5x).
void IncrementalDigest(benchmark::State& state) {
  const uint64_t n = EnvScale("GEM2_INCR_N", 50'000);
  const uint64_t updates = EnvScale("GEM2_INCR_UPDATES", 200);
  ads::EntryList entries = MakeEntries(n, 7);

  double rebuild_perms = 0;
  double incr_perms = 0;
  for (auto _ : state) {
    ads::EntryList in = entries;
    const uint64_t p0 = crypto::KeccakPermutationCount();
    ads::StaticTree tree(std::move(in), 4);
    const uint64_t p1 = crypto::KeccakPermutationCount();
    Rng rng(1234);
    for (uint64_t u = 0; u < updates; ++u) {
      const Key key =
          tree.entries()[rng.Uniform(0, tree.entries().size() - 1)].key;
      Hash fresh = crypto::ValueHash("payload-" + std::to_string(u));
      if (!tree.UpdateValueHash(key, fresh)) {
        state.SkipWithError("incremental update missed an existing key");
        return;
      }
    }
    const uint64_t p2 = crypto::KeccakPermutationCount();
    rebuild_perms += static_cast<double>(p1 - p0);
    incr_perms += static_cast<double>(p2 - p1);
  }

  const double per_update =
      incr_perms / static_cast<double>(updates) /
      static_cast<double>(state.iterations());
  const double per_rebuild =
      rebuild_perms / static_cast<double>(state.iterations());
  BenchRun run("throughput", "Throughput/IncrementalDigest/StaticTree",
               "SMB-tree", "uniform", n);
  run.Extra("rebuild_permutations", per_rebuild);
  run.Extra("permutations_per_update", per_update);
  run.Extra("savings_factor", per_rebuild / per_update);
  run.Finish();
  state.counters["permutations_per_update"] = benchmark::Counter(per_update);
  state.counters["savings_factor"] =
      benchmark::Counter(per_rebuild / per_update);
}

/// The owner's P_1 -> P0 migration (Algorithm 2): a metered BulkInsert of
/// one Smax = 2048 sorted run into an N-entry MB-tree P0, whose cost is the
/// batched digest refresh of every node the run touches. Runs are drawn
/// uniformly from the key space, so each lands across the whole tree.
/// Permutations are counted logically, so perms_per_bulk is a pure function
/// of (N, seed) on any host.
void P0BulkMerge(benchmark::State& state) {
  constexpr uint64_t kSmax = 2048;
  constexpr uint64_t kBulks = 16;
  const uint64_t n = EnvScale("GEM2_BULKLOAD_N", 200'000);
  ads::EntryList all = MakeEntries(n + kBulks * kSmax, 11);
  Rng rng(2048);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(0, i - 1)]);
  }
  auto sorted_slice = [&all](size_t begin, size_t count) {
    ads::EntryList run(all.begin() + static_cast<std::ptrdiff_t>(begin),
                       all.begin() + static_cast<std::ptrdiff_t>(begin + count));
    std::sort(run.begin(), run.end(), ads::EntryKeyLess);
    return run;
  };

  double seconds = 0;
  double permutations = 0;
  double gas = 0;
  for (auto _ : state) {
    mbtree::MbTree p0;
    p0.BulkInsert(sorted_slice(0, n));
    benchmark::DoNotOptimize(p0.root_digest());
    for (uint64_t b = 0; b < kBulks; ++b) {
      const ads::EntryList run = sorted_slice(n + b * kSmax, kSmax);
      gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
      const uint64_t p_before = crypto::KeccakPermutationCount();
      const auto t0 = Clock::now();
      p0.BulkInsert(run, &meter);
      const auto t1 = Clock::now();
      permutations += static_cast<double>(crypto::KeccakPermutationCount() - p_before);
      seconds += Seconds(t0, t1);
      gas += static_cast<double>(meter.used());
    }
  }

  const double bulks =
      static_cast<double>(kBulks) * static_cast<double>(state.iterations());
  BenchRun run("throughput", "Throughput/P0BulkMerge", "MB-tree", "uniform", n);
  run.Extra("smax", static_cast<double>(kSmax));
  run.Extra("bulks", bulks);
  run.Extra("ns_per_bulk", seconds * 1e9 / bulks);
  run.Extra("perms_per_bulk", permutations / bulks);
  run.Extra("gas_per_bulk", gas / bulks);
  run.Finish();
  state.counters["ns_per_bulk"] = benchmark::Counter(seconds * 1e9 / bulks);
  state.counters["perms_per_bulk"] = benchmark::Counter(permutations / bulks);
}

/// The owner's write path end to end: `GEM2_OWNER_N` metered inserts of
/// fresh uniform keys through AuthenticatedDb in the paper setting (M=8,
/// Smax=2048, F=4, 1024 transactions per block). Gas and permutations per
/// insert are exact counts for a given N; the write that fills a block also
/// runs its seal, so seal_ns_p50 is the p50 of those writes alone.
void Gem2OwnerInsert(benchmark::State& state) {
  const uint64_t n = EnvScale("GEM2_OWNER_N", 100'000);
  double seconds = 0;
  double permutations = 0;
  double gas = 0;
  std::vector<double> seal_ns;
  for (auto _ : state) {
    WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform, 7));
    std::vector<Object> objects;
    objects.reserve(n);
    for (uint64_t i = 0; i < n; ++i) objects.push_back(gen.Next().object);
    AuthenticatedDb db(MakeDbOptions(AdsKind::kGem2, gen));
    const chain::Environment& env = db.environment();
    const uint64_t p_before = crypto::KeccakPermutationCount();
    const auto t0 = Clock::now();
    for (const Object& object : objects) {
      const auto w0 = Clock::now();
      gas += static_cast<double>(db.Insert(object).gas_used);
      if (env.num_transactions() % env.options().txs_per_block == 0) {
        seal_ns.push_back(Seconds(w0, Clock::now()) * 1e9);
      }
    }
    benchmark::DoNotOptimize(env.blockchain().height());  // lands the last seal
    seconds += Seconds(t0, Clock::now());
    permutations += static_cast<double>(crypto::KeccakPermutationCount() - p_before);
  }

  const double inserts = static_cast<double>(n) * static_cast<double>(state.iterations());
  std::sort(seal_ns.begin(), seal_ns.end());
  BenchRun run("throughput", "Throughput/Gem2OwnerInsert", "GEM2-tree", "uniform", n);
  run.Extra("ns_per_insert", seconds * 1e9 / inserts);
  run.Extra("gas_per_insert", gas / inserts);
  run.Extra("perms_per_insert", permutations / inserts);
  run.Extra("seal_ns_p50", seal_ns.empty() ? 0 : seal_ns[seal_ns.size() / 2]);
  run.Finish();
  state.counters["ns_per_insert"] = benchmark::Counter(seconds * 1e9 / inserts);
  state.counters["perms_per_insert"] = benchmark::Counter(permutations / inserts);
}

/// Spec-response codec stage: SerializeSpecResponseInto into a reused
/// buffer and ParseSpecResponse, per response, best of five passes over the
/// same responses. One row per selectivity (the paper's 0.1% / 1% / 10%).
/// `bytes_per_response` is exact for a fixed (N, queries, seed), so CI
/// compares it to the committed baseline exactly.
void SpecCodec(benchmark::State& state, const char* store_name, size_t shards) {
  const uint64_t n = EnvScale("GEM2_QUERY_N", 50'000);
  const uint64_t queries = EnvScale("GEM2_BATCH_QUERIES", 200);
  constexpr int kPasses = 5;

  struct Stage {
    double selectivity = 0;
    const char* label = "";
    std::vector<core::SpecResponse> responses;
    std::vector<Bytes> images;
    double serialize_s = std::numeric_limits<double>::infinity();
    double parse_s = std::numeric_limits<double>::infinity();
  };

  WorkloadGenerator gen;
  auto store = BuildStore(AdsKind::kGem2, KeyDistribution::kUniform, n, shards, &gen);
  std::vector<Stage> stages;
  for (const auto& [selectivity, label] :
       {std::pair{0.001, "0.1%"}, std::pair{0.01, "1%"}, std::pair{0.1, "10%"}}) {
    Stage& stage = stages.emplace_back();
    stage.selectivity = selectivity;
    stage.label = label;
    for (uint64_t q = 0; q < queries; ++q) {
      const workload::RangeQuerySpec range = gen.NextQuery(selectivity);
      stage.responses.push_back(
          store->ExecuteSpec(core::QuerySpec::Range(range.lb, range.ub)));
    }
    stage.images.resize(queries);
  }

  for (auto _ : state) {
    for (Stage& stage : stages) {
      for (int pass = 0; pass < kPasses; ++pass) {
        const auto t0 = Clock::now();
        for (uint64_t q = 0; q < queries; ++q) {
          stage.images[q].clear();
          core::SerializeSpecResponseInto(stage.responses[q],
                                          store->wire_version(), &stage.images[q]);
        }
        const auto t1 = Clock::now();
        for (const Bytes& image : stage.images) {
          std::optional<core::SpecResponse> parsed = core::ParseSpecResponse(image);
          if (!parsed.has_value()) {
            state.SkipWithError("an honest spec image did not parse");
            return;
          }
          benchmark::DoNotOptimize(parsed);
        }
        const auto t2 = Clock::now();
        stage.serialize_s = std::min(stage.serialize_s, Seconds(t0, t1));
        stage.parse_s = std::min(stage.parse_s, Seconds(t1, t2));
      }
    }
  }

  const double q = static_cast<double>(queries);
  for (const Stage& stage : stages) {
    uint64_t bytes = 0;
    for (const Bytes& image : stage.images) bytes += image.size();
    BenchRun run("throughput",
                 std::string("Wire/SpecCodec/") + store_name + "/Sel:" + stage.label,
                 store->BackendName(), "uniform", n);
    run.Extra("shards", static_cast<double>(shards));
    run.Extra("selectivity", stage.selectivity);
    run.Extra("queries", q);
    run.Extra("serialize_ns", stage.serialize_s * 1e9 / q);
    run.Extra("parse_ns", stage.parse_s * 1e9 / q);
    run.Extra("bytes_per_response", static_cast<double>(bytes) / q);
    run.Finish();
  }
}

void RegisterAll() {
  benchmark::RegisterBenchmark("Throughput/Keccak/kernel", KeccakKernel)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Throughput/BulkLoad/StaticTree", BulkLoad)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  const struct {
    AdsKind kind;
    const char* name;
  } kinds[] = {
      {AdsKind::kGem2, "GEM2-tree"},
      {AdsKind::kGem2Star, "GEM2x-tree"},
  };
  for (const auto& k : kinds) {
    std::string name = std::string("Throughput/QueryBatch/") + k.name;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [ads = k.name, kind = k.kind](benchmark::State& s) {
          QueryThroughput(s, ads, kind);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("Throughput/IncrementalDigest/StaticTree",
                               IncrementalDigest)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Throughput/P0BulkMerge", P0BulkMerge)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Throughput/Gem2OwnerInsert", Gem2OwnerInsert)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  for (const auto& [store_name, shards] :
       {std::pair{"Flat", size_t{0}}, std::pair{"S4", size_t{4}}}) {
    benchmark::RegisterBenchmark(
        (std::string("Wire/SpecCodec/") + store_name).c_str(),
        [store_name = store_name, shards = shards](benchmark::State& s) {
          SpecCodec(s, store_name, shards);
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
