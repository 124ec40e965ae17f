// Client verify throughput: composite verification with and without a
// client pool, the Keccak work per query, and wire bytes per query.
//
// For S in {1, 4, 8} two bit-identical sharded worlds are preloaded with the
// same uniform workload. Both run the one batched verifier; one verifies a
// composite's slices one after another, the other fans them out on the
// global ThreadPool (DbOptions::client.pool). Both run VerifySpecAgainst
// over the same pre-gathered low-selectivity responses (the hot pure-CPU
// client path of Figs. 9-10), so the qps ratio isolates the pool. The same
// responses are serialized to report actual bytes shipped per query: the one
// conjunct's SerializeResponse image, byte-identical to the image the spec
// answer embeds.
//
// Emits BENCH_verify.json. Reported per row: qps_unpooled, qps_pooled,
// speedup, perms_per_query (logical Keccak permutations of one verify, a
// pure function of the data on any host), bytes_v3 and vo_bytes_v3 per
// query, `cores` and the measured `effective_cores`.
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/wire.h"
#include "crypto/keccak.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Builds one sharded world with the given client slice pool (nullptr =
// slices verified one after another). The workload seed is fixed, so every
// world built at the same (n, shards) holds bit-identical data and digests —
// responses gathered from one verify against the other's chain state.
std::unique_ptr<shard::ShardedDb> BuildWorld(size_t shards, uint64_t n,
                                             common::ThreadPool* pool,
                                             WorkloadGenerator* gen_out) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  shard::ShardOptions o;
  o.base = MakeDbOptions(AdsKind::kGem2, gen);
  o.base.client.pool = pool;
  o.bounds = gen.ShardBounds(shards);
  auto world = std::make_unique<shard::ShardedDb>(std::move(o));
  for (uint64_t i = 0; i < n; ++i) world->Insert(gen.Next().object);
  if (gen_out != nullptr) *gen_out = std::move(gen);
  return world;
}

double TimeVerify(const core::RangeStore& store,
                  const std::vector<chain::AuthenticatedState>& states,
                  const std::vector<core::QuerySpec>& specs,
                  const std::vector<core::SpecResponse>& responses) {
  const auto t0 = Clock::now();
  for (size_t i = 0; i < responses.size(); ++i) {
    core::VerifiedSpecResult vr =
        store.VerifySpecAgainst(states, specs[i], responses[i]);
    benchmark::DoNotOptimize(vr.ok);
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void VerifyThroughput(benchmark::State& state, const std::string& name,
                      size_t shards, uint64_t n, double selectivity) {
  const uint64_t queries = EnvScale("GEM2_VERIFY_QUERIES", 100);

  WorkloadGenerator gen;
  auto unpooled_world = BuildWorld(shards, n, nullptr, &gen);
  auto pooled_world = BuildWorld(shards, n, &common::ThreadPool::Global(), nullptr);
  auto unpooled_states = unpooled_world->ReadChainState();
  auto pooled_states = pooled_world->ReadChainState();

  // The low-selectivity query set is gathered once: the timed loops measure
  // client verification only, never the SP. The VO-bytes column subtracts
  // the raw result payloads: what remains is the verification overhead the
  // wire compression targets.
  std::vector<core::QuerySpec> specs;
  std::vector<core::SpecResponse> responses;
  specs.reserve(queries);
  responses.reserve(queries);
  uint64_t bytes_v3 = 0, payload_bytes = 0;
  for (uint64_t q = 0; q < queries; ++q) {
    const workload::RangeQuerySpec probe = gen.NextQuery(selectivity);
    specs.push_back(core::QuerySpec::Range(probe.lb, probe.ub));
    responses.push_back(unpooled_world->ExecuteSpec(specs.back()));
    const core::QueryResponse& r = responses.back().conjuncts[0];
    bytes_v3 += SerializeResponse(r, core::WireVersion::kV3).size();
    for (const auto& tree : r.trees)
      for (const auto& object : tree.objects) payload_bytes += object.value.size();
    for (const auto& slice : r.slices)
      for (const auto& tree : slice.response.trees)
        for (const auto& object : tree.objects)
          payload_bytes += object.value.size();
  }
  const double vo_v3 = static_cast<double>(bytes_v3 - payload_bytes);

  // Correctness gate: both worlds must accept the honest answers with
  // identical results before either loop is worth timing.
  for (size_t i : {size_t{0}, responses.size() - 1}) {
    core::VerifiedSpecResult unpooled =
        unpooled_world->VerifySpecAgainst(unpooled_states, specs[i], responses[i]);
    core::VerifiedSpecResult pooled =
        pooled_world->VerifySpecAgainst(pooled_states, specs[i], responses[i]);
    if (!unpooled.ok || !pooled.ok || unpooled.objects != pooled.objects) {
      state.SkipWithError("pooled/unpooled verify disagree on an honest response");
      return;
    }
  }

  // Logical permutations are counted process-wide, so one untimed pass
  // yields the per-query Keccak work whatever the host or pool.
  const uint64_t perms0 = crypto::KeccakPermutationCount();
  TimeVerify(*unpooled_world, unpooled_states, specs, responses);
  const uint64_t perms = crypto::KeccakPermutationCount() - perms0;

  double unpooled_seconds = 0, pooled_seconds = 0;
  for (auto _ : state) {
    unpooled_seconds +=
        TimeVerify(*unpooled_world, unpooled_states, specs, responses);
    pooled_seconds += TimeVerify(*pooled_world, pooled_states, specs, responses);
  }

  const double q = static_cast<double>(queries);
  const double qps_unpooled = unpooled_seconds > 0 ? q / unpooled_seconds : 0;
  const double qps_pooled = pooled_seconds > 0 ? q / pooled_seconds : 0;
  const double speedup = qps_unpooled > 0 ? qps_pooled / qps_unpooled : 0;

  BenchRun run("verify", name, unpooled_world->BackendName(), "uniform", n);
  run.Extra("shards", static_cast<double>(shards));
  run.Extra("selectivity", selectivity);
  run.Extra("queries", q);
  run.Extra("qps_unpooled", qps_unpooled);
  run.Extra("qps_pooled", qps_pooled);
  run.Extra("speedup", speedup);
  run.Extra("perms_per_query", static_cast<double>(perms) / q);
  run.Extra("bytes_v3_per_query", static_cast<double>(bytes_v3) / q);
  run.Extra("payload_bytes_per_query", static_cast<double>(payload_bytes) / q);
  run.Extra("vo_bytes_v3_per_query", vo_v3 / q);
  run.Extra("cores", static_cast<double>(std::thread::hardware_concurrency()));
  run.Extra("effective_cores", EffectiveCores());
  run.Extra("pool_threads",
            static_cast<double>(common::ThreadPool::Global().num_threads()));
  run.Finish();

  state.counters["qps_unpooled"] = benchmark::Counter(qps_unpooled);
  state.counters["qps_pooled"] = benchmark::Counter(qps_pooled);
  state.counters["speedup"] = benchmark::Counter(speedup);
  state.counters["perms_per_query"] =
      benchmark::Counter(static_cast<double>(perms) / q);
  state.counters["bytes_v3_per_query"] =
      benchmark::Counter(static_cast<double>(bytes_v3) / q);
}

void RegisterAll() {
  const uint64_t n = EnvScale("GEM2_VERIFY_N", 10'000);
  // Low selectivity (paper Figs. 9-10 low end), in basis points. 1% keeps the
  // VO large enough that its compression is measurable past the image's
  // incompressible floor (pruned-subtree hashes and raw payloads).
  const double selectivity =
      static_cast<double>(EnvScale("GEM2_VERIFY_SEL_BP", 100)) / 10'000.0;
  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    std::string name =
        "Verify/S:" + std::to_string(shards) + "/N:" + std::to_string(n);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [name, shards, n, selectivity](benchmark::State& s) {
          VerifyThroughput(s, name, shards, n, selectivity);
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
