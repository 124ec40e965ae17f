// Client verify throughput: serial vs batched+pooled verification over
// composite responses, and wire bytes per query.
//
// For S in {1, 4, 8} two bit-identical sharded worlds are preloaded with the
// same uniform workload. One verifies serially (scalar Keccak, no pool); the
// other uses the batched 8-way hash engine with composite slices fanned out
// on the global ThreadPool. Both run VerifySpecAgainst over the same
// pre-gathered low-selectivity responses (the hot pure-CPU client path of
// Figs. 9-10), so the qps ratio isolates the client-side speedup. The same
// responses are serialized to report actual bytes shipped per query: the one
// conjunct's SerializeResponse image, byte-identical to the image the spec
// answer embeds.
//
// Emits BENCH_verify.json. Reported per row: qps_serial, qps_batched,
// speedup, bytes_v3 and vo_bytes_v3 per query, `cores` and the
// measured `effective_cores` — the CI throughput floor only applies on hosts
// that deliver at least 3.5 cores.
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/wire.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Builds one sharded world with the given client-side verification config.
// The workload seed is fixed, so every world built at the same (n, shards)
// holds bit-identical data and digests — responses gathered from one verify
// against the other's chain state.
std::unique_ptr<shard::ShardedDb> BuildWorld(size_t shards, uint64_t n,
                                             bool batched,
                                             common::ThreadPool* pool,
                                             WorkloadGenerator* gen_out) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  shard::ShardOptions o;
  o.base = MakeDbOptions(AdsKind::kGem2, gen);
  o.base.client.batched_hashing = batched;
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
  auto serial_world = BuildWorld(shards, n, false, nullptr, &gen);
  auto batched_world =
      BuildWorld(shards, n, true, &common::ThreadPool::Global(), nullptr);
  auto serial_states = serial_world->ReadChainState();
  auto batched_states = batched_world->ReadChainState();

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
    responses.push_back(serial_world->ExecuteSpec(specs.back()));
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

  // Correctness gate: both verifiers must accept the honest answers with
  // identical results before either loop is worth timing.
  for (size_t i : {size_t{0}, responses.size() - 1}) {
    core::VerifiedSpecResult serial =
        serial_world->VerifySpecAgainst(serial_states, specs[i], responses[i]);
    core::VerifiedSpecResult batched = batched_world->VerifySpecAgainst(
        batched_states, specs[i], responses[i]);
    if (!serial.ok || !batched.ok || serial.objects != batched.objects) {
      state.SkipWithError("serial/batched verify disagree on an honest response");
      return;
    }
  }

  double serial_seconds = 0, batched_seconds = 0;
  for (auto _ : state) {
    serial_seconds +=
        TimeVerify(*serial_world, serial_states, specs, responses);
    batched_seconds +=
        TimeVerify(*batched_world, batched_states, specs, responses);
  }

  const double q = static_cast<double>(queries);
  const double qps_serial = serial_seconds > 0 ? q / serial_seconds : 0;
  const double qps_batched = batched_seconds > 0 ? q / batched_seconds : 0;

  BenchRun run("verify", name, serial_world->BackendName(), "uniform", n);
  run.Extra("shards", static_cast<double>(shards));
  run.Extra("selectivity", selectivity);
  run.Extra("queries", q);
  run.Extra("qps_serial", qps_serial);
  run.Extra("qps_batched", qps_batched);
  run.Extra("speedup", qps_serial > 0 ? qps_batched / qps_serial : 0);
  run.Extra("bytes_v3_per_query", static_cast<double>(bytes_v3) / q);
  run.Extra("payload_bytes_per_query", static_cast<double>(payload_bytes) / q);
  run.Extra("vo_bytes_v3_per_query", vo_v3 / q);
  run.Extra("cores", static_cast<double>(std::thread::hardware_concurrency()));
  run.Extra("effective_cores", EffectiveCores());
  run.Extra("pool_threads",
            static_cast<double>(common::ThreadPool::Global().num_threads()));
  run.Finish();

  state.counters["qps_serial"] = benchmark::Counter(qps_serial);
  state.counters["qps_batched"] = benchmark::Counter(qps_batched);
  state.counters["speedup"] =
      benchmark::Counter(qps_serial > 0 ? qps_batched / qps_serial : 0);
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
