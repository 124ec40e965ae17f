// Client verify throughput: composite verification qps, the Keccak work per
// query, and wire bytes per query.
//
// For S in {1, 4, 8} one sharded world is preloaded with a uniform workload.
// The client runs VerifySpecAgainst, slice after slice on the calling thread,
// over pre-gathered low-selectivity responses (the hot pure-CPU client path
// of Figs. 9-10). The same responses are serialized to report actual bytes
// shipped per query: the one conjunct's SerializeResponse image,
// byte-identical to the image the spec answer embeds.
//
// Emits BENCH_verify.json. Reported per row: qps, perms_per_query (logical
// Keccak permutations of one verify, a pure function of the data on any
// host), bytes_v3 and vo_bytes_v3 per query, `cores` and the measured
// `effective_cores`.
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/wire.h"
#include "crypto/keccak.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Builds one sharded world preloaded with `n` uniform inserts; the
// generator comes back in `gen_out` to draw the query set from.
std::unique_ptr<shard::ShardedDb> BuildWorld(size_t shards, uint64_t n,
                                             WorkloadGenerator* gen_out) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  shard::ShardOptions o;
  o.base = MakeDbOptions(AdsKind::kGem2, gen);
  o.bounds = gen.ShardBounds(shards);
  auto world = std::make_unique<shard::ShardedDb>(std::move(o));
  for (uint64_t i = 0; i < n; ++i) world->Insert(gen.Next().object);
  *gen_out = std::move(gen);
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
  auto world = BuildWorld(shards, n, &gen);
  auto states = world->ReadChainState();

  // The low-selectivity query set is gathered once: the timed loop measures
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
    responses.push_back(world->ExecuteSpec(specs.back()));
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

  // Correctness gate: the client must accept the honest answers before the
  // loop is worth timing.
  for (size_t i : {size_t{0}, responses.size() - 1}) {
    if (!world->VerifySpecAgainst(states, specs[i], responses[i]).ok) {
      state.SkipWithError("verify rejected an honest response");
      return;
    }
  }

  // Logical permutations are counted process-wide, so one untimed pass
  // yields the per-query Keccak work whatever the host.
  const uint64_t perms0 = crypto::KeccakPermutationCount();
  TimeVerify(*world, states, specs, responses);
  const uint64_t perms = crypto::KeccakPermutationCount() - perms0;

  double seconds = 0;
  for (auto _ : state) seconds += TimeVerify(*world, states, specs, responses);

  const double q = static_cast<double>(queries);
  const double qps = seconds > 0 ? q / seconds : 0;

  const double effective_cores = EffectiveCores();  // probed outside wall_ms
  BenchRun run("verify", name, world->BackendName(), "uniform", n);
  run.Extra("shards", static_cast<double>(shards));
  run.Extra("selectivity", selectivity);
  run.Extra("queries", q);
  run.Extra("qps", qps);
  run.Extra("perms_per_query", static_cast<double>(perms) / q);
  run.Extra("bytes_v3_per_query", static_cast<double>(bytes_v3) / q);
  run.Extra("payload_bytes_per_query", static_cast<double>(payload_bytes) / q);
  run.Extra("vo_bytes_v3_per_query", vo_v3 / q);
  run.Extra("cores", static_cast<double>(std::thread::hardware_concurrency()));
  run.Extra("effective_cores", effective_cores);
  run.Finish();

  state.counters["qps"] = benchmark::Counter(qps);
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
