// VO_chain size vs database size (paper Section V-F: "As for VO_chain, its
// size is linear to the number of partitions (i.e., max)").
//
// Expected shape: for the GEM2-tree, the number of on-chain digests — and so
// the VO_chain bytes a client downloads — grows with max = O(log N), not
// with N; the MB-tree has a constant single digest; the GEM2*-tree pays
// O(regions * log) but each query only consumes the overlapping regions'
// digests.
//
// The VO_sp column reports what a 1%-selectivity response actually costs on
// the wire: wire_v3_bytes is the serialized image size straight from the
// wire encoder (not a per-field estimate).
#include "bench_common.h"
#include "core/wire.h"

namespace gem2::bench {
namespace {

void VoChainSize(benchmark::State& state, AdsKind kind, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  AuthenticatedDb db(MakeDbOptions(kind, gen));
  for (uint64_t i = 0; i < n; ++i) db.Insert(gen.Next().object);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ChainDigests());
  }
  const auto digests = db.ChainDigests();
  uint64_t bytes = 0;
  for (const auto& d : digests) bytes += d.label.size() + 32;
  state.counters["digests"] = benchmark::Counter(static_cast<double>(digests.size()));
  state.counters["vo_chain_bytes"] = benchmark::Counter(static_cast<double>(bytes));

  // Actual shipped bytes for a representative query.
  const workload::RangeQuerySpec probe = gen.NextQuery(0.01);
  const core::SpecResponse answer =
      db.ExecuteSpec(core::QuerySpec::Range(probe.lb, probe.ub));
  state.counters["wire_v3_bytes"] = benchmark::Counter(
      static_cast<double>(core::SerializeResponse(answer.conjuncts[0],
                                                  core::WireVersion::kV3)
                              .size()));
}

void RegisterAll() {
  const struct {
    AdsKind kind;
    const char* name;
  } kinds[] = {
      {AdsKind::kMbTree, "MB-tree"},
      {AdsKind::kGem2, "GEM2-tree"},
      {AdsKind::kGem2Star, "GEM2x-tree"},
  };
  const uint64_t max_n = EnvScale("GEM2_VOCHAIN_MAX_N", 100'000);
  for (const auto& k : kinds) {
    for (uint64_t n = 1000; n <= max_n; n *= 10) {
      benchmark::RegisterBenchmark(
          (std::string("VoChain/") + k.name + "/N:" + std::to_string(n)).c_str(),
          [kind = k.kind, n](benchmark::State& s) { VoChainSize(s, kind, n); })
          ->Iterations(1);
    }
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
