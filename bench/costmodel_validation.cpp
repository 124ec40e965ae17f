// Validates the paper's analytic cost models (Sections IV-A, IV-B, V-F)
// against measured gas: for each structure and size, reports the measured
// per-operation gas next to the closed-form prediction and their ratio.
//
// Expected: ratios near 1 for the MB-tree insert/update and SMB-tree insert
// formulas (our implementation charges the same operational terms), and the
// GEM2-tree measured cost bounded by the paper's O(log N) growth.
#include <cmath>

#include "bench_common.h"
#include "crypto/digest.h"
#include "mbtree/mbtree.h"
#include "smbtree/smbtree.h"

namespace gem2::bench {
namespace {

constexpr double kF = 4;  // fanout
const gas::Schedule kS = gas::kEthereumSchedule;

double MbInsertModel(double n) {
  // C = logF(N) * (2 sstore + 2 supdate + (2F+1) sload + Chash) + sstore
  const double levels = std::log(n) / std::log(kF);
  const double chash = 4 * 42 + 54 + 42;  // per-node hash work (F entries + fold)
  return levels * (2 * kS.sstore + 2 * kS.supdate + (2 * kF + 1) * kS.sload + chash) +
         kS.sstore;
}

double MbUpdateModel(double n) {
  // C = logF(N) * (supdate + (F+1) sload + Chash) + supdate
  const double levels = std::log(n) / std::log(kF);
  const double chash = 4 * 42 + 54 + 42;
  return levels * (kS.supdate + (kF + 1) * kS.sload + chash) + kS.supdate;
}

double SmbInsertModel(double n) {
  // C = N*(sload + log2(N)*mem) + hash folding + sstore + supdate
  const double hash = n * 42.0 + (n / (kF - 1)) * (54 + 42);
  return n * (kS.sload + std::log2(n) * kS.mem) + hash + kS.sstore + kS.supdate;
}

void MbInsertVsModel(benchmark::State& state, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  mbtree::MbTree tree(4);
  for (uint64_t i = 0; i < n; ++i) {
    Object o = gen.Next().object;
    tree.Insert(o.key, crypto::ValueHash(o.value));
  }
  uint64_t gas = 0;
  const int kSamples = 64;
  for (auto _ : state) {
    for (int i = 0; i < kSamples; ++i) {
      Object o = gen.Next().object;
      gas::Meter meter(kS, 1ull << 60);
      tree.Insert(o.key, crypto::ValueHash(o.value), &meter);
      gas += meter.used();
    }
  }
  const double measured = static_cast<double>(gas) / kSamples;
  state.counters["measured"] = benchmark::Counter(measured);
  state.counters["model"] = benchmark::Counter(MbInsertModel(static_cast<double>(n)));
  state.counters["ratio"] =
      benchmark::Counter(measured / MbInsertModel(static_cast<double>(n)));
}

void MbUpdateVsModel(benchmark::State& state, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  mbtree::MbTree tree(4);
  std::vector<Key> keys;
  for (uint64_t i = 0; i < n; ++i) {
    Object o = gen.Next().object;
    keys.push_back(o.key);
    tree.Insert(o.key, crypto::ValueHash(o.value));
  }
  uint64_t gas = 0;
  const int kSamples = 64;
  for (auto _ : state) {
    for (int i = 0; i < kSamples; ++i) {
      gas::Meter meter(kS, 1ull << 60);
      tree.Update(keys[i * 7 % keys.size()],
                  crypto::ValueHash("v" + std::to_string(i)), &meter);
      gas += meter.used();
    }
  }
  const double measured = static_cast<double>(gas) / kSamples;
  state.counters["measured"] = benchmark::Counter(measured);
  state.counters["model"] = benchmark::Counter(MbUpdateModel(static_cast<double>(n)));
  state.counters["ratio"] =
      benchmark::Counter(measured / MbUpdateModel(static_cast<double>(n)));
}

void SmbInsertVsModel(benchmark::State& state, uint64_t n) {
  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
  smbtree::SmbTreeContract contract("smb", 4);
  ads::EntryList seed;
  for (uint64_t i = 0; i < n; ++i) {
    Object o = gen.Next().object;
    seed.push_back({o.key, crypto::ValueHash(o.value)});
  }
  contract.SeedUnmetered(seed);
  uint64_t gas = 0;
  const int kSamples = 4;
  for (auto _ : state) {
    for (int i = 0; i < kSamples; ++i) {
      Object o = gen.Next().object;
      gas::Meter meter(kS, 1ull << 60);
      contract.Insert(o.key, crypto::ValueHash(o.value), meter);
      gas += meter.used();
    }
  }
  const double measured = static_cast<double>(gas) / kSamples;
  state.counters["measured"] = benchmark::Counter(measured);
  state.counters["model"] = benchmark::Counter(SmbInsertModel(static_cast<double>(n)));
  state.counters["ratio"] =
      benchmark::Counter(measured / SmbInsertModel(static_cast<double>(n)));
}

void Gem2LogGrowth(benchmark::State& state, uint64_t n) {
  // The paper proves GEM2 insertion is O(log N); report the measured average
  // so growth across the sweep can be eyeballed against log scaling.
  uint64_t total = 0;
  for (auto _ : state) {
    WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform));
    AuthenticatedDb db(MakeDbOptions(AdsKind::kGem2, gen));
    for (uint64_t i = 0; i < n; ++i) total += db.Insert(gen.Next().object).gas_used;
  }
  state.counters["gas_per_op"] =
      benchmark::Counter(static_cast<double>(total) / static_cast<double>(n));
  state.counters["per_log2N"] = benchmark::Counter(
      static_cast<double>(total) / static_cast<double>(n) / std::log2(n));
}

void RegisterAll() {
  for (uint64_t n : {1000, 10'000, 100'000}) {
    benchmark::RegisterBenchmark(
        ("CostModel/MB-insert/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { MbInsertVsModel(s, n); })
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        ("CostModel/MB-update/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { MbUpdateVsModel(s, n); })
        ->Iterations(1);
  }
  for (uint64_t n : {256, 1024, 4096}) {
    benchmark::RegisterBenchmark(
        ("CostModel/SMB-insert/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { SmbInsertVsModel(s, n); })
        ->Iterations(1);
  }
  for (uint64_t n : {1000, 10'000, 100'000}) {
    benchmark::RegisterBenchmark(
        ("CostModel/GEM2-insert/N:" + std::to_string(n)).c_str(),
        [n](benchmark::State& s) { Gem2LogGrowth(s, n); })
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
