// ADS comparison: a miniature of the paper's evaluation in one program.
//
// Drives the same insert/update stream through every authenticated data
// structure the library implements — plus a 4-shard multi-contract
// deployment of the GEM2-tree — and prints a side-by-side table of on-chain
// maintenance gas and query-side costs, the trade-off space the GEM2-tree
// was designed for. The measurement loop takes a core::RangeStore&, so it is
// identical for single-contract and sharded backends.
//
// Build & run:  ./build/examples/ads_comparison
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "shard/sharded_db.h"
#include "workload/workload.h"

namespace {

using namespace gem2;

struct Row {
  uint64_t insert_gas_per_op = 0;
  uint64_t update_gas_per_op = 0;
  double sp_ms = 0;
  double client_ms = 0;
  double vo_kb = 0;
  bool ok = false;
  std::string error;
};

// One backend-agnostic measurement pass: preload, mixed updates, then
// verified queries.
Row RunWorkload(core::RangeStore& db, workload::WorkloadGenerator& gen) {
  constexpr uint64_t kPreload = 3000;
  constexpr uint64_t kMixed = 1000;
  constexpr int kQueries = 20;

  Row row;
  uint64_t insert_gas = 0;
  for (uint64_t i = 0; i < kPreload; ++i) {
    insert_gas += db.Insert(gen.Next().object).gas_used;
  }
  row.insert_gas_per_op = insert_gas / kPreload;

  gen.set_update_ratio(1.0);
  uint64_t update_gas = 0;
  for (uint64_t i = 0; i < kMixed; ++i) {
    update_gas += db.Update(gen.Next().object).gas_used;
  }
  row.update_gas_per_op = update_gas / kMixed;

  for (int q = 0; q < kQueries; ++q) {
    const workload::RangeQuerySpec probe = gen.NextQuery(0.05);
    const core::QuerySpec spec = core::QuerySpec::Range(probe.lb, probe.ub);
    auto t0 = std::chrono::steady_clock::now();
    core::SpecResponse response = db.ExecuteSpec(spec);
    auto t1 = std::chrono::steady_clock::now();
    core::VerifiedSpecResult vr = db.VerifySpecFor(spec, response);
    auto t2 = std::chrono::steady_clock::now();
    if (!vr.ok) {
      row.error = vr.error;
      return row;
    }
    row.sp_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.client_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    row.vo_kb += static_cast<double>(vr.vo_sp_bytes) / 1024.0;
  }
  row.sp_ms /= kQueries;
  row.client_ms /= kQueries;
  row.vo_kb /= kQueries;
  row.ok = true;
  return row;
}

core::DbOptions BaseOptions(core::AdsKind kind,
                            const workload::WorkloadGenerator& gen) {
  core::DbOptions options;
  options.kind = kind;
  options.gem2.m = 8;
  options.gem2.smax = 512;
  options.env.gas_limit = 1'000'000'000'000ull;  // measure, don't abort
  if (kind == core::AdsKind::kGem2Star) options.split_points = gen.SplitPoints(32);
  return options;
}

}  // namespace

int main() {
  using core::AdsKind;

  const AdsKind kinds[] = {AdsKind::kMbTree, AdsKind::kSmbTree, AdsKind::kLsm,
                           AdsKind::kGem2, AdsKind::kGem2Star};

  std::printf("%-20s %14s %14s %12s %12s %10s\n", "backend", "insert gas/op",
              "update gas/op", "SP ms/query", "verify ms", "VO KB");

  auto print_row = [](const std::string& name, const Row& row) {
    if (!row.ok) {
      std::printf("verification failed for %s: %s\n", name.c_str(),
                  row.error.c_str());
      return false;
    }
    std::printf("%-20s %14llu %14llu %12.2f %12.2f %10.1f\n", name.c_str(),
                static_cast<unsigned long long>(row.insert_gas_per_op),
                static_cast<unsigned long long>(row.update_gas_per_op),
                row.sp_ms, row.client_ms, row.vo_kb);
    return true;
  };

  for (AdsKind kind : kinds) {
    workload::WorkloadOptions wopts;
    wopts.domain_max = 10'000'000;
    workload::WorkloadGenerator gen(wopts);
    core::AuthenticatedDb db(BaseOptions(kind, gen));
    if (!print_row(db.BackendName(), RunWorkload(db, gen))) return 1;
  }

  // The same stream through a 4-shard multi-contract GEM2 deployment: four
  // contracts under one state commitment, scatter-gather queries, identical
  // per-shard gas (docs/SHARDING.md). Same loop — it only sees RangeStore&.
  {
    workload::WorkloadOptions wopts;
    wopts.domain_max = 10'000'000;
    workload::WorkloadGenerator gen(wopts);
    shard::ShardOptions sopts;
    sopts.base = BaseOptions(AdsKind::kGem2, gen);
    sopts.bounds = gen.ShardBounds(4);
    shard::ShardedDb db(std::move(sopts));
    if (!print_row(db.BackendName(), RunWorkload(db, gen))) return 1;
  }

  std::printf("\n(GEM2 family: lowest maintenance gas at comparable query cost"
              " — the paper's headline result. The sharded row shows the\n"
              " multi-contract deployment: same per-shard gas, composite"
              " verified queries.)\n");
  return 0;
}
