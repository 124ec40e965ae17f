// Multi-attribute boolean query bench: SP execute + client verify throughput
// for AND/OR QuerySpecs over a K-attribute MultiAttrDb, the wire size of
// server-side aggregates (each record shipped as whichever of it or its hash
// is shorter), and the spec-level forgery sweep.
//
// The forgery sweep is the CI security gate: every spec-family forgery
// (conjunct swap/drop/duplicate, range shift, aggregate-boundary tamper, spec
// echo rewrite, inner-VO mutation, and the AND-from-one-conjunct attacks:
// answering index outside the spec or retargeted, pre-filtered conjunct,
// rewritten non-indexed attribute, the retired all-conjuncts AND shape) must
// be rejected by ParseSpecResponse or VerifySpecFor. `forgery_rejection` in
// BENCH_multiattr.json must be exactly 1.0 — bench-smoke fails the build
// otherwise.
//
// Emits BENCH_multiattr.json. Reported: qps_execute, qps_verify,
// bytes_per_query, agg_bytes_per_query, agg_bytes_reduction,
// agg_larger_than_full (aggregate answers larger than the full answer over
// the same predicate; CI requires 0), and the sweep counters
// (forgeries_attempted, forgery_ops — the operators that got rounds —
// forgery_rejection, rejected_parse/verify), plus the parallel capacity the
// run measured (`effective_cores`, bench_common.h EffectiveCores()) to read
// the two qps columns against. Every spec is executed and verified once
// untimed (the warm-up also yields the byte counts); the qps columns then
// time kTimedPasses passes over the specs.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/query_spec.h"
#include "fault/adversary.h"
#include "common/random.h"
#include "multiattr/multiattr_db.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;
using core::AggregateKind;
using core::BoolOp;
using core::Predicate;
using core::PredicateKind;
using core::QuerySpec;
using multiattr::MultiAttrDb;
using multiattr::MultiAttrOptions;
using multiattr::MultiAttrRecord;

constexpr uint32_t kNumAttrs = 3;
constexpr Key kAttrDomain = 10'000;  // attribute values in [-domain, domain]
constexpr uint64_t kTimedPasses = 5;

std::unique_ptr<MultiAttrDb> BuildMultiAttr(uint64_t n, uint64_t seed) {
  MultiAttrOptions options;
  options.base.kind = AdsKind::kGem2;
  options.base.gem2.m = 4;
  options.base.gem2.smax = 256;
  options.base.env.gas_limit = 1'000'000'000'000'000ull;
  options.num_attrs = kNumAttrs;
  options.id_bits = 24;
  auto db = std::make_unique<MultiAttrDb>(std::move(options));
  Rng rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    MultiAttrRecord record;
    record.id = static_cast<int64_t>(i);
    for (uint32_t k = 0; k < kNumAttrs; ++k) {
      record.attrs.push_back(static_cast<Key>(
          rng.UniformInt(-kAttrDomain, kAttrDomain)));
    }
    record.value = "payload-" + std::to_string(i);
    db->InsertRecord(record);
  }
  return db;
}

/// Seeded AND/OR specs with 2 predicates over distinct attributes, each
/// spanning ~10% of the attribute domain (low selectivity keeps VO work
/// dominant, matching the paper's query benches).
std::vector<QuerySpec> MakeSpecs(uint64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QuerySpec> specs;
  specs.reserve(count);
  const Key width = kAttrDomain / 5;
  for (uint64_t i = 0; i < count; ++i) {
    QuerySpec spec;
    spec.op = (i % 2 == 0) ? BoolOp::kAnd : BoolOp::kOr;
    const uint32_t a0 = static_cast<uint32_t>(rng.UniformInt(0, kNumAttrs - 1));
    const uint32_t a1 = (a0 + 1) % kNumAttrs;
    for (uint32_t attr : {a0, a1}) {
      const Key lb = static_cast<Key>(
          rng.UniformInt(-kAttrDomain, kAttrDomain - width));
      spec.predicates.push_back(
          Predicate{PredicateKind::kRange, attr, lb, lb + width});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void MultiAttrQuery(benchmark::State& state, const std::string& name) {
  const uint64_t n = EnvScale("GEM2_MULTIATTR_N", 2000);
  const uint64_t queries = EnvScale("GEM2_MULTIATTR_QUERIES", 50);
  const int forgeries =
      static_cast<int>(EnvScale("GEM2_MULTIATTR_FORGERIES", 500));

  auto db = BuildMultiAttr(n, 42);
  const std::vector<QuerySpec> specs = MakeSpecs(queries, 43);

  // SP side, untimed warm-up: execute + serialize each spec once, recording
  // wire size.
  std::vector<core::SpecResponse> responses;
  responses.reserve(specs.size());
  uint64_t wire_bytes = 0;
  for (const QuerySpec& spec : specs) {
    responses.push_back(db->ExecuteSpec(spec));
    wire_bytes +=
        SerializeSpecResponse(responses.back(), db->wire_version()).size();
  }

  // Aggregate twin of every spec: COUNT over its first predicate. Each
  // entry ships as whichever of its record or its value hash is shorter, so
  // the answer is never larger than the full range answer over the same
  // predicate; with this bench's records, all shorter than a hash, the two
  // are the same size.
  uint64_t agg_bytes = 0, agg_full_bytes = 0, agg_queries = 0;
  uint64_t agg_larger_than_full = 0;
  for (const QuerySpec& spec : specs) {
    QuerySpec agg;
    agg.predicates.push_back(spec.predicates[0]);
    agg.aggregate = AggregateKind::kCount;
    const uint64_t agg_size = SerializeSpecResponse(db->ExecuteSpec(agg),
                                                    db->wire_version()).size();
    QuerySpec full;
    full.predicates.push_back(spec.predicates[0]);
    const uint64_t full_size = SerializeSpecResponse(db->ExecuteSpec(full),
                                                     db->wire_version()).size();
    agg_bytes += agg_size;
    agg_full_bytes += full_size;
    if (agg_size > full_size) ++agg_larger_than_full;
    ++agg_queries;
  }

  // Client side, untimed warm-up: full boolean verification of every honest
  // answer. Any rejection is a correctness bug, not a measurement.
  for (size_t i = 0; i < specs.size(); ++i) {
    core::VerifiedSpecResult vr = db->VerifySpecFor(specs[i], responses[i]);
    if (!vr.ok) {
      state.SkipWithError(("honest spec answer rejected: " + vr.error).c_str());
      return;
    }
  }

  // Timed: kTimedPasses passes of execute, then of verify, over the warm
  // store.
  const auto t_exec0 = Clock::now();
  for (uint64_t p = 0; p < kTimedPasses; ++p) {
    for (const QuerySpec& spec : specs) {
      benchmark::DoNotOptimize(db->ExecuteSpec(spec));
    }
  }
  const double exec_seconds =
      std::chrono::duration<double>(Clock::now() - t_exec0).count();
  const auto t_verify0 = Clock::now();
  for (uint64_t p = 0; p < kTimedPasses; ++p) {
    for (size_t i = 0; i < specs.size(); ++i) {
      benchmark::DoNotOptimize(db->VerifySpecFor(specs[i], responses[i]).ok);
    }
  }
  const double verify_seconds =
      std::chrono::duration<double>(Clock::now() - t_verify0).count();

  // Security gate: the seeded spec-forgery sweep. Candidates cover the
  // boolean shapes plus an aggregate so every spec-family operator applies.
  fault::SweepOptions adv;
  adv.seed = 7;
  adv.families = {fault::Family::kSpec};
  adv.rounds = forgeries;
  adv.specs.assign(specs.begin(),
                   specs.begin() + std::min<size_t>(specs.size(), 4));
  {
    QuerySpec agg;
    agg.predicates.push_back(specs.front().predicates[0]);
    agg.aggregate = AggregateKind::kCount;
    adv.specs.push_back(std::move(agg));
  }
  const fault::SweepReport report = fault::RunForgerySweep(*db, adv);
  const double rejection =
      report.attempted > 0
          ? static_cast<double>(report.rejected_parse + report.rejected_verify) /
                static_cast<double>(report.attempted)
          : 0.0;

  for (auto _ : state) benchmark::DoNotOptimize(responses.size());

  const double q = static_cast<double>(queries);
  const double timed = q * static_cast<double>(kTimedPasses);
  const double effective_cores = EffectiveCores();  // probed outside wall_ms
  BenchRun run("multiattr", name, db->BackendName(), "uniform", n);
  run.Extra("attrs", static_cast<double>(kNumAttrs));
  run.Extra("queries", q);
  run.Extra("passes", static_cast<double>(kTimedPasses));
  run.Extra("qps_execute", exec_seconds > 0 ? timed / exec_seconds : 0);
  run.Extra("qps_verify", verify_seconds > 0 ? timed / verify_seconds : 0);
  run.Extra("bytes_per_query", static_cast<double>(wire_bytes) / q);
  run.Extra("agg_bytes_per_query",
            static_cast<double>(agg_bytes) / static_cast<double>(agg_queries));
  run.Extra("agg_bytes_reduction",
            agg_full_bytes > 0
                ? 1.0 - static_cast<double>(agg_bytes) /
                            static_cast<double>(agg_full_bytes)
                : 0);
  run.Extra("agg_larger_than_full", static_cast<double>(agg_larger_than_full));
  run.Extra("forgeries_attempted", static_cast<double>(report.attempted));
  run.Extra("forgery_ops", static_cast<double>(report.attempts_by_op.size()));
  run.Extra("rejected_parse", static_cast<double>(report.rejected_parse));
  run.Extra("rejected_verify", static_cast<double>(report.rejected_verify));
  run.Extra("forgery_rejection", rejection);
  run.Extra("effective_cores", effective_cores);
  run.Finish();

  state.counters["qps_verify"] = benchmark::Counter(
      verify_seconds > 0 ? timed / verify_seconds : 0);
  state.counters["forgery_rejection"] = benchmark::Counter(rejection);
}

void RegisterAll() {
  const uint64_t n = EnvScale("GEM2_MULTIATTR_N", 2000);
  const std::string name = "MultiAttr/K:3/N:" + std::to_string(n);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [name](benchmark::State& s) { MultiAttrQuery(s, name); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
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
