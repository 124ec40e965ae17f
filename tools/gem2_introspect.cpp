/// \file gem2_introspect.cpp
/// Introspection snapshot tool: builds a small representative deployment
/// (sharded GEM2 store + SP engine + a seeded fault sweep), then dumps the
/// full observability surface — metrics registry with p50/p99/p999 reservoir
/// quantiles, per-shard counters, and the cross-layer provider facts (Keccak
/// permutations, chain commit work) — as Prometheus text
/// exposition or JSON.
///
///   gem2_introspect                 # run smoke workload, print Prometheus text
///   gem2_introspect --format=json   # same, as one JSON object
///   gem2_introspect --check         # validate the surface; exit 1 on a gap
///   gem2_introspect --empty         # skip the workload, dump as-is
///
/// Environment: GEM2_INTROSPECT_N (objects, default 2000),
/// GEM2_EVENT_LOG (JSONL audit log target, validated under --check),
/// GEM2_INTROSPECT_SIGUSR1=1 (arm the SIGUSR1 dump before the workload).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "fault/adversary.h"
#include "shard/sharded_db.h"
#include "telemetry/event_log.h"
#include "telemetry/exporters.h"
#include "telemetry/introspect.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace {

uint64_t EnvScale(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

std::unique_ptr<gem2::shard::ShardedDb> BuildSmokeStore(uint64_t n) {
  gem2::workload::WorkloadOptions w;
  w.seed = 42;
  w.domain_max = 1'000'000'000;
  gem2::workload::WorkloadGenerator gen(w);

  gem2::shard::ShardOptions options;
  options.base.kind = gem2::core::AdsKind::kGem2;
  options.base.gem2.m = 8;
  options.base.gem2.smax = 512;
  options.base.env.gas_limit = 1'000'000'000'000'000ull;
  options.base.env.txs_per_block = 256;
  options.bounds = gen.ShardBounds(2);
  auto store = std::make_unique<gem2::shard::ShardedDb>(std::move(options));
  for (uint64_t i = 0; i < n; ++i) store->Insert(gen.Next().object);
  return store;
}

void RunSmokeWorkload(uint64_t n) {
  auto store = BuildSmokeStore(n);
  gem2::workload::WorkloadOptions w;
  w.seed = 43;
  w.domain_max = 1'000'000'000;
  gem2::workload::WorkloadGenerator gen(w);

  gem2::core::SpQueryEngine engine(store.get());
  for (int i = 0; i < 16; ++i) {
    gem2::workload::RangeQuerySpec probe = gen.NextQuery(0.01);
    const gem2::core::QuerySpec spec =
        gem2::core::QuerySpec::Range(probe.lb, probe.ub);
    gem2::core::VerifiedSpecResult vr =
        engine.VerifySpecFor(spec, engine.ExecuteSpec(spec));
    if (!vr.ok) {
      std::fprintf(stderr, "gem2_introspect: honest query failed verification: %s\n",
                   vr.error.c_str());
      std::exit(2);
    }
  }

  // A small seeded forgery sweep so rejection counters (and, when
  // GEM2_EVENT_LOG is set, the JSONL audit log) are populated.
  gem2::fault::SweepOptions adversary;
  adversary.seed = 7;
  adversary.families = {gem2::fault::Family::kSingle, gem2::fault::Family::kWire};
  adversary.rounds = 40;
  gem2::fault::SweepReport report = gem2::fault::RunForgerySweep(*store, adversary);
  if (!report.AllRejected()) {
    std::fprintf(stderr, "gem2_introspect: %d forgeries ACCEPTED\n",
                 report.forged());
    std::exit(2);
  }
}

uint64_t FindCounter(const gem2::telemetry::MetricsSnapshot& snap,
                     const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

bool HasHistogram(const gem2::telemetry::MetricsSnapshot& snap,
                  const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.count > 0;
  }
  return false;
}

uint64_t FindFact(const gem2::telemetry::ProviderFacts& facts,
                  const std::string& name) {
  for (const auto& [n, v] : facts) {
    if (n == name) return v;
  }
  return 0;
}

int Check() {
  const gem2::telemetry::MetricsSnapshot snap =
      gem2::telemetry::MetricsRegistry::Global().Snapshot();
  const gem2::telemetry::ProviderFacts facts =
      gem2::telemetry::Introspection::Global().Collect();

  std::vector<std::string> missing;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) missing.push_back(what);
  };

  require(FindCounter(snap, "query.count") > 0, "counter query.count");
  require(FindCounter(snap, "sp_engine.queries") > 0, "counter sp_engine.queries");
  require(FindCounter(snap, "fault.mutation.attempted") > 0,
          "counter fault.mutation.attempted");
  require(FindCounter(snap, "fault.mutation.rejected_parse") +
                  FindCounter(snap, "fault.mutation.rejected_verify") >
              0,
          "rejection counters fault.mutation.rejected_*");
  require(FindCounter(snap, "chain.commit.root_computations") > 0,
          "counter chain.commit.root_computations");
  require(HasHistogram(snap, "sp_engine.query_ns"),
          "latency histogram sp_engine.query_ns");
  require(HasHistogram(snap, "shard.slice_ns.0"),
          "per-shard latency histogram shard.slice_ns.0");
  require(FindFact(facts, "keccak.permutations") > 0,
          "provider fact keccak.permutations");

  // The exposition itself must render and the JSON form must parse.
  const std::string prom = gem2::telemetry::PrometheusExposition(snap, facts);
  require(prom.find("gem2_query_count_total") != std::string::npos,
          "prometheus rendering of query.count");
  require(prom.find("quantile=\"0.999\"") != std::string::npos,
          "prometheus summary quantiles");
  require(gem2::telemetry::JsonValid(gem2::telemetry::IntrospectionJson()),
          "introspection JSON validity");

  // When an audit log target is configured, the sweep above must have
  // produced attributable rejection events.
  auto& log = gem2::telemetry::EventLog::Global();
  if (log.enabled()) {
    require(log.lines_written() > 0, "event-log rejection events");
  }

  if (!missing.empty()) {
    std::fprintf(stderr, "gem2_introspect --check FAILED; missing:\n");
    for (const std::string& m : missing) {
      std::fprintf(stderr, "  - %s\n", m.c_str());
    }
    return 1;
  }
  std::fprintf(stderr,
               "gem2_introspect --check OK (%zu counters, %zu gauges, %zu "
               "histograms, %zu provider facts)\n",
               snap.counters.size(), snap.gauges.size(),
               snap.histograms.size(), facts.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool run_workload = true;
  bool json = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check") == 0) {
      check = true;
      quiet = true;
    } else if (std::strcmp(arg, "--empty") == 0) {
      run_workload = false;
    } else if (std::strcmp(arg, "--format=json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--format=prom") == 0) {
      json = false;
    } else if (std::strcmp(arg, "--print") == 0) {
      quiet = false;
    } else {
      std::fprintf(stderr,
                   "usage: gem2_introspect [--check] [--empty] "
                   "[--format=prom|json] [--print]\n");
      return 64;
    }
  }

  // Instrumentation sites gate on an installed sink; a NullSink turns the
  // full surface on without routing span output anywhere.
  gem2::telemetry::Tracer::Global().AddSink(
      std::make_shared<gem2::telemetry::NullSink>());

  if (run_workload) RunSmokeWorkload(EnvScale("GEM2_INTROSPECT_N", 2000));

  if (!quiet) {
    const std::string out = json ? gem2::telemetry::IntrospectionJson()
                                 : gem2::telemetry::PrometheusExposition();
    std::fwrite(out.data(), 1, out.size(), stdout);
    if (json) std::fputc('\n', stdout);
  }
  return check ? Check() : 0;
}
