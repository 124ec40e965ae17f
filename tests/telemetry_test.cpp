// Telemetry tests: span nesting and exact gas attribution (per-span deltas
// sum to the receipt's gas_used), metrics determinism, exporter output
// validity (BENCH_*.json), and the zero-perturbation guarantee
// (instrumentation never changes gas accounting).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <sstream>
#include <string>
#include <vector>

#include "chain/contract.h"
#include "chain/environment.h"
#include "core/authenticated_db.h"
#include "telemetry/exporters.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "tx_trace.h"
#include "workload/workload.h"

namespace gem2::telemetry {
namespace {

/// Installs a collector sink for the test's lifetime and guarantees the
/// global tracer is left clean (tests in this binary share it).
class TracerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().ClearSinks();
    collector_ = std::make_shared<CollectorSink>();
    Tracer::Global().AddSink(collector_);
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override { Tracer::Global().ClearSinks(); }

  std::shared_ptr<CollectorSink> collector_;
};

/// Contract with a two-level phase structure, for span-tree assertions.
class PhasedContract : public chain::Contract {
 public:
  PhasedContract() : chain::Contract("phased") {
    digest_ledger().Set(0, "phased", Hash{});
  }

  void Run(gas::Meter& meter) {
    TELEMETRY_SPAN("phase.outer");
    digest_ledger().Set(0, "phased", Hash{});
    storage().StoreUint({1, 0}, 1, meter);  // sstore: 20,000
    {
      TELEMETRY_SPAN("phase.inner_a");
      meter.ChargeSload(3);  // 600
    }
    {
      TELEMETRY_SPAN("phase.inner_b");
      meter.ChargeHash(32);  // 30 + 6 = 36
    }
    meter.ChargeMem(10);  // 30, charged to outer's self time
  }

  std::vector<chain::DigestEntry> AuthenticatedDigests() const override {
    return {{"phased", Hash{}}};
  }
};

TEST_F(TracerFixture, SpansNestAndRecordInCloseOrder) {
  {
    Span outer("outer");
    {
      Span inner("inner");
    }
  }
  std::vector<SpanRecord> spans = collector_->TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST_F(TracerFixture, SpanGasDeltasSumExactlyToReceiptGasUsed) {
  chain::Environment env;
  PhasedContract contract;
  env.Register(&contract);
  chain::TxReceipt r =
      env.Execute(contract, "run", [&](gas::Meter& m) { contract.Run(m); });
  ASSERT_TRUE(r.ok);
  const std::vector<SpanRecord> trace = testutil::TakeTxTrace(*collector_);
  ASSERT_EQ(trace.size(), 4u);  // inner_a, inner_b, phase.outer, tx.run

  // The root span is last (spans close inside-out) and covers the whole
  // transaction: its inclusive gas IS the receipt's gas_used.
  const SpanRecord& root = trace.back();
  EXPECT_EQ(root.name, "tx.run");
  EXPECT_EQ(root.gas_total(), r.gas_used);
  EXPECT_EQ(root.gas, r.breakdown);

  // inclusive == self + sum(direct children), exactly, for every span.
  std::map<uint64_t, gas::Gas> children_gas;
  for (const SpanRecord& s : trace) children_gas[s.parent_id] += s.gas_total();
  for (const SpanRecord& s : trace) {
    EXPECT_EQ(s.gas_total(), s.self_gas + children_gas[s.id]) << s.name;
  }

  // Phase attribution matches the contract's charges (Table I costs).
  std::map<std::string, const SpanRecord*> by_name;
  for (const SpanRecord& s : trace) by_name[s.name] = &s;
  EXPECT_EQ(by_name.at("phase.inner_a")->gas_total(), 600u);
  EXPECT_EQ(by_name.at("phase.inner_b")->gas_total(), 36u);
  EXPECT_EQ(by_name.at("phase.outer")->self_gas, 20'000u + 30u);
  EXPECT_EQ(by_name.at("phase.outer")->gas_total(), 20'000u + 600u + 36u + 30u);
  EXPECT_EQ(by_name.at("tx.run")->self_gas, 0u);
}

TEST_F(TracerFixture, FailedTransactionTraceStillExplainsGas) {
  chain::Environment env({.gas_limit = 30'000});
  PhasedContract contract;
  env.Register(&contract);
  chain::TxReceipt r = env.Execute(contract, "explode", [&](gas::Meter& m) {
    TELEMETRY_SPAN("phase.writes");
    for (uint64_t i = 0; i < 100; ++i) contract.storage().StoreUint({2, i}, 1, m);
  });
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.breakdown.total(), r.gas_used);
  const std::vector<SpanRecord> trace = testutil::TakeTxTrace(*collector_);
  ASSERT_FALSE(trace.empty());
  const SpanRecord& root = trace.back();
  EXPECT_EQ(root.name, "tx.explode");
  // Even on abort the root span accounts every unit the meter charged.
  EXPECT_EQ(root.gas_total(), r.gas_used);
}

TEST_F(TracerFixture, EndToEndInsertTraceCoversAdsPhases) {
  core::DbOptions options;
  options.kind = core::AdsKind::kGem2;
  core::AuthenticatedDb db(options);
  bool saw_gem2_insert = false;
  for (uint64_t i = 0; i < 50; ++i) {
    collector_->TakeSpans();
    chain::TxReceipt r = db.Insert({static_cast<Key>(1000 + i * 7), "v" + std::to_string(i)});
    ASSERT_TRUE(r.ok);
    const std::vector<SpanRecord> trace = testutil::TakeTxTrace(*collector_);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.back().gas_total(), r.gas_used) << "insert " << i;
    for (const SpanRecord& s : trace) {
      if (s.name == "gem2.insert") saw_gem2_insert = true;
    }
  }
  EXPECT_TRUE(saw_gem2_insert);
}

TEST_F(TracerFixture, TelemetryNeverPerturbsGasAccounting) {
  // Identical workload, once with the tracer enabled (null sink) and once
  // with no sink: receipts must be bit-identical, and only the traced run
  // records metrics.
  auto run = [](bool traced) {
    if (!traced) Tracer::Global().ClearSinks();
    MetricsRegistry::Global().Reset();
    core::DbOptions options;
    options.kind = core::AdsKind::kGem2;
    core::AuthenticatedDb db(options);
    std::vector<gas::Gas> gas;
    workload::WorkloadOptions w;
    w.seed = 7;
    workload::WorkloadGenerator gen(w);
    for (int i = 0; i < 200; ++i) {
      gas.push_back(db.Insert(gen.Next().object).gas_used);
    }
    return gas;
  };
  Tracer::Global().ClearSinks();
  Tracer::Global().AddSink(std::make_shared<NullSink>());
  std::vector<gas::Gas> traced = run(true);
  EXPECT_EQ(MetricsRegistry::Global().counter("tx.count").value(), 200u);
  std::vector<gas::Gas> untraced = run(false);
  EXPECT_EQ(MetricsRegistry::Global().counter("tx.count").value(), 0u);
  EXPECT_EQ(traced, untraced);
}

TEST_F(TracerFixture, MetricsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    MetricsRegistry::Global().Reset();
    core::DbOptions options;
    options.kind = core::AdsKind::kMbTree;
    core::AuthenticatedDb db(options);
    workload::WorkloadOptions w;
    w.seed = 11;
    workload::WorkloadGenerator gen(w);
    for (int i = 0; i < 100; ++i) db.Insert(gen.Next().object);
    EXPECT_TRUE(db.AuthenticatedSpec(core::QuerySpec::Range(0, 1'000'000)).ok);
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    // Drop wall-clock histograms: only gas/count metrics are deterministic.
    std::erase_if(snap.histograms, [](const MetricsSnapshot::HistogramStats& h) {
      return h.name.find("_ns") != std::string::npos;
    });
    return snap;
  };
  MetricsSnapshot a = run();
  MetricsSnapshot b = run();
  EXPECT_TRUE(a == b);
  // The instrumented paths actually populated the registry.
  auto counter = [&](const std::string& name) {
    for (const auto& [n, v] : a.counters) {
      if (n == name) return v;
    }
    return uint64_t{0};
  };
  EXPECT_EQ(counter("tx.count"), 100u);
  EXPECT_EQ(counter("query.count"), 1u);
  EXPECT_EQ(counter("verify.count"), 1u);
  EXPECT_EQ(counter("verify.failed"), 0u);
  EXPECT_GT(counter("gas.used.sstore"), 0u);
  // Everything the observer mirrored equals everything the receipts summed.
  uint64_t tx_gas_sum = 0;
  for (const auto& h : a.histograms) {
    if (h.name == "tx.gas") tx_gas_sum = h.sum;
  }
  EXPECT_EQ(counter("gas.used.sload") + counter("gas.used.sstore") +
                counter("gas.used.supdate") + counter("gas.used.mem") +
                counter("gas.used.hash") + counter("gas.used.intrinsic"),
            tx_gas_sum);
}

TEST_F(TracerFixture, MeterObserverMirrorsEveryCharge) {
  MeterMetricsObserver observer;
  gas::Meter meter;
  meter.set_observer(&observer);
  meter.ChargeSload(2);
  meter.ChargeSstore(1);
  meter.ChargeHash(64);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::map<std::string, uint64_t> counters(snap.counters.begin(),
                                           snap.counters.end());
  EXPECT_EQ(counters.at("gas.used.sload"), 400u);
  EXPECT_EQ(counters.at("gas.ops.sload"), 1u);  // one ChargeSload call
  EXPECT_EQ(counters.at("gas.used.sstore"), 20'000u);
  EXPECT_EQ(counters.at("gas.used.hash"), 30u + 12u);
}

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(7);
  h.Observe(8);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, QuantilesExactWhileWithinReservoirCapacity) {
  Histogram h;
  // 1..1000 in a scrambled order: reservoir keeps ALL of them (<= capacity),
  // so the quantiles are exact order statistics of the full data.
  for (uint64_t i = 0; i < 1000; ++i) h.Observe((i * 617) % 1000 + 1);
  ASSERT_LE(h.count(), Histogram::kReservoirCapacity);
  QuantileSummary q = h.Quantiles();
  EXPECT_EQ(q.samples, 1000u);
  EXPECT_DOUBLE_EQ(q.p50, 500.5);     // midpoint of 500 and 501
  EXPECT_DOUBLE_EQ(q.p99, 990.01);    // rank 0.99 * 999 between 990 and 991
  EXPECT_DOUBLE_EQ(q.p999, 999.001);  // between 999 and 1000
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(Histogram().Quantile(0.5), 0.0);  // empty -> 0
}

TEST(Histogram, ReservoirOverflowStaysWithinObservedRange) {
  Histogram h;
  // 3x capacity: Algorithm R keeps an unbiased sample; every surviving
  // sample is a real observation, so quantiles stay inside [min, max] and
  // ordered.
  const uint64_t n = 3 * Histogram::kReservoirCapacity;
  for (uint64_t i = 0; i < n; ++i) h.Observe(i % 10'000);
  QuantileSummary q = h.Quantiles();
  EXPECT_EQ(q.samples, uint64_t{Histogram::kReservoirCapacity});
  EXPECT_GE(q.p50, static_cast<double>(h.min()));
  EXPECT_LE(q.p50, q.p99);
  EXPECT_LE(q.p99, q.p999);
  EXPECT_LE(q.p999, static_cast<double>(h.max()));
}

TEST(Histogram, ResetDuringConcurrentObserveNeverTearsSnapshots) {
  // Satellite regression: a Reset() racing Observe() calls used to let a
  // snapshot pair a count read before the reset with a sum read after it
  // (count >> sum). The generation counter makes registry reads skip or
  // retry across resets. Every observation is 1 and Observe bumps count
  // before sum, so a read that does NOT span a reset always satisfies
  // sum + 1 >= count (the +1 is one in-flight observation of the single
  // writer); a torn read would miss by thousands.
  MetricsRegistry registry;
  Histogram& h = registry.histogram("race");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) h.Observe(1);
  });
  std::thread resetter([&] {
    for (int i = 0; i < 200; ++i) h.Reset();
  });
  for (int i = 0; i < 500; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto& stats = snap.histograms[0];
    EXPECT_GE(stats.sum + 1, stats.count);
    EXPECT_LE(stats.quantiles.samples, Histogram::kReservoirCapacity);
  }
  resetter.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(h.generation() % 2, 0u) << "reset left the generation odd";
  // Quiescent: the final snapshot is exactly coherent.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms[0].count, snap.histograms[0].sum);
}

TEST(IndexedMetrics, FamiliesCacheAndRouteOutOfRangeToOverflow) {
  MetricsRegistry registry;
  IndexedCounters counters(registry, "fam", 3);
  EXPECT_EQ(counters.size(), 3u);
  counters.at(0).Add(1);
  counters.at(2).Add(5);
  counters.at(99).Add(7);  // out of range -> overflow, not a new entry
  EXPECT_EQ(registry.counter("fam.0").value(), 1u);
  EXPECT_EQ(registry.counter("fam.2").value(), 5u);
  EXPECT_EQ(registry.counter("fam.overflow").value(), 7u);

  IndexedHistograms hists(registry, "hfam", 2);
  hists.at(1).Observe(4);
  hists.at(50).Observe(9);
  EXPECT_EQ(registry.histogram("hfam.1").count(), 1u);
  EXPECT_EQ(registry.histogram("hfam.overflow").count(), 1u);
}

TEST(IndexedMetrics, ConstructionClampsToMaxIndex) {
  // Satellite regression: a shard/index count beyond the bound used to mint
  // one registry entry per index, growing the registry without limit. Now
  // construction clamps and the tail shares ".overflow".
  MetricsRegistry registry;
  IndexedCounters counters(registry, "big", 10'000, /*max_index=*/8);
  EXPECT_EQ(counters.size(), 8u);
  counters.at(7).Add(1);
  counters.at(8).Add(2);     // first clamped index
  counters.at(9'999).Add(3);  // far out of range
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.size(), 9u);  // big.0 .. big.7 + big.overflow
  EXPECT_EQ(registry.counter("big.7").value(), 1u);
  EXPECT_EQ(registry.counter("big.overflow").value(), 5u);
}

// --- JSON ---------------------------------------------------------------------

TEST(Json, RoundTripsAndValidates) {
  JsonObject obj;
  obj.emplace_back("name", "a\"b\\c\n\t");
  obj.emplace_back("n", uint64_t{18'446'744'073'709'551'615ull});
  obj.emplace_back("x", 1.5);
  obj.emplace_back("flag", true);
  obj.emplace_back("nothing", nullptr);
  obj.emplace_back("list", JsonArray{JsonValue(1), JsonValue("two")});
  std::string text = JsonValue(obj).Dump();
  ASSERT_TRUE(JsonValid(text));
  auto parsed = JsonParse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("name")->string(), "a\"b\\c\n\t");
  EXPECT_EQ(parsed->Find("list")->array().size(), 2u);
  EXPECT_TRUE(parsed->Find("flag"));

  EXPECT_FALSE(JsonValid("{"));
  EXPECT_FALSE(JsonValid("[1,]"));
  EXPECT_FALSE(JsonValid("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonValid("\"unterminated"));
  EXPECT_TRUE(JsonValid("[]"));
  EXPECT_TRUE(JsonValid("[{\"u\":\"\\u0041\"}]"));
}

// --- Exporters ----------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ExporterFixture : public TracerFixture {};

TEST_F(ExporterFixture, BenchReporterWritesAndAppendsParseValidArrays) {
  const std::string dir = ::testing::TempDir();
  BenchRecord rec;
  rec.bench = "figtest";
  rec.name = "FigTest/GEM2-tree/uniform/N:10";
  rec.ads = "GEM2-tree";
  rec.dist = "uniform";
  rec.dataset_size = 10;
  rec.ops = 10;
  rec.gas_total = 1234.0;
  rec.gas_mean = 123.4;
  rec.breakdown.sstore = 1000;
  rec.extra["update_ratio"] = 0.4;

  const std::string path = dir + "/BENCH_figtest.json";
  std::remove(path.c_str());
  BenchReporter::Global().Record(rec);
  std::vector<std::string> written = BenchReporter::Global().WriteFiles(dir);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], path);
  auto first = JsonParse(ReadFile(path));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->is_array());
  ASSERT_EQ(first->array().size(), 1u);
  const JsonValue& row = first->array()[0];
  EXPECT_EQ(row.Find("bench")->string(), "figtest");
  EXPECT_EQ(row.Find("ops")->number(), 10.0);
  EXPECT_EQ(row.Find("breakdown")->Find("sstore")->number(), 1000.0);
  EXPECT_EQ(row.Find("extra")->Find("update_ratio")->number(), 0.4);

  // A second run appends; the file stays one parse-valid JSON array.
  BenchReporter::Global().Record(rec);
  BenchReporter::Global().WriteFiles(dir);
  auto second = JsonParse(ReadFile(path));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->array().size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gem2::telemetry
