// Introspection-surface tests: the JSONL audit log captures every injected
// forgery's rejection with trace id + operator + seed + reason, one spec
// round trip feeds the engine's query counter and the client's verify
// histogram, the Prometheus text exposition renders the full registry
// (summary quantiles included), provider facts flow through Introspection,
// and the SIGUSR1 handler produces an on-demand dump.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.h"
#include "fault/adversary.h"
#include "shard/sharded_db.h"
#include "telemetry/event_log.h"
#include "telemetry/exporters.h"
#include "telemetry/introspect.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::telemetry {
namespace {

class IntrospectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "built with GEM2_TELEMETRY_DISABLED";
    Tracer::Global().ClearSinks();
    Tracer::Global().AddSink(std::make_shared<NullSink>());
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    EventLog::Global().Close();
    Tracer::Global().ClearSinks();
  }

  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "gem2_" + name + "_" +
           std::to_string(::getpid());
  }
};

std::unique_ptr<shard::ShardedDb> BuildStore() {
  shard::ShardOptions opts;
  opts.base.kind = core::AdsKind::kGem2;
  opts.base.gem2.m = 2;
  opts.base.gem2.smax = 16;
  opts.bounds = {1000, 2000};
  auto db = std::make_unique<shard::ShardedDb>(std::move(opts));
  for (Key k = 0; k < 3000; k += 37) db->Insert({k, "v"});
  return db;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// JSONL audit log
// ---------------------------------------------------------------------------

TEST_F(IntrospectFixture, FaultSweepAuditsEveryRejectionWithAttribution) {
  const std::string path = TempPath("audit.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(EventLog::Global().Open(path));

  auto db = BuildStore();
  fault::AdversaryOptions adversary;
  adversary.seed = 11;
  adversary.mutations = 60;
  adversary.domain_hi = 3000;
  fault::AdversaryReport report = fault::RunAdversarialSweep(*db, adversary);
  ASSERT_TRUE(report.AllRejected());
  const uint64_t written = EventLog::Global().lines_written();
  EventLog::Global().Close();

  // One audit line per rejection — parse rejects from the sweep itself,
  // verify rejects from the client path's outermost observation.
  const std::vector<std::string> lines = ReadLines(path);
  const size_t rejections = static_cast<size_t>(report.rejected_parse) +
                            static_cast<size_t>(report.rejected_verify);
  EXPECT_GT(report.rejected_parse, 0);
  EXPECT_GT(report.rejected_verify, 0);
  ASSERT_EQ(lines.size(), rejections);
  EXPECT_EQ(written, rejections);

  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonValid(line)) << line;
    EXPECT_NE(line.find("\"type\":\"verify.reject\""), std::string::npos) << line;
    // Full attribution: which query (trace), which forgery (op + seed +
    // round), why it was thrown out (reason).
    EXPECT_NE(line.find("\"trace\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"op\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"seed\":\"11\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"round\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"reason\":\""), std::string::npos) << line;
  }
}

TEST_F(IntrospectFixture, SpecRoundTripFeedsQueryCounterAndVerifyHistogram) {
  // The two series gem2_introspect --check and docs/OBSERVABILITY.md name for
  // the query path: the engine counts every query it answers, and the
  // client's wire verify records its latency.
  auto db = BuildStore();
  core::SpQueryEngine engine(db.get());
  const core::QuerySpec spec = core::QuerySpec::Range(100, 2500);
  const core::VerifiedSpecResult vr =
      db->VerifySpecWire(spec, engine.SpecWire(spec));
  ASSERT_TRUE(vr.ok) << vr.error;
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.counter("sp_engine.queries").value(), 1u);
  EXPECT_EQ(registry.histogram("client.verify_ns").count(), 1u);
}

TEST_F(IntrospectFixture, ScopedEventFieldsNestAndPop) {
  const std::string path = TempPath("fields.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(EventLog::Global().Open(path));
  {
    ScopedEventFields outer({{"layer", "outer"}});
    {
      ScopedEventFields inner({{"detail", "inner"}});
      EventLog::Global().Emit(Event("test.nested"));
    }
    EventLog::Global().Emit(Event("test.flat"));
  }
  EventLog::Global().Emit(Event("test.bare"));
  EventLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"layer\":\"outer\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"detail\":\"inner\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"layer\":\"outer\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"detail\""), std::string::npos);
  EXPECT_EQ(lines[2].find("\"layer\""), std::string::npos);
}

TEST_F(IntrospectFixture, UnopenedLogDropsEventsCheaply) {
  EventLog::Global().Close();
  ASSERT_FALSE(EventLog::Global().enabled());
  const uint64_t before = EventLog::Global().lines_written();
  EventLog::Global().Emit(Event("test.dropped").Num("n", 1));
  EXPECT_EQ(EventLog::Global().lines_written(), before);
}

// ---------------------------------------------------------------------------
// Prometheus exposition + providers
// ---------------------------------------------------------------------------

TEST_F(IntrospectFixture, PrometheusNameMapping) {
  EXPECT_EQ(PrometheusName("query.count"), "gem2_query_count");
  EXPECT_EQ(PrometheusName("sp_engine.query_ns"), "gem2_sp_engine_query_ns");
  EXPECT_EQ(PrometheusName("shard.slice_ns.0"), "gem2_shard_slice_ns_0");
  EXPECT_EQ(PrometheusName("Weird Name-#1!"), "gem2_weird_name_1");
}

TEST_F(IntrospectFixture, ExpositionRendersCountersGaugesHistogramsAndFacts) {
  auto& registry = MetricsRegistry::Global();
  registry.counter("test.hits").Add(3);
  registry.gauge("test.depth").Set(-4);
  auto& h = registry.histogram("test.lat_ns");
  for (uint64_t v = 1; v <= 100; ++v) h.Observe(v);

  const std::string out =
      PrometheusExposition(registry.Snapshot(), {{"fake.facts", 9}});
  EXPECT_NE(out.find("# TYPE gem2_test_hits counter\n"), std::string::npos);
  EXPECT_NE(out.find("gem2_test_hits_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("gem2_test_depth -4\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE gem2_test_lat_ns summary\n"), std::string::npos);
  EXPECT_NE(out.find("gem2_test_lat_ns{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(out.find("gem2_test_lat_ns{quantile=\"0.999\"} "), std::string::npos);
  EXPECT_NE(out.find("gem2_test_lat_ns_count 100\n"), std::string::npos);
  EXPECT_NE(out.find("gem2_test_lat_ns_sum 5050\n"), std::string::npos);
  EXPECT_NE(out.find("gem2_fake_facts 9\n"), std::string::npos);
}

TEST_F(IntrospectFixture, ProvidersRegisterReplaceAndUnregister) {
  auto& intro = Introspection::Global();
  intro.RegisterProvider("testprov", [] {
    return ProviderFacts{{"alpha", 1}, {"beta", 2}};
  });
  ProviderFacts facts = intro.Collect();
  auto find = [&](const std::string& key) -> const uint64_t* {
    for (const auto& [k, v] : facts) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("testprov.alpha"), nullptr);
  EXPECT_EQ(*find("testprov.alpha"), 1u);
  EXPECT_EQ(*find("testprov.beta"), 2u);

  // Same-name registration replaces (idempotent re-registration).
  intro.RegisterProvider("testprov", [] {
    return ProviderFacts{{"alpha", 42}};
  });
  facts = intro.Collect();
  ASSERT_NE(find("testprov.alpha"), nullptr);
  EXPECT_EQ(*find("testprov.alpha"), 42u);
  EXPECT_EQ(find("testprov.beta"), nullptr);

  intro.UnregisterProvider("testprov");
  facts = intro.Collect();
  EXPECT_EQ(find("testprov.alpha"), nullptr);
}

TEST_F(IntrospectFixture, IntrospectionJsonIsValidAndComplete) {
  auto& registry = MetricsRegistry::Global();
  registry.counter("test.json.hits").Add(7);
  registry.histogram("test.json.lat").Observe(5);
  Introspection::Global().RegisterProvider(
      "jsonprov", [] { return ProviderFacts{{"x", 3}}; });

  const std::string json = IntrospectionJson();
  Introspection::Global().UnregisterProvider("jsonprov");
  EXPECT_TRUE(JsonValid(json)) << json;
  EXPECT_NE(json.find("\"test.json.hits\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"jsonprov.x\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// SIGUSR1 on-demand dump
// ---------------------------------------------------------------------------

TEST_F(IntrospectFixture, SigUsr1WritesExpositionToConfiguredPath) {
  const std::string path = TempPath("sigusr1.prom");
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("GEM2_INTROSPECT_PATH", path.c_str(), 1), 0);
  MetricsRegistry::Global().counter("test.sigusr1.marker").Add(1);

  InstallSigUsr1Dump();
  const uint64_t before = SigUsr1DumpCount();
  ASSERT_EQ(std::raise(SIGUSR1), 0);

  // The async-signal-safe handler only sets a flag; a watcher thread writes
  // the dump. Await it (20ms poll period, generous ceiling).
  for (int i = 0; i < 250 && SigUsr1DumpCount() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GT(SigUsr1DumpCount(), before) << "watcher never serviced the signal";
  ::unsetenv("GEM2_INTROSPECT_PATH");

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("# gem2 introspection dump pid="),
            std::string::npos);
  EXPECT_NE(content.str().find("gem2_test_sigusr1_marker_total 1"),
            std::string::npos);
}

}  // namespace
}  // namespace gem2::telemetry
