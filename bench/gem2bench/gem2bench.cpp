// gem2bench: the repository's seeded end-to-end benchmark.
//
//   gem2bench --workload <ingest|range_uniform|boolean_sharded_zipf|service_rw>
//             --seed <n> [--seconds <s>] [--trace] [--out <dir>]
//             [--scale full|smoke]
//
// Prints the input fingerprint and the host block, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace the per-layer metrics. With --out it also writes
// result_<workload>_<seed>_<plain|trace>.json (both metric sets, host block,
// layer summary) and, traced, trace_<workload>_<seed>.json (Chrome trace
// events). Exits 1 when any answer fails verification or disagrees with the
// bench's reference model, 2 on a usage or set-up error.
#include "gem2bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/wire.h"
#include "crypto/keccak.h"
#include "host.h"
#include "inputs.h"

namespace gem2bench {

using gem2::core::QuerySpec;
using gem2::core::SpecResponse;

Scale Scale::Smoke() {
  Scale s;
  s.ingest_preload = 2'000;
  s.ingest_prefix_ops = 2'000;
  s.ingest_round_ops = 4'000;
  s.range_n = 4'000;
  s.boolean_records = 4'000;
  s.service_n = 2'000;
  s.query_prefix = 50;
  s.audit_queries = 8;
  s.setups = 2;
  return s;
}

const std::vector<MetricDef>& AllMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m;
    auto e2e = [&](const char* name, const char* unit) {
      m.push_back({name, unit, MetricKind::kEndToEnd});
    };
    auto layer = [&](const std::string& name, const char* unit) {
      m.push_back({name, unit, MetricKind::kLayer});
    };
    auto timing = [&](const std::string& prefix) {
      layer(prefix + ".p50", "ns");
      layer(prefix + ".p99", "ns");
      layer(prefix + ".busy_s", "s");
    };
    e2e("setup_s", "s");
    e2e("gas_per_write", "gas");
    e2e("vo_bytes_per_query", "bytes");
    e2e("peak_rss_mb", "MB");

    // The user-facing timings: their run-to-run spread on a shared host
    // exceeds a 10% bound (README.md, "Measured spread"), so they are
    // reported but not gated.
    layer("ops_per_s", "ops/s");
    layer("p50_ms", "ms");
    layer("p99_ms", "ms");
    for (const char* c : {"sload", "sstore", "supdate", "mem", "hash"}) {
      layer(std::string("gas.") + c + "_per_write", "gas");
    }
    timing("chain.seal_write_ns");
    timing("chain.plain_write_ns");
    layer("chain.entries_updated_per_block", "count");
    timing("store.append_ns");
    layer("store.bytes_per_write", "bytes");
    layer("store.syncs", "count");
    layer("crypto.perms_per_write", "count");
    layer("crypto.perms_per_execute", "count");
    layer("crypto.perms_per_verify", "count");
    timing("core.execute_ns");
    timing("core.serialize_ns");
    timing("core.parse_ns");
    timing("core.verify_ns");
    layer("core.results_per_query", "count");
    layer("core.vo_sp_bytes_per_query", "bytes");
    layer("core.vo_chain_bytes_per_query", "bytes");
    timing("core.engine_write_ns");
    layer("write_p99_ms", "ms");
    layer("shard.slices_per_conjunct", "count");
    timing("shard.slice_ns");
    layer("multiattr.conjuncts_per_query", "count");
    layer("multiattr.useful_ratio", "fraction");
    timing("net.lateness_ns");
    timing("net.wait_ns");
    timing("net.recv_ns");
    timing("net.server_ns");
    layer("net.unattributed_ns.p50", "ns");
    layer("net.unattributed_ns.p99", "ns");
    layer("net.busy_frac", "fraction");
    layer("net.bytes_per_response", "bytes");
    layer("net.verify_backlog_max", "count");
    layer("trace.overhead_frac", "fraction");
    layer("trace.attributed_frac.p50", "fraction");
    layer("host.effective_cores", "cores");
    return m;
  }();
  return kMetrics;
}

void Result::Mismatch(const std::string& message) {
  correct = false;
  ++failed;
  if (errors.size() < 8) errors.push_back("mismatch: " + message);
}

void Result::Failed(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back("failed: " + message);
}

double Samples::Quantile(double q) const {
  if (ns_.empty()) return 0;
  std::vector<uint64_t> v = ns_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

double Samples::SumSeconds() const {
  double sum = 0;
  for (uint64_t x : ns_) sum += static_cast<double>(x);
  return sum / 1e9;
}

void SetTiming(Result* result, const std::string& prefix, const Samples& s) {
  result->Set(prefix + ".p50", s.Quantile(0.5));
  result->Set(prefix + ".p99", s.Quantile(0.99));
  result->Set(prefix + ".busy_s", s.SumSeconds());
}

void SetLayerTiming(Result* result, const Tracer& tracer, Layer layer,
                    const std::string& prefix) {
  Samples s;
  for (uint64_t ns : tracer.Durations(layer)) s.Add(ns);
  SetTiming(result, prefix, s);
}

void SetQueryLayerTimings(Result* result, const Tracer& tracer) {
  SetLayerTiming(result, tracer, Layer::kCoreExecute, "core.execute_ns");
  SetLayerTiming(result, tracer, Layer::kCoreSerialize, "core.serialize_ns");
  SetLayerTiming(result, tracer, Layer::kCoreParse, "core.parse_ns");
  SetLayerTiming(result, tracer, Layer::kCoreVerify, "core.verify_ns");
}

Window::Window(double seconds, bool trace_mode)
    : budget_ns_(static_cast<uint64_t>(seconds * 1e9)),
      trace_mode_(trace_mode),
      mark_ns_(NowNs()),
      chunks_(kChunks, {0, 0}) {}

uint64_t Window::chunk_ns() const {
  return std::max<uint64_t>(1, budget_ns_ / kChunks / (trace_mode_ ? 2 : 1));
}

void Window::Advance(uint64_t now) {
  if (paused_) return;
  uint64_t delta = now - mark_ns_;
  mark_ns_ = now;
  if (traced_) {
    active_ns_[1] += delta;
    return;
  }
  // Split untraced time across the equal chunks it falls into.
  const uint64_t len = chunk_ns();
  while (delta > 0) {
    const uint64_t idx = std::min<uint64_t>(active_ns_[0] / len, kChunks - 1);
    const uint64_t room = idx == kChunks - 1 ? delta : (idx + 1) * len - active_ns_[0];
    const uint64_t take = std::min(delta, room);
    chunks_[idx].second += take;
    active_ns_[0] += take;
    delta -= take;
  }
}

bool Window::Running() {
  Advance(NowNs());
  const uint64_t total = active_ns_[0] + active_ns_[1];
  if (total >= budget_ns_) return false;
  traced_ = trace_mode_ && (total / kSliceNs) % 2 == 1;
  return true;
}

void Window::Pause() {
  Advance(NowNs());
  paused_ = true;
}

void Window::Resume() {
  paused_ = false;
  mark_ns_ = NowNs();
}

int Window::chunk() const {
  return static_cast<int>(std::min<uint64_t>(active_ns_[0] / chunk_ns(), kChunks - 1));
}

void Window::CountOp() {
  ++ops_[traced_ ? 1 : 0];
  if (!traced_) chunks_[chunk()].first++;
}

double Window::OpsPerSecond() const {
  std::vector<double> rates;
  uint64_t longest = 0;
  for (const auto& c : chunks_) longest = std::max(longest, c.second);
  for (const auto& c : chunks_) {
    if (c.second > 0 && c.second * 4 >= longest) {
      rates.push_back(static_cast<double>(c.first) * 1e9 / static_cast<double>(c.second));
    }
  }
  if (rates.empty()) return 0;
  std::sort(rates.begin(), rates.end());
  const size_t n = rates.size();
  return n % 2 == 1 ? rates[n / 2] : (rates[n / 2 - 1] + rates[n / 2]) / 2;
}

double Window::OverheadFrac() const {
  if (!trace_mode_ || active_ns_[0] == 0 || active_ns_[1] == 0 || ops_[0] == 0) {
    return 0;
  }
  const double untraced = static_cast<double>(ops_[0]) / static_cast<double>(active_ns_[0]);
  const double traced = static_cast<double>(ops_[1]) / static_cast<double>(active_ns_[1]);
  return 1 - traced / untraced;
}

void SetLatency(Result* result, const Samples& latency) {
  result->Set("p50_ms", latency.Quantile(0.5) / 1e6);
  result->Set("p99_ms", latency.Quantile(0.99) / 1e6);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

gem2::core::DbOptions PaperDbOptions() {
  gem2::core::DbOptions o;
  o.kind = gem2::core::AdsKind::kGem2;
  o.gem2.m = 8;
  o.gem2.smax = 2048;
  o.gem2.fanout = 4;
  o.env.txs_per_block = 1024;
  o.env.gas_limit = 1'000'000'000'000'000ull;
  return o;
}

void GasTally::Report(Result* result, bool categories) const {
  const double n = static_cast<double>(std::max<uint64_t>(writes, 1));
  result->Set("gas_per_write", static_cast<double>(gas) / n);
  if (!categories) return;
  result->Set("gas.sload_per_write", static_cast<double>(breakdown.sload) / n);
  result->Set("gas.sstore_per_write", static_cast<double>(breakdown.sstore) / n);
  result->Set("gas.supdate_per_write", static_cast<double>(breakdown.supdate) / n);
  result->Set("gas.mem_per_write", static_cast<double>(breakdown.mem) / n);
  result->Set("gas.hash_per_write", static_cast<double>(breakdown.hash) / n);
}

Answer RunQuery(const gem2::core::RangeStore& db,
                const std::vector<gem2::chain::AuthenticatedState>& states,
                const QuerySpec& spec, TraceLane* lane, uint64_t op) {
  using gem2::crypto::KeccakPermutationCount;
  Answer a;
  const uint64_t t0 = NowNs();
  const uint64_t p0 = KeccakPermutationCount();
  gem2::Bytes wire;
  if (lane == nullptr) {
    wire = db.SpecWire(spec);
  } else {
    SpecResponse response;
    {
      ScopedSpan span(lane, Layer::kCoreExecute, Layer::kOp, op);
      response = db.ExecuteSpec(spec);
    }
    ScopedSpan span(lane, Layer::kCoreSerialize, Layer::kOp, op);
    gem2::core::WrapTracedWireHeaderInto(response.trace, &wire);
    gem2::core::SerializeSpecResponseInto(response, db.wire_version(), &wire);
  }
  const uint64_t p1 = KeccakPermutationCount();
  std::optional<SpecResponse> parsed;
  {
    ScopedSpan span(lane, Layer::kCoreParse, Layer::kOp, op);
    gem2::core::TracedWire traced = gem2::core::UnwrapTracedWire(wire);
    a.image_bytes = traced.image.size();
    parsed = gem2::core::ParseSpecResponse(traced.image);
  }
  if (!parsed.has_value()) {
    a.error = "wire image did not parse";
    a.latency_ns = NowNs() - t0;
    return a;
  }
  {
    ScopedSpan span(lane, Layer::kCoreVerify, Layer::kOp, op);
    a.verified = db.VerifySpecAgainst(states, spec, *parsed);
  }
  a.latency_ns = NowNs() - t0;
  a.perms_execute = p1 - p0;
  a.perms_verify = KeccakPermutationCount() - p1;
  a.parsed = std::move(*parsed);
  a.ok = a.verified.ok;
  if (!a.ok) a.error = "verification rejected: " + a.verified.error;
  return a;
}

std::string CompareRange(const std::map<gem2::Key, std::string>& reference,
                         const QuerySpec& spec,
                         const std::vector<gem2::Object>& got) {
  const gem2::core::Predicate& p = spec.predicates.at(0);
  auto it = reference.lower_bound(p.lb);
  size_t i = 0;
  for (; it != reference.end() && it->first <= p.ub; ++it, ++i) {
    if (i >= got.size()) return "answer is missing key " + std::to_string(it->first);
    if (got[i].key != it->first || got[i].value != it->second) {
      return "answer differs at key " + std::to_string(it->first);
    }
  }
  if (i != got.size()) return "answer has extra objects";
  return {};
}

void QueryCounts::Add(const Answer& a) {
  ++queries;
  image_bytes += a.image_bytes;
  results += a.verified.objects.size();
  vo_sp_bytes += a.verified.vo_sp_bytes;
  vo_chain_bytes += a.verified.vo_chain_bytes;
  perms_execute += a.perms_execute;
  perms_verify += a.perms_verify;
}

void QueryCounts::Report(Result* result) const {
  const double n = static_cast<double>(std::max<uint64_t>(queries, 1));
  result->Set("vo_bytes_per_query", static_cast<double>(image_bytes) / n);
  result->Set("core.results_per_query", static_cast<double>(results) / n);
  result->Set("core.vo_sp_bytes_per_query", static_cast<double>(vo_sp_bytes) / n);
  result->Set("core.vo_chain_bytes_per_query", static_cast<double>(vo_chain_bytes) / n);
  result->Set("crypto.perms_per_execute", static_cast<double>(perms_execute) / n);
  result->Set("crypto.perms_per_verify", static_cast<double>(perms_verify) / n);
}

namespace {

/// Shortest round-trip decimal form; non-finite values print as 0.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Result& r, MetricKind kind) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& m : AllMetrics()) {
    if (m.kind != kind) continue;
    const auto it = r.values.find(m.name);
    const double v = it == r.values.end() ? 0 : it->second;
    out += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + Num(v) +
           ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string ResultLine(const Result& r, MetricKind kind) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r, kind) + "}";
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "gem2bench: %s\nusage: gem2bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace] [--out <dir>] [--scale full|smoke]\n",
               message);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      c.workload = value();
    } else if (arg == "--seed") {
      c.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      c.seconds = std::stod(value());
    } else if (arg == "--trace") {
      c.trace = true;
    } else if (arg == "--out") {
      c.out_dir = value();
    } else if (arg == "--scale") {
      c.scale_name = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (c.workload.empty() || !have_seed) Usage("--workload and --seed are required");
  if (!(c.seconds > 0 && c.seconds <= 600)) Usage("--seconds must be in (0, 600]");
  if (c.scale_name == "smoke") {
    c.scale = Scale::Smoke();
  } else if (c.scale_name != "full") {
    Usage("--scale must be full or smoke");
  }
  return c;
}

int Main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  void (*run)(const Config&, Tracer&, Result*) = nullptr;
  if (config.workload == "ingest") run = RunIngest;
  if (config.workload == "range_uniform") run = RunRangeUniform;
  if (config.workload == "boolean_sharded_zipf") run = RunBooleanShardedZipf;
  if (config.workload == "service_rw") run = RunServiceRw;
  if (run == nullptr) Usage(("unknown workload " + config.workload).c_str());

  if (!config.out_dir.empty()) std::filesystem::create_directories(config.out_dir);
  const HostInfo host = ProbeHost();
  Tracer tracer(config.trace, 1u << 18);
  Result result;
  run(config, tracer, &result);
  result.Set("host.effective_cores", host.effective_cores);
  result.json_extra["host"] = HostJson(host);
  if (config.trace) {
    result.Set("trace.attributed_frac.p50", tracer.CoverageP50());
    if (!config.out_dir.empty()) {
      result.json_extra["layers"] =
          tracer.WriteFiles(config.out_dir, config.workload, config.seed);
    }
  }

  std::printf("workload: %s seed: %llu scale: %s seconds: %s trace: %d\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.scale_name.c_str(), Num(config.seconds).c_str(),
              config.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", result.fingerprint.c_str());
  std::printf("host: %s\n", HostJson(host).c_str());
  for (const std::string& e : result.errors) std::printf("error: %s\n", e.c_str());

  if (!config.out_dir.empty()) {
    const std::string path = config.out_dir + "/result_" + config.workload + "_" +
                             std::to_string(config.seed) +
                             (config.trace ? "_trace" : "_plain") + ".json";
    std::ofstream out(path);
    out << "{\"workload\": " << JsonString(config.workload)
        << ", \"seed\": " << config.seed << ", \"trace\": " << (config.trace ? "true" : "false")
        << ", \"scale\": " << JsonString(config.scale_name)
        << ", \"seconds\": " << Num(config.seconds)
        << ", \"fingerprint\": " << JsonString(result.fingerprint)
        << ", \"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
        << ", \"end_to_end\": " << MetricsJson(result, MetricKind::kEndToEnd)
        << ", \"per_layer\": " << MetricsJson(result, MetricKind::kLayer);
    for (const auto& [key, json] : result.json_extra) {
      out << ", " << JsonString(key) << ": " << json;
    }
    out << "}\n";
    if (!out) std::fprintf(stderr, "gem2bench: could not write %s\n", path.c_str());
  }
  std::printf("%s\n", ResultLine(result, config.trace ? MetricKind::kLayer
                                                       : MetricKind::kEndToEnd)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace gem2bench

int main(int argc, char** argv) {
  try {
    return gem2bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gem2bench: %s\n", e.what());
    return 2;
  }
}
