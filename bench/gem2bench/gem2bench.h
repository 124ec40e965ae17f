/// \file gem2bench.h
/// Shared plumbing of the gem2bench binary: run configuration, the metric
/// table, the result record, latency samples, the measured-window clock and
/// repeated set-up timing. Every workload (ingest.cpp, range_uniform.cpp,
/// boolean_sharded_zipf.cpp, service_rw.cpp) drives the library only through
/// its public headers and reports into one Result.
#ifndef GEM2BENCH_GEM2BENCH_H_
#define GEM2BENCH_GEM2BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "trace.h"

namespace gem2bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Input sizes of one scale. `full` is what BENCHMARK.json runs; `smoke`
/// shrinks every size so all four workloads finish in seconds.
struct Scale {
  uint64_t ingest_preload = 50'000;
  uint64_t ingest_prefix_ops = 50'000;  // fixed prefix for the exact counts
  uint64_t ingest_round_ops = 100'000;  // owner ops per fresh store
  uint64_t range_n = 100'000;
  uint64_t boolean_records = 50'000;
  uint64_t service_n = 50'000;
  uint64_t query_prefix = 1'000;  // fixed query prefix for the exact counts
  uint64_t audit_queries = 256;
  int setups = 5;

  static Scale Smoke();
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 18;  // BENCHMARK.json's run_seconds
  bool trace = false;
  std::string out_dir;
  std::string scale_name = "full";
  Scale scale;
};

enum class MetricKind { kEndToEnd, kLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  MetricKind kind;
};

/// Every metric the binary reports, end-to-end and per-layer, in output
/// order. BENCHMARK.json must name exactly these (run.py and smoke.py check).
const std::vector<MetricDef>& AllMetrics();

/// One workload run: correctness, attempted/failed op counts, and metric
/// values by name. Per-layer metrics a workload does not exercise stay 0.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::string fingerprint;
  std::vector<std::string> errors;  // first few failure messages
  /// Extra JSON members for the result file (host block, layer summary).
  std::map<std::string, std::string> json_extra;

  void Set(const std::string& name, double value) { values[name] = value; }

  /// A wrong answer: verification rejected it or it disagrees with the
  /// bench's reference model. Makes the run incorrect and the exit non-zero.
  void Mismatch(const std::string& message);
  /// An op that did not complete (BUSY, ERROR, lost, or due but unsent).
  void Failed(const std::string& message);
};

/// Per-op latency samples in nanoseconds.
class Samples {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  /// Order statistic at rank q (linear interpolation); 0 when empty.
  double Quantile(double q) const;
  double SumSeconds() const;

 private:
  std::vector<uint64_t> ns_;
};

/// Writes `<prefix>.p50`, `<prefix>.p99` (ns) and `<prefix>.busy_s`.
void SetTiming(Result* result, const std::string& prefix, const Samples& s);

/// Writes p50_ms and p99_ms over every end-to-end latency sample of the
/// window's untraced ops, so p99 rests on the whole run's tail.
void SetLatency(Result* result, const Samples& latency);

/// SetTiming over every traced span of `layer`.
void SetLayerTiming(Result* result, const Tracer& tracer, Layer layer,
                    const std::string& prefix);

/// SetLayerTiming for the four spans of RunQuery (core.execute_ns, ...).
void SetQueryLayerTimings(Result* result, const Tracer& tracer);

/// The measured window of a closed loop. It runs for `seconds` of active
/// time: intervals between Pause() and Resume() (audits, exact-count
/// snapshots) are excluded. With tracing on, active time alternates between
/// untraced and traced slices; ops are counted per slice kind, which gives
/// the tracing overhead without a second run.
class Window {
 public:
  static constexpr int kChunks = 10;

  Window(double seconds, bool trace_mode);

  /// True while active time remains; call once before each op.
  bool Running();
  /// Whether the op about to run is in a traced slice.
  bool traced() const { return traced_; }
  void Pause();
  void Resume();
  /// Counts one completed op in the current slice kind.
  void CountOp();

  /// Completed ops per active second, as the median over equal chunks of the
  /// untraced active time (robust to a short stall of the host).
  double OpsPerSecond() const;
  /// 1 - traced rate / untraced rate (0 when not tracing).
  double OverheadFrac() const;

 private:
  void Advance(uint64_t now);

  uint64_t chunk_ns() const;
  /// The untraced chunk the current op falls in.
  int chunk() const;

  static constexpr uint64_t kSliceNs = 250'000'000;
  uint64_t budget_ns_;
  bool trace_mode_;
  bool traced_ = false;
  bool paused_ = false;
  uint64_t mark_ns_;
  uint64_t active_ns_[2] = {0, 0};
  uint64_t ops_[2] = {0, 0};
  /// Untraced (ops, active ns) per chunk, for the median rate.
  std::vector<std::pair<uint64_t, uint64_t>> chunks_;
};

/// Set-up timing. A workload builds the state its window measures with
/// TimedBuild, runs the window, records peak_rss_mb, destroys the state, and
/// then calls FinishSetups. Memory the allocator keeps from a destroyed
/// build adds to later peaks by an amount that varies from run to run, so
/// the repeat builds come after the peak is read.
template <typename Build>
auto TimedBuild(Samples* times, Build&& build) {
  const uint64_t t0 = NowNs();
  auto state = build();
  times->Add(NowNs() - t0);
  return state;
}

/// Builds and destroys the state until `setups` builds are timed, then sets
/// setup_s to the median build time.
template <typename Build>
void FinishSetups(int setups, Samples* times, Result* result, Build&& build) {
  while (times->size() < static_cast<size_t>(setups)) TimedBuild(times, build);
  result->Set("setup_s", times->Quantile(0.5) / 1e9);
}

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// The paper's GEM2-tree setting (Section VII-A): m = 8, Smax = 2048,
/// fanout 4, 1024 transactions per block. The gas limit is lifted so a large
/// P0 merge is measured instead of aborting the store. Everything else, wire
/// version and pools included, stays at the library's defaults.
gem2::core::DbOptions PaperDbOptions();

/// Gas of owner transactions, in total and per category.
struct GasTally {
  uint64_t writes = 0;
  uint64_t gas = 0;
  gem2::gas::GasBreakdown breakdown;

  void Add(const gem2::chain::TxReceipt& receipt) {
    ++writes;
    gas += receipt.gas_used;
    breakdown += receipt.breakdown;
  }
  /// Sets gas_per_write and, when `categories`, gas.<category>_per_write.
  void Report(Result* result, bool categories) const;
};

/// One query through the client-facing path: the SP serves the spec's wire
/// image, the client parses it and verifies it against chain state read
/// once. Untraced this is exactly RangeStore::SpecWire; traced, the same
/// bytes are produced by ExecuteSpec and SerializeSpecResponse so each gets
/// its own span.
struct Answer {
  gem2::core::SpecResponse parsed;
  gem2::core::VerifiedSpecResult verified;
  bool ok = false;
  std::string error;
  uint64_t image_bytes = 0;
  uint64_t latency_ns = 0;
  uint64_t perms_execute = 0;  // Keccak permutations in execute + serialize
  uint64_t perms_verify = 0;
};

Answer RunQuery(const gem2::core::RangeStore& db,
                const std::vector<gem2::chain::AuthenticatedState>& states,
                const gem2::core::QuerySpec& spec, TraceLane* lane, uint64_t op);

/// Checks a verified range answer against the reference model; empty when
/// they agree, else the first difference.
std::string CompareRange(const std::map<gem2::Key, std::string>& reference,
                         const gem2::core::QuerySpec& spec,
                         const std::vector<gem2::Object>& got);

/// Per-query work counts over a fixed prefix of queries, so they repeat
/// exactly for a seed.
struct QueryCounts {
  uint64_t queries = 0;
  uint64_t image_bytes = 0;
  uint64_t results = 0;
  uint64_t vo_sp_bytes = 0;
  uint64_t vo_chain_bytes = 0;
  uint64_t perms_execute = 0;
  uint64_t perms_verify = 0;

  void Add(const Answer& a);
  /// Sets vo_bytes_per_query and the core.* / crypto.* per-query counts.
  void Report(Result* result) const;
};

// Workload entry points (one file each).
void RunIngest(const Config& config, Tracer& tracer, Result* result);
void RunRangeUniform(const Config& config, Tracer& tracer, Result* result);
void RunBooleanShardedZipf(const Config& config, Tracer& tracer, Result* result);
void RunServiceRw(const Config& config, Tracer& tracer, Result* result);

}  // namespace gem2bench

#endif  // GEM2BENCH_GEM2BENCH_H_
