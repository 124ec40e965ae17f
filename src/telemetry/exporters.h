/// \file exporters.h
/// Telemetry sinks and the machine-readable bench emitter.
///
///   CollectorSink    -> in-memory (tests, trace assembly)
///   NullSink         -> swallows everything (overhead measurement)
///   BenchReporter    -> appends run records to BENCH_<name>.json (JSON array)
#ifndef GEM2_TELEMETRY_EXPORTERS_H_
#define GEM2_TELEMETRY_EXPORTERS_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gas/meter.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::telemetry {

/// Keeps every span in memory, in close order; used by tests and trace
/// assembly.
class CollectorSink : public Sink {
 public:
  void OnSpan(const SpanRecord& span) override;

  std::vector<SpanRecord> TakeSpans();

 private:
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Discards everything. Installing it keeps the tracer "enabled" (spans are
/// measured and emitted) without any I/O — the overhead-measurement baseline.
class NullSink : public Sink {
 public:
  void OnSpan(const SpanRecord&) override {}
};

/// gas::MeterObserver that mirrors every charge into the metrics registry
/// ("gas.used.<category>" counters and "gas.ops.<category>" counts).
class MeterMetricsObserver : public gas::MeterObserver {
 public:
  explicit MeterMetricsObserver(MetricsRegistry* registry = nullptr);

  void OnCharge(const gas::Meter& meter, gas::GasCategory category,
                gas::Gas delta) override;

 private:
  Counter* used_[6];
  Counter* ops_[6];
};

/// One figure-reproduction data point, as appended to BENCH_<bench>.json.
struct BenchRecord {
  std::string bench;  // e.g. "fig7"
  std::string name;   // full benchmark name, e.g. "Fig7/GEM2-tree/uniform/N:1000"
  std::string ads;    // ADS under test ("" when not applicable)
  std::string dist;   // key distribution ("" when not applicable)
  uint64_t dataset_size = 0;
  uint64_t ops = 0;
  double gas_total = 0;
  double gas_mean = 0;
  double wall_ms = 0;
  gas::GasBreakdown breakdown;  // summed over the run
  /// Free-form extra metrics (VO bytes, proof depth, ...), emitted sorted.
  std::map<std::string, double> extra;
};

class BenchReporter {
 public:
  static BenchReporter& Global();

  void Record(BenchRecord record);

  /// Appends every recorded data point to `<dir>/BENCH_<bench>.json` (one
  /// file per distinct `bench`, each a JSON array that stays parse-valid
  /// across appends), then clears the buffer. `dir` defaults to
  /// $GEM2_BENCH_JSON_DIR or ".". Returns the paths written.
  std::vector<std::string> WriteFiles(const std::string& dir = "");

  size_t pending() const;

 private:
  mutable std::mutex mutex_;
  std::vector<BenchRecord> records_;
};

/// Serializes one bench record (exposed for tests).
std::string BenchRecordJson(const BenchRecord& record);

/// Appends `records` to the JSON array in `path` (creating it if missing or
/// unparseable). Returns false on I/O failure.
bool AppendBenchRecords(const std::string& path,
                        const std::vector<BenchRecord>& records);

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_EXPORTERS_H_
