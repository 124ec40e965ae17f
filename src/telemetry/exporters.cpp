#include "telemetry/exporters.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/json.h"

namespace gem2::telemetry {
namespace {

JsonObject BreakdownJson(const gas::GasBreakdown& b) {
  return JsonObject{
      {"sload", JsonValue(b.sload)},       {"sstore", JsonValue(b.sstore)},
      {"supdate", JsonValue(b.supdate)},   {"mem", JsonValue(b.mem)},
      {"hash", JsonValue(b.hash)},         {"intrinsic", JsonValue(b.intrinsic)},
  };
}

bool WriteFileAtomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << content;
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// --- CollectorSink ---------------------------------------------------------

void CollectorSink::OnSpan(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> CollectorSink::TakeSpans() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

// --- MeterMetricsObserver --------------------------------------------------

MeterMetricsObserver::MeterMetricsObserver(MetricsRegistry* registry) {
  MetricsRegistry& reg = registry != nullptr ? *registry : MetricsRegistry::Global();
  for (int i = 0; i < gas::kNumGasCategories; ++i) {
    const char* name = gas::GasCategoryName(static_cast<gas::GasCategory>(i));
    used_[i] = &reg.counter(std::string("gas.used.") + name);
    ops_[i] = &reg.counter(std::string("gas.ops.") + name);
  }
}

void MeterMetricsObserver::OnCharge(const gas::Meter& meter,
                                    gas::GasCategory category, gas::Gas delta) {
  (void)meter;
  const int i = static_cast<int>(category);
  used_[i]->Add(delta);
  ops_[i]->Add(1);
}

// --- BenchReporter ---------------------------------------------------------

BenchReporter& BenchReporter::Global() {
  static BenchReporter reporter;
  return reporter;
}

void BenchReporter::Record(BenchRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

size_t BenchReporter::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::string BenchRecordJson(const BenchRecord& r) {
  JsonObject obj{
      {"bench", JsonValue(r.bench)},
      {"name", JsonValue(r.name)},
      {"ads", JsonValue(r.ads)},
      {"dist", JsonValue(r.dist)},
      {"dataset_size", JsonValue(r.dataset_size)},
      {"ops", JsonValue(r.ops)},
      {"gas_total", JsonValue(r.gas_total)},
      {"gas_mean", JsonValue(r.gas_mean)},
      {"wall_ms", JsonValue(r.wall_ms)},
      {"breakdown", JsonValue(BreakdownJson(r.breakdown))},
  };
  JsonObject extra;
  for (const auto& [k, v] : r.extra) extra.emplace_back(k, JsonValue(v));
  obj.emplace_back("extra", JsonValue(std::move(extra)));
  return JsonValue(std::move(obj)).Dump();
}

bool AppendBenchRecords(const std::string& path,
                        const std::vector<BenchRecord>& records) {
  JsonArray array;
  if (auto existing = JsonParse(ReadFile(path));
      existing.has_value() && existing->is_array()) {
    array = std::move(existing->array());
  }
  for (const BenchRecord& r : records) {
    auto parsed = JsonParse(BenchRecordJson(r));
    if (!parsed) return false;
    array.push_back(std::move(*parsed));
  }
  return WriteFileAtomically(path, JsonValue(std::move(array)).Dump());
}

std::vector<std::string> BenchReporter::WriteFiles(const std::string& dir) {
  std::vector<BenchRecord> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records = std::move(records_);
  }
  std::string base = dir;
  if (base.empty()) {
    const char* env = std::getenv("GEM2_BENCH_JSON_DIR");
    base = env != nullptr ? env : ".";
  }
  // Group by bench name, preserving record order.
  std::map<std::string, std::vector<BenchRecord>> by_bench;
  for (BenchRecord& r : records) by_bench[r.bench].push_back(std::move(r));
  std::vector<std::string> paths;
  for (auto& [bench, group] : by_bench) {
    const std::string path = base + "/BENCH_" + bench + ".json";
    if (AppendBenchRecords(path, group)) paths.push_back(path);
  }
  return paths;
}

}  // namespace gem2::telemetry
