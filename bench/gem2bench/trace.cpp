#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gem2bench.h"

namespace gem2bench {
namespace {

constexpr int kLayers = static_cast<int>(Layer::kCount);

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kChainWrite: return "chain.write";
    case Layer::kStoreAppend: return "store.append";
    case Layer::kCoreExecute: return "core.execute";
    case Layer::kCoreSerialize: return "core.serialize";
    case Layer::kCoreParse: return "core.parse";
    case Layer::kCoreVerify: return "core.verify";
    case Layer::kCoreEngineWrite: return "core.engine_write";
    case Layer::kNetLateness: return "net.lateness";
    case Layer::kNetWait: return "net.wait";
    case Layer::kNetRecv: return "net.recv";
    case Layer::kCount: break;
  }
  return "root";
}

TraceLane::TraceLane(uint32_t tid, size_t capacity)
    : tid_(tid),
      capacity_(capacity),
      durations_(kLayers),
      self_(kLayers),
      child_ns_(kLayers, 0) {
  spans_.reserve(capacity);
}

void TraceLane::Record(Layer layer, Layer parent, uint64_t op,
                       uint64_t start_ns, uint64_t end_ns) {
  const uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  const int l = static_cast<int>(layer);
  const uint64_t children = std::min(child_ns_[l], dur);
  child_ns_[l] = 0;
  durations_[l].push_back(dur);
  self_[l].push_back(dur - children);
  if (layer == Layer::kOp && dur > 0) {
    coverage_.push_back(static_cast<double>(children) / static_cast<double>(dur));
  }
  if (parent != Layer::kCount) child_ns_[static_cast<int>(parent)] += dur;
  if (spans_.size() < capacity_) {
    spans_.push_back({op, start_ns, end_ns, layer, parent});
  } else {
    ++dropped_;
  }
}

Tracer::Tracer(bool enabled, size_t spans_per_lane)
    : enabled_(enabled), spans_per_lane_(spans_per_lane) {}

TraceLane* Tracer::NewLane() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<TraceLane>(
      static_cast<uint32_t>(lanes_.size() + 1), spans_per_lane_));
  return lanes_.back().get();
}

std::vector<uint64_t> Tracer::Durations(Layer layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> all;
  for (const auto& lane : lanes_) {
    const auto& d = lane->durations(layer);
    all.insert(all.end(), d.begin(), d.end());
  }
  return all;
}

double Tracer::CoverageP50() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> all;
  for (const auto& lane : lanes_) {
    all.insert(all.end(), lane->coverage().begin(), lane->coverage().end());
  }
  if (all.empty()) return 0;
  std::nth_element(all.begin(), all.begin() + all.size() / 2, all.end());
  return all[all.size() / 2];
}

std::string Tracer::WriteFiles(const std::string& dir,
                               const std::string& workload,
                               uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string path =
      dir + "/trace_" + workload + "_" + std::to_string(seed) + ".json";
  std::ofstream out(path);
  uint64_t t0 = UINT64_MAX;
  uint64_t dropped = 0;
  for (const auto& lane : lanes_) {
    dropped += lane->dropped();
    for (const SpanRecord& s : lane->spans()) t0 = std::min(t0, s.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& lane : lanes_) {
    for (const SpanRecord& s : lane->spans()) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"parent\":\"%s\"}}",
                    first ? "" : ",", LayerName(s.layer), lane->tid(),
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op), LayerName(s.parent));
      out << buf;
      first = false;
    }
  }
  out << "\n],\"otherData\":{\"dropped_spans\":" << dropped << "}}\n";
  if (!out) std::fprintf(stderr, "gem2bench: could not write %s\n", path.c_str());

  std::ostringstream summary;
  summary << "{";
  bool first_layer = true;
  for (int l = 0; l < kLayers; ++l) {
    Samples dur;
    Samples self;
    for (const auto& lane : lanes_) {
      for (uint64_t ns : lane->durations(static_cast<Layer>(l))) dur.Add(ns);
      for (uint64_t ns : lane->self(static_cast<Layer>(l))) self.Add(ns);
    }
    if (dur.size() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%zu,\"p50_ns\":%.1f,\"p99_ns\":%.1f,"
                  "\"busy_s\":%.6f,\"self_s\":%.6f}",
                  first_layer ? "" : ",", LayerName(static_cast<Layer>(l)),
                  dur.size(), dur.Quantile(0.5), dur.Quantile(0.99),
                  dur.SumSeconds(), self.SumSeconds());
    summary << buf;
    first_layer = false;
  }
  summary << "}";
  return summary.str();
}

ScopedSpan::ScopedSpan(TraceLane* lane, Layer layer, Layer parent, uint64_t op)
    : lane_(lane),
      layer_(layer),
      parent_(parent),
      op_(op),
      start_ns_(lane != nullptr ? NowNs() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (lane_ != nullptr) lane_->Record(layer_, parent_, op_, start_ns_, NowNs());
}

}  // namespace gem2bench
