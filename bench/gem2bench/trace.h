/// \file trace.h
/// The benchmark's own span recorder (the traced run, `--trace`). Spans are
/// taken around calls into the library's public functions — nothing inside
/// src/ is instrumented. Each span has a layer name, start, end, parent layer
/// and the id of the op it belongs to. Spans go into buffers preallocated
/// before the measured window; per-layer durations and per-op child
/// coverage are kept for every traced span even once the buffer for the
/// Chrome trace file is full. Files are written only when the run ends.
#ifndef GEM2BENCH_TRACE_H_
#define GEM2BENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gem2bench {

/// Span names. kOp is the root of every op; the rest are layer calls.
enum class Layer : uint8_t {
  kOp,
  kChainWrite,
  kStoreAppend,
  kCoreExecute,
  kCoreSerialize,
  kCoreParse,
  kCoreVerify,
  kCoreEngineWrite,
  kNetLateness,
  kNetWait,
  kNetRecv,
  kCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  Layer layer = Layer::kOp;
  Layer parent = Layer::kCount;  // kCount = root
};

/// One thread's span buffer. Only its owning thread touches it.
class TraceLane {
 public:
  TraceLane(uint32_t tid, size_t capacity);

  void Record(Layer layer, Layer parent, uint64_t op, uint64_t start_ns,
              uint64_t end_ns);

  uint32_t tid() const { return tid_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<uint64_t>& durations(Layer layer) const {
    return durations_[static_cast<int>(layer)];
  }
  const std::vector<uint64_t>& self(Layer layer) const {
    return self_[static_cast<int>(layer)];
  }
  /// Per closed op: share of the op span covered by its direct children.
  const std::vector<double>& coverage() const { return coverage_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t tid_;
  size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::vector<std::vector<uint64_t>> durations_;
  std::vector<std::vector<uint64_t>> self_;
  std::vector<double> coverage_;
  /// Child time accumulated per open parent layer of the current op. Spans
  /// close children-first, so a parent reads its total when it closes.
  std::vector<uint64_t> child_ns_;
  uint64_t dropped_ = 0;
};

/// Owns every lane. Disabled tracers hand out no lanes and record nothing.
class Tracer {
 public:
  Tracer(bool enabled, size_t spans_per_lane);

  bool enabled() const { return enabled_; }
  /// A new lane for the calling thread (nullptr when disabled).
  TraceLane* NewLane();

  /// Median over ops of the share of the op covered by child layers.
  double CoverageP50() const;

  /// Writes `trace_<workload>_<seed>.json` (Chrome trace events) into `dir`
  /// and returns the per-layer summary as a JSON object string: per layer
  /// count, p50/p99 and busy seconds, and self seconds (span minus children).
  std::string WriteFiles(const std::string& dir, const std::string& workload,
                         uint64_t seed) const;

  /// Durations of `layer` across every lane.
  std::vector<uint64_t> Durations(Layer layer) const;

 private:
  bool enabled_;
  size_t spans_per_lane_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// RAII span on a lane; a null lane (untraced op) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(TraceLane* lane, Layer layer, Layer parent, uint64_t op);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLane* lane_;
  Layer layer_;
  Layer parent_;
  uint64_t op_;
  uint64_t start_ns_;
};

}  // namespace gem2bench

#endif  // GEM2BENCH_TRACE_H_
