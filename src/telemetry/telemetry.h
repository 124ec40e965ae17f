/// \file telemetry.h
/// Gas-trace telemetry: RAII spans that attribute wall-clock time and gas to
/// named phases of a transaction, plus the process-wide Tracer that routes
/// finished spans to pluggable sinks (in-memory, null).
///
/// Design constraints (see docs/OBSERVABILITY.md):
///   - Spans never charge gas and never perturb the meter: gas attribution
///     works by snapshotting the active gas::Meter's breakdown at span open
///     and close, so for any span  inclusive == self + sum(children) and the
///     root span of a transaction equals the receipt's gas_used exactly.
///   - Near-zero cost when off: a tracer with no sinks makes Span
///     construction a single relaxed atomic load.
///   - Thread safety: the span stack and active meter are thread-local; sink
///     registration is mutex-guarded; sinks serialize their own output.
#ifndef GEM2_TELEMETRY_TELEMETRY_H_
#define GEM2_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gas/meter.h"
#include "telemetry/trace.h"

namespace gem2::telemetry {

/// One finished span, as delivered to sinks.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root span
  uint32_t depth = 0;      // 0 = root span
  uint64_t thread_id = 0;
  /// 128-bit trace id active while the span was open (0 when none): the
  /// cross-role identity that groups an owner→SP→client round trip. A span
  /// opened on a fresh stack under a propagated TraceContext parents onto
  /// that context's `parent_span` even across threads.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::string name;
  uint64_t start_ns = 0;     // steady-clock, process-relative
  uint64_t duration_ns = 0;  // wall time inside the span
  /// Gas charged to the active meter while the span was open, including
  /// child spans (zero when no meter was active).
  gas::GasBreakdown gas;
  /// gas.total() minus the inclusive totals of direct children: what this
  /// phase itself charged.
  gas::Gas self_gas = 0;

  gas::Gas gas_total() const { return gas.total(); }
};

/// Receives finished spans. Implementations must be thread-safe: spans from
/// concurrent transactions arrive unordered.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void OnSpan(const SpanRecord& span) = 0;
};

/// Process-wide router from instrumentation sites to sinks.
class Tracer {
 public:
  static Tracer& Global();

  /// True when at least one sink is installed (single relaxed atomic load;
  /// this is the fast-path gate every Span constructor takes).
  bool enabled() const { return sink_count_.load(std::memory_order_relaxed) > 0; }

  void AddSink(std::shared_ptr<Sink> sink);
  /// Removes every sink.
  void ClearSinks();

  /// Declares `meter` the attribution target for spans opened on this thread
  /// until the returned value is passed to RestoreMeter. Typically bracketed
  /// by ScopedMeter.
  gas::Meter* SetActiveMeter(gas::Meter* meter);
  void RestoreMeter(gas::Meter* previous);

  /// Monotonic nanoseconds since process start (steady clock).
  static uint64_t NowNs();
  /// Small dense id of the calling thread (stable for the thread's lifetime).
  static uint64_t ThreadId();

 private:
  friend class Span;

  Tracer() = default;

  void EmitSpan(const SpanRecord& record);

  std::atomic<int> sink_count_{0};
  // Sink list: copy-on-write under a mutex; readers grab a shared_ptr.
  std::shared_ptr<const std::vector<std::shared_ptr<Sink>>> sinks_ =
      std::make_shared<const std::vector<std::shared_ptr<Sink>>>();
  std::atomic<uint64_t> next_span_id_{1};
};

/// RAII scope measuring one named phase. Open with the TELEMETRY_SPAN macro,
/// or construct directly when the name is dynamic (e.g. "tx." + method) or
/// when the span's id is needed to parent work handed to other threads
/// (Span::context()).
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id; 0 when the tracer had no sink at construction.
  uint64_t id() const { return id_; }

  /// The context under which work on other threads (or the peer role) should
  /// continue this span's trace: the thread's current trace id with this
  /// span as the parent.
  TraceContext context() const;

 private:
  uint64_t id_ = 0;
};

#define TELEMETRY_SPAN_CAT2(a, b) a##b
#define TELEMETRY_SPAN_CAT(a, b) TELEMETRY_SPAN_CAT2(a, b)
#define TELEMETRY_SPAN(name) \
  ::gem2::telemetry::Span TELEMETRY_SPAN_CAT(gem2_telemetry_span_, __LINE__)(name)

/// Installs `meter` as the thread's attribution target for the scope.
class ScopedMeter {
 public:
  explicit ScopedMeter(gas::Meter* meter)
      : previous_(Tracer::Global().SetActiveMeter(meter)) {}
  ~ScopedMeter() { Tracer::Global().RestoreMeter(previous_); }

  ScopedMeter(const ScopedMeter&) = delete;
  ScopedMeter& operator=(const ScopedMeter&) = delete;

 private:
  gas::Meter* previous_;
};

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_TELEMETRY_H_
