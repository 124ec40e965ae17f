/// \file trace.h
/// Cross-role distributed-tracing identity: a 128-bit trace id plus the span
/// to parent onto, propagated from a RangeStore entry point through the SP's
/// scatter-gather and back to the client's verification — across threads and
/// across roles.
///
/// Design constraints (see docs/OBSERVABILITY.md):
///   - Identity is telemetry-only. A TraceContext rides *alongside* the
///     authenticated protocol (an in-memory QueryResponse field, or the
///     Wrap/UnwrapTracedWire envelope around a wire image), never inside it:
///     gas numbers and VO images are bit-identical with tracing on or off,
///     and fail-closed wire parsing is untouched.
///   - Thread propagation is explicit: installing a TraceScope on a worker
///     thread (capturing the parent's context by value) is what carries a
///     trace onto another thread; within one thread, nested spans parent
///     through the span stack.
#ifndef GEM2_TELEMETRY_TRACE_H_
#define GEM2_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>

namespace gem2::telemetry {

/// One query's identity as it crosses role boundaries. `trace_hi/trace_lo`
/// name the whole owner→SP→client round trip; `parent_span` is the span a
/// continuation (another thread's slice, or the client's verify) should
/// attach under when it opens a fresh span stack.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }

  /// Same 128-bit trace id (parent span may differ).
  bool SameTraceAs(const TraceContext& other) const {
    return trace_hi == other.trace_hi && trace_lo == other.trace_lo;
  }

  /// 32-char lowercase hex trace id; "" when !valid().
  std::string TraceIdHex() const;

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Fresh, never-zero 128-bit trace id (no parent span). Unique within the
/// process and salted per-process, so logs from concurrent runs don't
/// collide. Trace ids are diagnostic identity, not protocol data — nothing
/// verified depends on them.
TraceContext NewTrace();

/// The context installed on this thread ({} when none is active).
TraceContext CurrentTrace();

/// CurrentTrace() when one is active, else NewTrace(): what an entry point
/// installs so nested work joins the caller's trace when there is one.
TraceContext ContinueTrace();

/// RAII: installs `ctx` as this thread's active trace context; restores the
/// previous context on destruction. Capture a parent's context by value into
/// a worker lambda and open a TraceScope there to carry a trace across
/// threads.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  const TraceContext& context() const { return context_; }

 private:
  TraceContext context_;
  TraceContext previous_;
};

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_TRACE_H_
