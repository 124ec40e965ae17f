#include "telemetry/telemetry.h"

#include <chrono>
#include <mutex>

namespace gem2::telemetry {
namespace {

/// Per-thread frame of an open span. Records everything the Span object
/// itself does not carry, so Span stays one word wide.
struct Frame {
  uint64_t id = 0;
  std::string name;
  uint64_t start_ns = 0;
  /// Trace context active when the span opened; stamped into the record so
  /// sinks can group spans by cross-role trace id.
  TraceContext trace;
  gas::GasBreakdown open_gas;
  /// Sum of direct children's inclusive gas, accumulated as they close.
  gas::Gas children_gas = 0;
};

struct ThreadState {
  std::vector<Frame> stack;
  gas::Meter* meter = nullptr;
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

std::mutex& SinkMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::AddSink(std::shared_ptr<Sink> sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(SinkMutex());
  auto next = std::make_shared<std::vector<std::shared_ptr<Sink>>>(*sinks_);
  next->push_back(std::move(sink));
  std::atomic_store_explicit(&sinks_,
                             std::shared_ptr<const std::vector<std::shared_ptr<Sink>>>(
                                 std::move(next)),
                             std::memory_order_release);
  sink_count_.store(static_cast<int>(sinks_->size()), std::memory_order_relaxed);
}

void Tracer::ClearSinks() {
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::atomic_store_explicit(
      &sinks_, std::make_shared<const std::vector<std::shared_ptr<Sink>>>(),
      std::memory_order_release);
  sink_count_.store(0, std::memory_order_relaxed);
}

gas::Meter* Tracer::SetActiveMeter(gas::Meter* meter) {
  ThreadState& state = State();
  gas::Meter* previous = state.meter;
  state.meter = meter;
  return previous;
}

void Tracer::RestoreMeter(gas::Meter* previous) { State().meter = previous; }

void Tracer::EmitSpan(const SpanRecord& record) {
  auto sinks = std::atomic_load_explicit(&sinks_, std::memory_order_acquire);
  for (const auto& sink : *sinks) sink->OnSpan(record);
}

uint64_t Tracer::NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - origin)
                                   .count());
}

uint64_t Tracer::ThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Span::Span(std::string_view name) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  ThreadState& state = State();
  Frame frame;
  frame.id = tracer.next_span_id_.fetch_add(1, std::memory_order_relaxed);
  frame.name.assign(name.data(), name.size());
  frame.start_ns = Tracer::NowNs();
  frame.trace = CurrentTrace();
  if (state.meter != nullptr) frame.open_gas = state.meter->breakdown();
  id_ = frame.id;
  state.stack.push_back(std::move(frame));
}

Span::~Span() {
  if (id_ == 0) return;
  ThreadState& state = State();
  if (state.stack.empty()) return;  // sinks cleared mid-span on another thread
  Frame frame = std::move(state.stack.back());
  state.stack.pop_back();

  SpanRecord record;
  record.id = frame.id;
  record.parent_id = state.stack.empty() ? 0 : state.stack.back().id;
  // A root-of-stack span opened under a propagated trace context parents onto
  // the context's span: this is how a worker thread's slice span (or the
  // client's verify span) attaches under the SP's query span.
  if (record.parent_id == 0 && frame.trace.parent_span != 0) {
    record.parent_id = frame.trace.parent_span;
  }
  record.depth = static_cast<uint32_t>(state.stack.size());
  record.thread_id = Tracer::ThreadId();
  record.trace_hi = frame.trace.trace_hi;
  record.trace_lo = frame.trace.trace_lo;
  record.name = std::move(frame.name);
  record.start_ns = frame.start_ns;
  record.duration_ns = Tracer::NowNs() - frame.start_ns;
  if (state.meter != nullptr) {
    record.gas = state.meter->breakdown();
    record.gas -= frame.open_gas;
  }
  record.self_gas = record.gas.total() - frame.children_gas;
  if (!state.stack.empty()) {
    state.stack.back().children_gas += record.gas.total();
  }
  Tracer::Global().EmitSpan(record);
}

TraceContext Span::context() const {
  TraceContext ctx = CurrentTrace();
  ctx.parent_span = id_;
  return ctx;
}

}  // namespace gem2::telemetry
