#include "telemetry/trace.h"

#include <atomic>
#include <random>

namespace gem2::telemetry {

std::string TraceContext::TraceIdHex() const {
  if (!valid()) return "";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[i] = kHex[(trace_hi >> (60 - 4 * i)) & 0xf];
    out[16 + i] = kHex[(trace_lo >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

namespace {

thread_local TraceContext g_current_trace;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext NewTrace() {
  static const uint64_t process_salt = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<uint64_t> counter{1};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_hi = SplitMix64(process_salt ^ n);
  // The low word alone guarantees valid(): SplitMix64 maps exactly one input
  // to zero, so force the last bit.
  ctx.trace_lo = SplitMix64(n) | 1;
  return ctx;
}

TraceContext CurrentTrace() { return g_current_trace; }

TraceContext ContinueTrace() {
  return g_current_trace.valid() ? g_current_trace : NewTrace();
}

TraceScope::TraceScope(const TraceContext& ctx)
    : context_(ctx), previous_(g_current_trace) {
  g_current_trace = ctx;
}

TraceScope::~TraceScope() { g_current_trace = previous_; }

}  // namespace gem2::telemetry
