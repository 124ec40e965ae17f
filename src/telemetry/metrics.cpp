#include "telemetry/metrics.h"

#include "telemetry/introspect.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace gem2::telemetry {
namespace {

/// Per-thread deterministic RNG for reservoir replacement: seeded from a
/// process-wide counter, so single-threaded runs sample reproducibly and
/// multi-threaded runs stay contention-free.
uint64_t NextRand() {
  static std::atomic<uint64_t> seed_source{0x6a09e667f3bcc908ull};
  thread_local uint64_t state =
      seed_source.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Histogram::Observe(uint64_t value) {
  // Enter as a writer unless a reset is in flight. Paired with Reset's
  // generation bump and writer drain (both seq_cst): either this writer sees
  // the odd generation and waits, or Reset sees it registered and waits for
  // it, so no observation is split across a reset.
  for (;;) {
    while (generation_.load(std::memory_order_acquire) & 1) std::this_thread::yield();
    writers_.fetch_add(1, std::memory_order_seq_cst);
    if ((generation_.load(std::memory_order_seq_cst) & 1) == 0) break;
    writers_.fetch_sub(1, std::memory_order_release);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t observed = min_.load(std::memory_order_relaxed);
  while (value < observed &&
         !min_.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
  observed = max_.load(std::memory_order_relaxed);
  while (value > observed &&
         !max_.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }

  // Reservoir (Vitter's Algorithm R). While filling, every observation takes
  // a slot; after, observation n replaces a random slot with probability
  // capacity/n, so the lock is touched ever more rarely on hot histograms.
  const uint64_t n = reservoir_n_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n <= kReservoirCapacity) {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    reservoir_[n - 1] = value;
  } else {
    const uint64_t j = NextRand() % n;
    if (j < kReservoirCapacity) {
      std::lock_guard<std::mutex> lock(reservoir_mutex_);
      reservoir_[j] = value;
    }
  }
  writers_.fetch_sub(1, std::memory_order_release);
}

uint64_t Histogram::min() const {
  const uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

namespace {

double OrderStatistic(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return static_cast<double>(sorted.front());
  if (q >= 1.0) return static_cast<double>(sorted.back());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double a = static_cast<double>(sorted[lo]);
  const double b = static_cast<double>(sorted[std::min(lo + 1, sorted.size() - 1)]);
  return a + (b - a) * frac;
}

}  // namespace

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> sample;
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    const uint64_t n =
        std::min<uint64_t>(reservoir_n_.load(std::memory_order_relaxed),
                           kReservoirCapacity);
    sample.assign(reservoir_, reservoir_ + n);
  }
  std::sort(sample.begin(), sample.end());
  return OrderStatistic(sample, q);
}

QuantileSummary Histogram::Quantiles() const {
  std::vector<uint64_t> sample;
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    const uint64_t n =
        std::min<uint64_t>(reservoir_n_.load(std::memory_order_relaxed),
                           kReservoirCapacity);
    sample.assign(reservoir_, reservoir_ + n);
  }
  std::sort(sample.begin(), sample.end());
  QuantileSummary s;
  s.samples = sample.size();
  s.p50 = OrderStatistic(sample, 0.50);
  s.p99 = OrderStatistic(sample, 0.99);
  s.p999 = OrderStatistic(sample, 0.999);
  return s;
}

void Histogram::Reset() {
  // Mark the reset in flight (generation goes odd, one reset at a time) so
  // snapshot readers spin or retry instead of publishing a half-cleared
  // count/sum pair and new writers wait; then drain the writers already in.
  uint64_t g = generation_.load(std::memory_order_relaxed);
  for (;;) {
    if (g & 1) {
      std::this_thread::yield();
      g = generation_.load(std::memory_order_relaxed);
    } else if (generation_.compare_exchange_weak(g, g + 1, std::memory_order_seq_cst)) {
      break;
    }
  }
  while (writers_.load(std::memory_order_seq_cst) != 0) std::this_thread::yield();
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    reservoir_n_.store(0, std::memory_order_relaxed);
    std::fill(reservoir_, reservoir_ + kReservoirCapacity, 0);
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool operator==(const MetricsSnapshot::HistogramStats& a,
                const MetricsSnapshot::HistogramStats& b) {
  return a.name == b.name && a.count == b.count && a.sum == b.sum &&
         a.min == b.min && a.max == b.max;
}

bool operator==(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  return a.counters == b.counters && a.gauges == b.gauges &&
         a.histograms == b.histograms;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  // Arm the CI/exit dump hooks here: every instrumented process touches the
  // global registry, and atexit handlers registered after `registry` is
  // constructed run before its destruction.
  ArmProcessDumpHooksFromEnv();
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

/// Reads one histogram's multi-field stats under the generation protocol:
/// wait out an in-flight reset, read, and retry if a reset raced the read.
MetricsSnapshot::HistogramStats ReadHistogram(const std::string& name,
                                              const Histogram& h) {
  MetricsSnapshot::HistogramStats stats;
  stats.name = name;
  for (;;) {
    uint64_t g = h.generation();
    while (g & 1) {  // reset in flight; resets are short, so just yield
      std::this_thread::yield();
      g = h.generation();
    }
    stats.count = h.count();
    stats.sum = h.sum();
    stats.min = h.min();
    stats.max = h.max();
    stats.mean = h.mean();
    stats.quantiles = h.Quantiles();
    if (h.generation() == g) return stats;
  }
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(ReadHistogram(name, *h));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

IndexedCounters::IndexedCounters(MetricsRegistry& registry,
                                 const std::string& prefix, size_t n,
                                 size_t max_index) {
  if (n > max_index) {
    std::fprintf(stderr,
                 "[gem2.telemetry] indexed counter family '%s' requested %zu "
                 "indices; clamping to %zu (excess lands on '%s.overflow')\n",
                 prefix.c_str(), n, max_index, prefix.c_str());
    n = max_index;
  }
  counters_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    counters_.push_back(&registry.counter(prefix + "." + std::to_string(i)));
  }
  overflow_ = &registry.counter(prefix + ".overflow");
}

IndexedHistograms::IndexedHistograms(MetricsRegistry& registry,
                                     const std::string& prefix, size_t n,
                                     size_t max_index) {
  if (n > max_index) {
    std::fprintf(stderr,
                 "[gem2.telemetry] indexed histogram family '%s' requested %zu "
                 "indices; clamping to %zu (excess lands on '%s.overflow')\n",
                 prefix.c_str(), n, max_index, prefix.c_str());
    n = max_index;
  }
  histograms_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    histograms_.push_back(&registry.histogram(prefix + "." + std::to_string(i)));
  }
  overflow_ = &registry.histogram(prefix + ".overflow");
}

}  // namespace gem2::telemetry
