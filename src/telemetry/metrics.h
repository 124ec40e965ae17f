/// \file metrics.h
/// Process-wide registry of named counters, gauges, and histograms.
///
/// Registration (first use of a name) takes a mutex; every subsequent
/// increment is a plain atomic op on a stable object, so hot paths hold no
/// locks. Snapshots are deterministic: metrics are reported sorted by name,
/// and identical workloads produce identical snapshots.
///
/// Histograms carry two representations: lock-free count/sum/min/max
/// (bit-deterministic, cheap), and a fixed-memory reservoir sample (Vitter's
/// Algorithm R) from which exact-data quantiles — p50, p99, p999 — are
/// computed at snapshot time. The reservoir is exact while the
/// observation count fits its capacity and an unbiased uniform sample after.
#ifndef GEM2_TELEMETRY_METRICS_H_
#define GEM2_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gem2::telemetry {

class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Quantile summary of a histogram's reservoir sample. Values are exact order
/// statistics of the sampled data (exact over *all* data while count <=
/// reservoir capacity).
struct QuantileSummary {
  uint64_t samples = 0;  // reservoir occupancy the quantiles were cut from
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Histogram of unsigned observations: count/sum/min/max plus a fixed-memory
/// reservoir for exact-quantile reporting.
///
/// Reset() vs concurrent readers is coordinated by a single generation
/// counter (odd while a reset is in flight, bumped to even when it
/// completes), so snapshot readers never publish a count/sum pair torn
/// across a reset epoch. Observe() waits out a reset in flight, and a reset
/// waits for the observations already in progress, so no observation lands
/// half before and half after one.
class Histogram {
 public:
  static constexpr size_t kReservoirCapacity = 4096;

  void Observe(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;  // 0 when empty
  double mean() const;

  /// Order statistic at rank q (0 <= q <= 1) of the reservoir sample, with
  /// linear interpolation between adjacent samples; 0 when empty.
  double Quantile(double q) const;

  /// p50/p99/p999 from one consistent copy of the reservoir (one lock, one
  /// sort — cheaper than three Quantile calls).
  QuantileSummary Quantiles() const;

  /// Even outside a reset; odd while one is in flight. Readers needing a
  /// coherent multi-field view read it before and after (see Reset()).
  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  void Reset();

 private:
  friend class MetricsRegistry;

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  /// Reset-epoch generation: incremented to odd at reset start, to even at
  /// reset end. Observe() only reads it, so readers cannot livelock.
  std::atomic<uint64_t> generation_{0};
  /// Observe() calls in progress; Reset() clears only once none is, and none
  /// starts while it runs, so count and sum never straddle a reset.
  std::atomic<uint64_t> writers_{0};
  /// Observations offered to the reservoir this epoch (assigns slots while
  /// filling, then drives the Algorithm R replacement probability).
  std::atomic<uint64_t> reservoir_n_{0};
  mutable std::mutex reservoir_mutex_;
  uint64_t reservoir_[kReservoirCapacity] = {};  // guarded by reservoir_mutex_
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;       // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;          // sorted by name
  struct HistogramStats {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0;
    /// Reservoir quantiles. Excluded from operator== — the reservoir's
    /// contents depend on thread interleaving once it overflows, and
    /// equality is used to assert serial/parallel metric equivalence.
    QuantileSummary quantiles;
  };
  std::vector<HistogramStats> histograms;  // sorted by name

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&);
};

bool operator==(const MetricsSnapshot::HistogramStats& a,
                const MetricsSnapshot::HistogramStats& b);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// The returned reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every metric (names stay registered).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Cap on indexed-metric families: indices at or above the bound share one
/// ".overflow" metric instead of minting a fresh registry entry, so an
/// adversarial or buggy shard id cannot grow the registry without bound.
inline constexpr size_t kDefaultMaxIndexedMetrics = 1024;

/// A counter family "prefix.0" ... "prefix.<n-1>": the registry lookup (mutex
/// + string build) is paid once per index at construction, so per-index hot
/// paths — e.g. one counter per shard — increment a cached atomic directly.
/// Construction clamps `n` to `max_index` (logging once to stderr) and any
/// out-of-range at(i) lands on "prefix.overflow".
class IndexedCounters {
 public:
  IndexedCounters(MetricsRegistry& registry, const std::string& prefix, size_t n,
                  size_t max_index = kDefaultMaxIndexedMetrics);

  Counter& at(size_t i) {
    return i < counters_.size() ? *counters_[i] : *overflow_;
  }
  /// Number of dedicated (non-overflow) counters.
  size_t size() const { return counters_.size(); }

 private:
  std::vector<Counter*> counters_;
  Counter* overflow_;
};

/// Histogram family "prefix.0" ... "prefix.<n-1>" with the same caching,
/// clamping, and overflow behaviour as IndexedCounters — e.g. one latency
/// histogram per shard.
class IndexedHistograms {
 public:
  IndexedHistograms(MetricsRegistry& registry, const std::string& prefix,
                    size_t n, size_t max_index = kDefaultMaxIndexedMetrics);

  Histogram& at(size_t i) {
    return i < histograms_.size() ? *histograms_[i] : *overflow_;
  }
  size_t size() const { return histograms_.size(); }

 private:
  std::vector<Histogram*> histograms_;
  Histogram* overflow_;
};

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_METRICS_H_
