/// \file introspect.h
/// Live introspection surface: renders the process's full observability state
/// — metrics registry, reservoir quantiles, and any registered provider facts
/// (Keccak permutation count, ...) — as Prometheus text
/// exposition or JSON, on demand, at process exit (GEM2_METRICS_DUMP), or on
/// SIGUSR1 (GEM2_INTROSPECT_SIGUSR1 / InstallSigUsr1Dump).
///
/// Providers exist because the telemetry library sits below crypto/chain in
/// the layering: higher layers push callbacks down (RegisterProvider) instead
/// of telemetry reaching up.
#ifndef GEM2_TELEMETRY_INTROSPECT_H_
#define GEM2_TELEMETRY_INTROSPECT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace gem2::telemetry {

/// Snapshot of one subsystem's facts: ("keccak.permutations", 12345), ...
using ProviderFacts = std::vector<std::pair<std::string, uint64_t>>;
using ProviderFn = std::function<ProviderFacts()>;

/// Process-wide set of named fact providers. Registration replaces any
/// previous provider of the same name (idempotent re-registration).
class Introspection {
 public:
  static Introspection& Global();

  void RegisterProvider(const std::string& name, ProviderFn fn);
  void UnregisterProvider(const std::string& name);

  /// Every provider's facts, keys prefixed "provider." and sorted.
  ProviderFacts Collect() const;

 private:
  Introspection() = default;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, ProviderFn>> providers_;
};

/// A metric name as exported to Prometheus: lowercased, '.'/'-' become '_',
/// anything else non-alphanumeric dropped, "gem2_" prefix prepended.
std::string PrometheusName(const std::string& name);

/// Renders `snapshot` plus `facts` in Prometheus text exposition format
/// (counters as <name>_total, histograms as summaries with quantile labels).
std::string PrometheusExposition(const MetricsSnapshot& snapshot,
                                 const ProviderFacts& facts);

/// PrometheusExposition of the global registry and global providers.
std::string PrometheusExposition();

/// Same content as one JSON object (counters/gauges/histograms/providers).
std::string IntrospectionJson();

/// Installs a SIGUSR1 handler (async-signal-safe: it only sets a flag) plus a
/// detached watcher thread that services the flag by writing the current
/// exposition to GEM2_INTROSPECT_PATH (appending) or stderr. Idempotent.
void InstallSigUsr1Dump();

/// Dumps serviced since InstallSigUsr1Dump (lets tests await the watcher).
uint64_t SigUsr1DumpCount();

/// Arms the process-exit and signal hooks from the environment (idempotent;
/// called lazily from MetricsRegistry::Global()):
///   GEM2_METRICS_DUMP=<path>    append a full exposition at process exit
///   GEM2_INTROSPECT_SIGUSR1=1   InstallSigUsr1Dump()
void ArmProcessDumpHooksFromEnv();

}  // namespace gem2::telemetry

#endif  // GEM2_TELEMETRY_INTROSPECT_H_
