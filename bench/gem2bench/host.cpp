// Host capacity probe. A container can report more hardware threads than it
// delivers, so every result records the parallel capacity it measured:
// k = nproc spin workers run the same fixed work as one worker alone, and
// effective_cores = k * t(1) / t(k). A run with effective_cores < 2 is
// flagged host_contended (recorded, not a failure).
#include <sys/sysinfo.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gem2bench.h"
#include "host.h"

namespace gem2bench {
namespace {

uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Keeps the spin results observable so the loops are not optimised away.
std::atomic<uint64_t> g_spin_sink{0};

/// Wall time of `k` workers each spinning `iterations`.
uint64_t TimeWorkers(unsigned k, uint64_t iterations) {
  const uint64_t t0 = NowNs();
  std::vector<std::thread> workers;
  for (unsigned i = 0; i < k; ++i) {
    workers.emplace_back([i, iterations] {
      g_spin_sink.fetch_xor(Spin(iterations, i + 1), std::memory_order_relaxed);
    });
  }
  for (std::thread& t : workers) t.join();
  return NowNs() - t0;
}

}  // namespace

HostInfo ProbeHost() {
  HostInfo info;
  info.nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kIterations = 10'000'000;
  // Best of two for each side: a probe measures capacity, not noise.
  const uint64_t t1 = std::min(TimeWorkers(1, kIterations), TimeWorkers(1, kIterations));
  const uint64_t tk = std::min(TimeWorkers(info.nproc, kIterations),
                               TimeWorkers(info.nproc, kIterations));
  info.effective_cores =
      std::min<double>(info.nproc, static_cast<double>(info.nproc) *
                                       static_cast<double>(t1) /
                                       static_cast<double>(std::max<uint64_t>(tk, 1)));
  struct sysinfo si {};
  if (sysinfo(&si) == 0) {
    for (int i = 0; i < 3; ++i) {
      info.loadavg[i] = static_cast<double>(si.loads[i]) / (1 << SI_LOAD_SHIFT);
    }
  }
  info.contended = info.effective_cores < 2.0;
  return info;
}

std::string HostJson(const HostInfo& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"effective_cores\":%.3f,\"nproc\":%u,\"loadavg\":[%.2f,%.2f,%.2f],"
                "\"host_contended\":%s}",
                h.effective_cores, h.nproc, h.loadavg[0], h.loadavg[1],
                h.loadavg[2], h.contended ? "true" : "false");
  return buf;
}

}  // namespace gem2bench
