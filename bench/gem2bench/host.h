/// \file host.h
/// Host capacity probe recorded in every result's `host` block.
#ifndef GEM2BENCH_HOST_H_
#define GEM2BENCH_HOST_H_

#include <string>

namespace gem2bench {

struct HostInfo {
  unsigned nproc = 1;
  double effective_cores = 1;
  double loadavg[3] = {0, 0, 0};
  bool contended = false;  // effective_cores < 2
};

HostInfo ProbeHost();
std::string HostJson(const HostInfo& host);

}  // namespace gem2bench

#endif  // GEM2BENCH_HOST_H_
