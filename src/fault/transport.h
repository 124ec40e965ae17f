/// \file transport.h
/// Deterministic flaky channel between SP and client.
///
/// The channel models a lossy network on the response path: drops (the
/// client times out), duplicate delivery, truncation, byte corruption,
/// reordering (a stale earlier response arrives instead), and injected
/// latency. Every decision is a pure function of the seed. net/chaos.h
/// pushes response frames through it, over live sockets or in memory on a
/// virtual clock; net::RetryingClient is the retry loop that survives it.
#ifndef GEM2_FAULT_TRANSPORT_H_
#define GEM2_FAULT_TRANSPORT_H_

#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace gem2::fault {

struct ChannelOptions {
  double drop_rate = 0.0;       // response lost; client times out
  double corrupt_rate = 0.0;    // 1-4 byte flips in the delivered image
  double truncate_rate = 0.0;   // delivered image cut short
  double duplicate_rate = 0.0;  // response delivered twice
  double reorder_rate = 0.0;    // a previously sent response arrives instead
  uint64_t latency_us = 500;    // per-delivery base latency (virtual)
  uint64_t jitter_us = 200;     // uniform extra latency in [0, jitter_us]
};

struct ChannelStats {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  uint64_t truncated = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;

  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

class FlakyChannel {
 public:
  FlakyChannel(ChannelOptions options, uint64_t seed);

  struct Delivery {
    /// Zero packets = dropped; two = duplicate delivery. Packets may be
    /// corrupted, truncated, or stale (an earlier payload).
    std::vector<Bytes> packets;
    uint64_t latency_us = 0;
  };

  /// One request/response exchange carrying `payload` back to the client.
  Delivery Transmit(const Bytes& payload);

  const ChannelStats& stats() const { return stats_; }

 private:
  ChannelOptions options_;
  Rng rng_;
  ChannelStats stats_;
  Bytes previous_;  // last payload handed to the channel, for reordering
};

}  // namespace gem2::fault

#endif  // GEM2_FAULT_TRANSPORT_H_
