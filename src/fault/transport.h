/// \file transport.h
/// Deterministic flaky transport between client and SP, and the client-side
/// retry policy that survives it.
///
/// The channel models a lossy network on the response path: drops (the
/// client times out), duplicate delivery, truncation, byte corruption,
/// reordering (a stale earlier response arrives instead), and injected
/// latency. Time is *virtual* — microseconds accumulate in the outcome
/// instead of real sleeps — so tests of second-scale deadlines run in
/// microseconds of wall clock and every schedule is a pure function of the
/// seed.
///
/// The client retries under capped exponential backoff with deterministic
/// jitter and a per-query deadline. When the deadline or attempt budget is
/// exhausted it returns a graceful-degradation outcome (ok=false,
/// degraded=true, error populated) — it never hangs and never throws.
#ifndef GEM2_FAULT_TRANSPORT_H_
#define GEM2_FAULT_TRANSPORT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "core/range_store.h"

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

struct RetryPolicy {
  uint32_t max_attempts = 8;
  uint64_t base_backoff_us = 500;
  uint64_t max_backoff_us = 32'000;
  double multiplier = 2.0;
  /// A dropped response costs the client this long before it retries.
  uint64_t attempt_timeout_us = 5'000;
  /// Total virtual-time budget for one query, backoff included.
  uint64_t deadline_us = 200'000;

  /// Backoff before attempt `attempt` (1-based): capped exponential plus
  /// deterministic jitter drawn from `rng` in [0, backoff/2].
  uint64_t BackoffUs(uint32_t attempt, Rng& rng) const;
};

struct ClientOutcome {
  bool ok = false;
  /// Graceful degradation: the client gave up at its deadline or attempt cap
  /// and reports partial failure instead of hanging or throwing.
  bool degraded = false;
  core::VerifiedSpecResult result;
  uint32_t attempts = 0;
  uint64_t elapsed_us = 0;  // virtual time spent, latency + backoff
  std::string error;
};

/// The client half of the protocol under faults: query the SP, push the
/// serialized response through the flaky channel, verify whatever arrives,
/// retry under the policy. Retry counts and backoff land in the telemetry
/// registry (client.retry.*, transport.*). The loop runs in virtual time
/// against a channel, not a socket, so it shares no clock, connection or
/// stale-id handling with net::RetryingSocketClient.
class RetryingClient {
 public:
  RetryingClient(core::RangeStore& db, FlakyChannel& channel,
                 RetryPolicy policy, uint64_t seed);

  /// Sends SpecWire(spec) through the channel and only succeeds when a
  /// delivered packet verifies (VerifySpecWire) against the chain.
  ClientOutcome AuthenticatedSpec(const core::QuerySpec& spec);

 private:
  core::RangeStore& db_;
  FlakyChannel& channel_;
  RetryPolicy policy_;
  Rng rng_;
};

}  // namespace gem2::fault

#endif  // GEM2_FAULT_TRANSPORT_H_
