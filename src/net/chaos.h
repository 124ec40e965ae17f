/// \file chaos.h
/// The fault layer's deterministic flaky-channel operators — drop, truncate,
/// corrupt, reorder/stale, duplicate, latency — replayed against response
/// frames, on two transports:
///
///   - ChaosProxy: a TCP proxy in front of the real SP listener. Requests
///     pass upstream untouched; each complete response frame coming back is
///     pushed through a seeded fault::FlakyChannel and the resulting packets
///     (zero = dropped, two = duplicated, possibly corrupted, truncated, or a
///     stale earlier frame) are delivered downstream after the channel's
///     injected latency, scaled to real time.
///   - MemoryTransport: the RetryingClient's FrameTransport with an
///     in-process core::RangeStore as the SP. Each response frame crosses the
///     channel the same way, and its packets arrive on a virtual clock.
///
/// Because the operators run on the framed bytes, damage lands exactly where
/// a hostile network would put it: in the frame header (client framing fails
/// closed, reconnect + retry) or in the authenticated image (client
/// verification rejects — the 100% forgery-rejection property).
///
/// Every schedule is a pure function of the seed, like every other fault
/// stream (fault.h): a failing chaos run reproduces from the logged seed.
#ifndef GEM2_NET_CHAOS_H_
#define GEM2_NET_CHAOS_H_

#include <cstdint>
#include <map>
#include <memory>

#include "fault/transport.h"
#include "net/client.h"

namespace gem2::net {

struct ChaosOptions {
  /// Per-response-frame fault operators.
  fault::ChannelOptions channel;
  uint64_t seed = 1;
  /// Injected virtual latency is delivered as `latency_us * latency_scale`
  /// real microseconds; 0 delivers immediately.
  double latency_scale = 1.0;
};

class ChaosProxy {
 public:
  /// Proxies 127.0.0.1:<ephemeral> -> 127.0.0.1:upstream_port.
  ChaosProxy(uint16_t upstream_port, ChaosOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  void Start();
  void Stop();

  /// The port clients should connect to (valid after Start()).
  uint16_t port() const;

  /// The underlying channel's operator counts (sent/dropped/corrupted/...).
  fault::ChannelStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The SP in memory, on a virtual clock: time passes only while a read
/// waits for a packet or runs out its budget and while the client backs
/// off. A reconnect drops the packets still in flight.
class MemoryTransport final : public FrameTransport {
 public:
  MemoryTransport(core::RangeStore& sp, fault::FlakyChannel& channel)
      : sp_(sp), channel_(channel) {}

  bool Connect(uint64_t budget_us) override;
  void Close() override;
  bool connected() const override { return connected_; }
  /// Answers each kQuery2 frame with the SP's SpecWire in a kResponse frame.
  bool Send(const Bytes& bytes, uint64_t budget_us) override;
  uint64_t NowUs() override { return now_us_; }
  void SleepUs(uint64_t us) override { now_us_ += us; }

 private:
  bool Receive(uint64_t deadline_us) override;

  core::RangeStore& sp_;
  fault::FlakyChannel& channel_;
  bool connected_ = false;
  uint64_t now_us_ = 0;
  std::multimap<uint64_t, Bytes> in_flight_;  ///< packets by arrival time
};

}  // namespace gem2::net

#endif  // GEM2_NET_CHAOS_H_
