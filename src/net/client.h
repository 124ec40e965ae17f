/// \file client.h
/// The client half of the frame protocol: one retry loop (RetryingClient)
/// over a frame transport. FrameClient is the socket transport on the real
/// clock; MemoryTransport (net/chaos.h) answers from an
/// in-process store through a fault::FlakyChannel on a virtual clock. The
/// open-loop load harness drives its ten thousand connections through its
/// own epoll loop instead (see bench/service_load.cpp).
#ifndef GEM2_NET_CLIENT_H_
#define GEM2_NET_CLIENT_H_

#include <memory>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/range_store.h"
#include "net/frame.h"

namespace gem2::net {

/// One connection to the SP at a time. Every budget is in microseconds of
/// the transport's own clock.
class FrameTransport {
 public:
  FrameTransport() = default;
  FrameTransport(const FrameTransport&) = delete;
  FrameTransport& operator=(const FrameTransport&) = delete;
  virtual ~FrameTransport() = default;

  /// Opens a fresh connection; whatever the old one had in flight is lost.
  /// False (with error()) on failure.
  virtual bool Connect(uint64_t budget_us) = 0;
  virtual void Close() = 0;
  virtual bool connected() const = 0;
  /// Sends encoded frames (EncodeFrame, EncodeQuery2Frame). False (with
  /// error()) on failure.
  virtual bool Send(const Bytes& bytes, uint64_t budget_us) = 0;
  virtual uint64_t NowUs() = 0;
  virtual void SleepUs(uint64_t us) = 0;

  /// Waits until one complete frame arrives or the budget passes.
  /// std::nullopt on timeout, EOF, or a framing error (error() explains;
  /// the connection is closed on EOF/decode errors, left open on timeout).
  std::optional<Frame> ReadFrame(uint64_t budget_us);

  const std::string& error() const { return error_; }

 protected:
  /// Feeds decoder_ the next bytes that arrive by `deadline_us`. False, with
  /// error_ set, when none do or the connection died (then closed).
  virtual bool Receive(uint64_t deadline_us) = 0;

  FrameDecoder decoder_;
  std::string error_;
};

/// A socket to 127.0.0.1:`port` on the steady clock; budgets round down to
/// whole milliseconds for poll().
class FrameClient final : public FrameTransport {
 public:
  explicit FrameClient(uint16_t port) : port_(port) {}
  ~FrameClient() override;

  bool Connect(uint64_t budget_us) override;
  void Close() override;
  bool connected() const override { return fd_ >= 0; }
  bool Send(const Bytes& bytes, uint64_t budget_us) override;
  uint64_t NowUs() override;
  void SleepUs(uint64_t us) override;

 private:
  bool Receive(uint64_t deadline_us) override;
  /// Records `message`, closes the socket and returns false.
  bool Fail(std::string message);

  uint16_t port_;
  int fd_ = -1;
};

struct RetryPolicy {
  uint32_t max_attempts = 8;
  uint64_t base_backoff_us = 500;
  uint64_t max_backoff_us = 32'000;
  double multiplier = 2.0;
  /// Longest wait for one response (or one connect) before the client
  /// gives the attempt up.
  uint64_t attempt_timeout_us = 5'000;
  /// Total budget for one query, backoff included.
  uint64_t deadline_us = 200'000;

  /// Backoff before attempt `attempt` (1-based): capped exponential plus
  /// deterministic jitter drawn from `rng` in [0, backoff/2].
  uint64_t BackoffUs(uint32_t attempt, Rng& rng) const;
};

/// Outcome of one retried query.
struct [[nodiscard]] ClientOutcome {
  bool ok = false;
  /// Graceful degradation: the client gave up at its deadline or attempt cap
  /// and reports partial failure instead of hanging or throwing.
  bool degraded = false;
  core::VerifiedSpecResult result;
  uint32_t attempts = 0;
  uint64_t elapsed_us = 0;      ///< transport clock, waits and backoff
  uint64_t busy_responses = 0;  ///< kBusy sheds seen along the way
  uint64_t reconnects = 0;      ///< connections opened after the first
  std::string error;
};

/// The retry discipline: capped exponential backoff with deterministic
/// jitter under a per-query deadline, then graceful degradation. Timeouts,
/// kBusy sheds, kError frames, framing damage and verification failures all
/// cost an attempt, and all but kBusy and kError the connection too; a frame
/// answering an earlier request id is skipped.
class RetryingClient {
 public:
  /// `verifier` supplies client-side verification (VerifySpecWire):
  /// typically the same RangeStore the SP wraps, playing its client facet.
  RetryingClient(core::RangeStore& verifier,
                 std::unique_ptr<FrameTransport> transport, RetryPolicy policy,
                 uint64_t seed);
  /// Over a socket to 127.0.0.1:`port`.
  RetryingClient(core::RangeStore& verifier, uint16_t port, RetryPolicy policy,
                 uint64_t seed)
      : RetryingClient(verifier, std::make_unique<FrameClient>(port), policy,
                       seed) {}

  /// Sends kQuery2 and only succeeds when the spec answer *verifies*
  /// (VerifySpecWire) against the chain. Counters land in the telemetry
  /// registry under client.retry.*.
  ClientOutcome AuthenticatedSpec(const core::QuerySpec& spec);

 private:
  core::RangeStore& verifier_;
  std::unique_ptr<FrameTransport> transport_;
  RetryPolicy policy_;
  Rng rng_;
  uint64_t next_request_id_ = 1;
  uint64_t connects_ = 0;
};

}  // namespace gem2::net

#endif  // GEM2_NET_CLIENT_H_
