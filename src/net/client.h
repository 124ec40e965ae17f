/// \file client.h
/// Client-side halves of the frame protocol:
///
///   - FrameClient: a thin synchronous connection (nonblocking socket +
///     poll deadlines underneath) used by tests, the chaos harness, and any
///     caller that wants one request on the wire at a time;
///   - RetryingSocketClient: the fault layer's retry discipline
///     (fault::RetryPolicy — capped exponential backoff with deterministic
///     jitter, per-query deadline, graceful degradation) carried over live
///     sockets: timeouts, kBusy sheds, kError frames, framing damage, and
///     verification failures all trigger a reconnect-and-retry, and the
///     query only succeeds when the response *verifies* against the chain.
///
/// Both are single-threaded objects; the open-loop load harness drives its
/// ten thousand connections through its own epoll loop instead (see
/// bench/service_load.cpp).
#ifndef GEM2_NET_CLIENT_H_
#define GEM2_NET_CLIENT_H_

#include <optional>
#include <string>

#include "common/random.h"
#include "core/range_store.h"
#include "fault/transport.h"
#include "net/frame.h"

namespace gem2::net {

/// One synchronous client connection speaking the frame protocol.
class FrameClient {
 public:
  FrameClient() = default;
  ~FrameClient();

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Connects to 127.0.0.1:`port`. False (with error()) on failure.
  bool Connect(uint16_t port, int timeout_ms = 1000);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends raw bytes, handling partial writes, within `timeout_ms`.
  bool Send(const Bytes& bytes, int timeout_ms = 1000);
  /// Sends a kQuery2 frame carrying a typed spec. Throws
  /// std::invalid_argument for a structurally invalid spec.
  bool SendQuerySpec(uint64_t request_id, const core::QuerySpec& spec,
                     int timeout_ms = 1000);

  /// Blocks until one complete frame arrives or the deadline passes.
  /// std::nullopt on timeout, EOF, or a framing error (error() explains;
  /// the connection is closed on EOF/decode errors, left open on timeout).
  std::optional<Frame> ReadFrame(int timeout_ms);

  const std::string& error() const { return error_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::string error_;
};

/// Outcome of one retried query over sockets; mirrors fault::ClientOutcome
/// with socket-flavoured extras.
struct SocketOutcome {
  bool ok = false;
  /// Graceful degradation: deadline or attempt budget exhausted.
  bool degraded = false;
  core::VerifiedSpecResult result;
  uint32_t attempts = 0;
  uint64_t busy_responses = 0;  ///< kBusy sheds seen along the way
  uint64_t reconnects = 0;
  std::string error;
};

class RetryingSocketClient {
 public:
  /// `verifier` supplies client-side verification (VerifySpecWire) —
  /// typically the same RangeStore the server wraps, playing its client
  /// facet. Backoffs sleep for real microseconds (they are already sub-50ms
  /// capped).
  RetryingSocketClient(core::RangeStore& verifier, uint16_t port,
                       fault::RetryPolicy policy, uint64_t seed);

  /// Sends kQuery2 and only succeeds when the spec answer *verifies*
  /// (VerifySpecWire) against the chain.
  SocketOutcome AuthenticatedSpec(const core::QuerySpec& spec);

  const FrameClient& connection() const { return conn_; }

 private:
  core::RangeStore& verifier_;
  uint16_t port_;
  fault::RetryPolicy policy_;
  Rng rng_;
  FrameClient conn_;
  uint64_t next_request_id_ = 1;
};

}  // namespace gem2::net

#endif  // GEM2_NET_CLIENT_H_
