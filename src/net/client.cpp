#include "net/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "telemetry/metrics.h"

namespace gem2::net {
namespace {

using Clock = std::chrono::steady_clock;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

}  // namespace

FrameClient::~FrameClient() { Close(); }

void FrameClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

bool FrameClient::Connect(uint16_t port, int timeout_ms) {
  Close();
  error_.clear();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = "socket failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      error_ = std::string("connect: ") + std::strerror(errno);
      Close();
      return false;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) {
      error_ = "connect timed out";
      Close();
      return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      error_ = std::string("connect: ") + std::strerror(err);
      Close();
      return false;
    }
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool FrameClient::Send(const Bytes& bytes, int timeout_ms) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      if (poll(&pfd, 1, RemainingMs(deadline)) <= 0) {
        error_ = "send timed out";
        return false;
      }
      continue;
    }
    error_ = std::string("send: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool FrameClient::SendQuerySpec(uint64_t request_id,
                                const core::QuerySpec& spec, int timeout_ms) {
  return Send(EncodeQuery2Frame(request_id, spec), timeout_ms);
}

std::optional<Frame> FrameClient::ReadFrame(int timeout_ms) {
  if (fd_ < 0) {
    error_ = "not connected";
    return std::nullopt;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  uint8_t buf[64 * 1024];
  Frame frame;
  while (true) {
    switch (decoder_.Next(&frame)) {
      case FrameDecoder::Result::kFrame:
        return frame;
      case FrameDecoder::Result::kError:
        error_ = "framing error: " + decoder_.error();
        Close();
        return std::nullopt;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    const int wait_ms = RemainingMs(deadline);
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = poll(&pfd, 1, wait_ms);
    if (pr <= 0) {
      error_ = "read timed out";
      return std::nullopt;
    }
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    error_ = n == 0 ? "connection closed by server"
                    : std::string("read: ") + std::strerror(errno);
    Close();
    return std::nullopt;
  }
}

RetryingSocketClient::RetryingSocketClient(core::RangeStore& verifier,
                                           uint16_t port,
                                           fault::RetryPolicy policy,
                                           uint64_t seed)
    : verifier_(verifier), port_(port), policy_(policy), rng_(seed) {}

SocketOutcome RetryingSocketClient::AuthenticatedSpec(
    const core::QuerySpec& spec) {
  SocketOutcome outcome;
  std::string last_error = "no attempt made";
  auto& metrics = telemetry::MetricsRegistry::Global();
  const auto deadline =
      Clock::now() + std::chrono::microseconds(policy_.deadline_us);
  const int attempt_ms = static_cast<int>(
      std::max<uint64_t>(1, policy_.attempt_timeout_us / 1000));

  while (outcome.attempts < policy_.max_attempts && Clock::now() < deadline) {
    ++outcome.attempts;
    if (!conn_.connected()) {
      ++outcome.reconnects;
      if (!conn_.Connect(port_, attempt_ms)) {
        last_error = conn_.error();
        metrics.counter("client.socket.connect_failures").Add(1);
        continue;
      }
    }
    const uint64_t request_id = next_request_id_++;
    if (!conn_.SendQuerySpec(request_id, spec, attempt_ms)) {
      last_error = conn_.error();
      conn_.Close();
      continue;
    }
    // Pull frames until ours arrives: a stale (reordered or duplicated)
    // frame answering an earlier request id is skipped, not trusted. Every
    // read is budgeted against the overall deadline so a server streaming
    // mismatched ids cannot stretch one attempt past policy_.deadline_us.
    std::optional<Frame> frame;
    bool deadline_hit = false;
    while (true) {
      const int wait_ms = std::min(attempt_ms, RemainingMs(deadline));
      if (wait_ms <= 0) {
        deadline_hit = true;
        break;
      }
      frame = conn_.ReadFrame(wait_ms);
      if (!frame.has_value() || frame->request_id == request_id) break;
      metrics.counter("client.socket.stale_responses").Add(1);
      frame.reset();  // never act on a stale frame left behind at deadline
    }
    if (deadline_hit) {
      last_error = "overall deadline exceeded while awaiting response";
      conn_.Close();
    } else if (!frame.has_value()) {
      last_error = conn_.error();
      // Timeouts keep the connection; decode errors already closed it. Reset
      // on timeout too: a half-delivered frame would desync the stream.
      conn_.Close();
    } else if (frame->type == FrameType::kBusy) {
      ++outcome.busy_responses;
      last_error = "server busy (load shed)";
      metrics.counter("client.socket.busy").Add(1);
    } else if (frame->type == FrameType::kError) {
      last_error = "server error: " +
                   std::string(frame->body.begin(), frame->body.end());
      metrics.counter("client.socket.server_errors").Add(1);
    } else if (frame->type == FrameType::kResponse) {
      core::VerifiedSpecResult vr = verifier_.VerifySpecWire(spec, frame->body);
      if (vr.ok) {
        outcome.ok = true;
        outcome.result = std::move(vr);
        break;
      }
      last_error = vr.error;
      metrics.counter("client.socket.verify_rejected").Add(1);
    } else {
      last_error = "unexpected frame type from server";
      conn_.Close();
    }

    if (outcome.attempts < policy_.max_attempts && Clock::now() < deadline) {
      const uint64_t backoff_us = policy_.BackoffUs(outcome.attempts, rng_);
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }

  metrics.counter("client.socket.attempts").Add(outcome.attempts);
  if (!outcome.ok) {
    outcome.degraded = true;
    outcome.error = "degraded after " + std::to_string(outcome.attempts) +
                    " attempts: " + last_error;
    metrics.counter("client.socket.degraded").Add(1);
  } else if (outcome.attempts > 1) {
    metrics.counter("client.socket.recovered").Add(1);
  }
  return outcome;
}

}  // namespace gem2::net
