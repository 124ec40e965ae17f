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

/// The time left until `deadline_us` in whole milliseconds for poll(),
/// rounded down so a wait never outlasts its deadline.
int PollMs(uint64_t deadline_us, uint64_t now_us) {
  return deadline_us <= now_us
             ? 0
             : static_cast<int>(std::min<uint64_t>((deadline_us - now_us) / 1000, 1u << 30));
}

}  // namespace

std::optional<Frame> FrameTransport::ReadFrame(uint64_t budget_us) {
  if (!connected()) {
    error_ = "not connected";
    return std::nullopt;
  }
  const uint64_t deadline_us = NowUs() + budget_us;
  Frame frame;
  while (true) {
    const FrameDecoder::Result next = decoder_.Next(&frame);
    if (next == FrameDecoder::Result::kFrame) return frame;
    if (next == FrameDecoder::Result::kError) {
      error_ = "framing error: " + decoder_.error();
      Close();
      return std::nullopt;
    }
    if (!Receive(deadline_us)) return std::nullopt;
  }
}

FrameClient::~FrameClient() { Close(); }

void FrameClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

bool FrameClient::Fail(std::string message) {
  error_ = std::move(message);
  Close();
  return false;
}

uint64_t FrameClient::NowUs() {
  using std::chrono::microseconds;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(std::chrono::duration_cast<microseconds>(now).count());
}

void FrameClient::SleepUs(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool FrameClient::Connect(uint64_t budget_us) {
  Close();
  error_.clear();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Fail("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return Fail(std::string("connect: ") + std::strerror(errno));
    pollfd pfd{fd_, POLLOUT, 0};
    if (poll(&pfd, 1, PollMs(budget_us, 0)) <= 0) return Fail("connect timed out");
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) return Fail(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool FrameClient::Send(const Bytes& bytes, uint64_t budget_us) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  const uint64_t deadline_us = NowUs() + budget_us;
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
      if (poll(&pfd, 1, PollMs(deadline_us, NowUs())) <= 0) {
        error_ = "send timed out";
        return false;
      }
      continue;
    }
    return Fail(std::string("send: ") + std::strerror(errno));
  }
  return true;
}

bool FrameClient::Receive(uint64_t deadline_us) {
  pollfd pfd{fd_, POLLIN, 0};
  if (poll(&pfd, 1, PollMs(deadline_us, NowUs())) <= 0) {
    error_ = "read timed out";
    return false;
  }
  uint8_t buf[64 * 1024];
  const ssize_t n = read(fd_, buf, sizeof(buf));
  if (n > 0) {
    decoder_.Feed(buf, static_cast<size_t>(n));
    return true;
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
  return Fail(n == 0 ? "connection closed by server"
                     : std::string("read: ") + std::strerror(errno));
}

uint64_t RetryPolicy::BackoffUs(uint32_t attempt, Rng& rng) const {
  double backoff = static_cast<double>(base_backoff_us);
  for (uint32_t i = 1; i < attempt; ++i) {
    backoff *= multiplier;
    if (backoff >= static_cast<double>(max_backoff_us)) break;
  }
  uint64_t capped = std::min(static_cast<uint64_t>(backoff), max_backoff_us);
  if (capped > 1) capped += rng.Uniform(0, capped / 2);
  return std::min(capped, max_backoff_us + max_backoff_us / 2);
}

RetryingClient::RetryingClient(core::RangeStore& verifier,
                               std::unique_ptr<FrameTransport> transport,
                               RetryPolicy policy, uint64_t seed)
    : verifier_(verifier),
      transport_(std::move(transport)),
      policy_(policy),
      rng_(seed) {}

ClientOutcome RetryingClient::AuthenticatedSpec(const core::QuerySpec& spec) {
  ClientOutcome outcome;
  std::string last_error = "no attempt made";
  auto& metrics = telemetry::MetricsRegistry::Global();
  FrameTransport& conn = *transport_;
  const uint64_t start_us = conn.NowUs();
  const uint64_t deadline_us = start_us + policy_.deadline_us;
  auto remaining_us = [&] {
    const uint64_t now = conn.NowUs();
    return now < deadline_us ? deadline_us - now : 0;
  };

  while (outcome.attempts < policy_.max_attempts && remaining_us() > 0) {
    ++outcome.attempts;
    if (!conn.connected()) {
      if (connects_++ > 0) ++outcome.reconnects;
      if (!conn.Connect(policy_.attempt_timeout_us)) {
        last_error = conn.error();
        metrics.counter("client.retry.connect_failures").Add(1);
        continue;
      }
    }
    const uint64_t request_id = next_request_id_++;
    if (!conn.Send(EncodeQuery2Frame(request_id, spec), policy_.attempt_timeout_us)) {
      last_error = conn.error();
      conn.Close();
      continue;
    }
    // Pull frames until ours arrives: a stale (reordered or duplicated)
    // frame answering an earlier request id is skipped, not trusted. Every
    // read is budgeted against the overall deadline so a server streaming
    // mismatched ids cannot stretch one attempt past policy_.deadline_us.
    std::optional<Frame> frame;
    bool deadline_hit = false;
    while (true) {
      const uint64_t wait_us = std::min(policy_.attempt_timeout_us, remaining_us());
      if (wait_us == 0) {
        deadline_hit = true;
        break;
      }
      frame = conn.ReadFrame(wait_us);
      if (!frame.has_value() || frame->request_id == request_id) break;
      metrics.counter("client.retry.stale_responses").Add(1);
      frame.reset();  // never act on a stale frame left behind at deadline
    }
    if (deadline_hit) {
      last_error = "overall deadline exceeded while awaiting response";
      metrics.counter("client.retry.timeouts").Add(1);
      conn.Close();
    } else if (!frame.has_value()) {
      last_error = conn.error();
      // Timeouts keep the connection; decode errors and EOF already closed
      // it. Reset on timeout too: a half-delivered frame would desync the
      // stream.
      metrics.counter(conn.connected() ? "client.retry.timeouts"
                                       : "client.retry.framing_errors")
          .Add(1);
      conn.Close();
    } else if (frame->type == FrameType::kBusy) {
      ++outcome.busy_responses;
      last_error = "server busy (load shed)";
      metrics.counter("client.retry.busy").Add(1);
    } else if (frame->type == FrameType::kError) {
      last_error = "server error: " +
                   std::string(frame->body.begin(), frame->body.end());
      metrics.counter("client.retry.server_errors").Add(1);
    } else if (frame->type == FrameType::kResponse) {
      core::VerifiedSpecResult vr = verifier_.VerifySpecWire(spec, frame->body);
      if (vr.ok) {
        outcome.ok = true;
        outcome.result = std::move(vr);
        break;
      }
      // Fail closed on the stream too: a rejected frame may have been
      // completed by a torn duplicate's bytes, and what is left of those
      // would desync the next attempt.
      last_error = vr.error;
      metrics.counter("client.retry.verify_rejected").Add(1);
      conn.Close();
    } else {
      last_error = "unexpected frame type from server";
      conn.Close();
    }

    if (outcome.attempts < policy_.max_attempts && remaining_us() > 0) {
      const uint64_t backoff_us = policy_.BackoffUs(outcome.attempts, rng_);
      metrics.counter("client.retry.backoff_us").Add(backoff_us);
      conn.SleepUs(backoff_us);
    }
  }

  outcome.elapsed_us = conn.NowUs() - start_us;
  metrics.counter("client.retry.attempts").Add(outcome.attempts);
  if (!outcome.ok) {
    outcome.degraded = true;
    outcome.error = "degraded after " + std::to_string(outcome.attempts) +
                    " attempts (" + std::to_string(outcome.elapsed_us) +
                    "us elapsed): " + last_error;
    metrics.counter("client.retry.degraded").Add(1);
  } else if (outcome.attempts > 1) {
    metrics.counter("client.retry.recovered").Add(1);
  }
  return outcome;
}

}  // namespace gem2::net
