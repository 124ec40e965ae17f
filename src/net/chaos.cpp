#include "net/chaos.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <queue>
#include <system_error>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace gem2::net {
namespace {

using Clock = std::chrono::steady_clock;

int MakeListener(uint16_t port, uint16_t* bound) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 128) != 0) {
    const int saved = errno;
    close(fd);
    throw std::system_error(saved, std::generic_category(), "bind/listen");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound = ntohs(addr.sin_port);
  return fd;
}

int ConnectUpstream(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Nonblocking from here on; the connect itself was allowed to block (the
  // upstream listener is in-process and always accepting).
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Pushes one response frame through `channel`: the packets delivered in
/// its place and their latency.
fault::FlakyChannel::Delivery TransmitFrame(fault::FlakyChannel& channel,
                                            const Frame& frame) {
  return channel.Transmit(EncodeFrame(frame.type, frame.request_id, frame.body));
}

}  // namespace

struct ChaosProxy::Impl {
  uint16_t upstream_port;
  ChaosOptions options;

  int listen_fd = -1;
  uint16_t bound_port = 0;

  mutable std::mutex channel_mutex;
  fault::FlakyChannel channel;

  struct Pair {
    uint64_t id = 0;
    int down_fd = -1;
    int up_fd = -1;
    FrameDecoder up_decoder;  ///< reassembles upstream response frames
    Bytes down_out;           ///< bytes owed to the client
    size_t down_off = 0;
    Bytes up_out;  ///< bytes owed to the server
    size_t up_off = 0;
  };
  std::map<uint64_t, Pair> pairs;
  uint64_t next_pair_id = 1;

  /// A packet the channel delayed: delivered to `pair_id`'s client at
  /// `due`. The heap keeps cross-connection delivery order honest.
  struct Delayed {
    Clock::time_point due;
    uint64_t pair_id;
    Bytes bytes;
    bool operator>(const Delayed& o) const { return due > o.due; }
  };
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed;

  std::atomic<bool> stop{false};
  std::thread thread;
  bool started = false;

  Impl(uint16_t up, ChaosOptions opts)
      : upstream_port(up),
        options(opts),
        channel(opts.channel, opts.seed) {}

  void ClosePair(Pair& pair) {
    if (pair.down_fd >= 0) close(pair.down_fd);
    if (pair.up_fd >= 0) close(pair.up_fd);
    pairs.erase(pair.id);
  }

  /// Feeds one upstream read through the frame decoder and the flaky
  /// channel, scheduling the surviving packets for downstream delivery.
  bool MangleUpstream(Pair& pair, const uint8_t* data, size_t len) {
    pair.up_decoder.Feed(data, len);
    Frame frame;
    while (true) {
      const FrameDecoder::Result r = pair.up_decoder.Next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) return true;
      if (r == FrameDecoder::Result::kError) return false;  // server bug; drop pair
      fault::FlakyChannel::Delivery delivery;
      {
        std::lock_guard<std::mutex> lock(channel_mutex);
        delivery = TransmitFrame(channel, frame);
      }
      const auto due =
          Clock::now() + std::chrono::microseconds(static_cast<uint64_t>(
                             static_cast<double>(delivery.latency_us) *
                             options.latency_scale));
      for (Bytes& packet : delivery.packets) {
        delayed.push(Delayed{due, pair.id, std::move(packet)});
      }
    }
  }

  /// Flushes as much of `buf` (from `*off`) as the socket accepts.
  /// Returns false on a hard error.
  static bool FlushBuffer(int fd, Bytes& buf, size_t* off) {
    while (*off < buf.size()) {
      const ssize_t n = send(fd, buf.data() + *off, buf.size() - *off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        *off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (*off == buf.size()) {
      buf.clear();
      *off = 0;
    }
    return true;
  }

  void DeliverDue() {
    const auto now = Clock::now();
    while (!delayed.empty() && delayed.top().due <= now) {
      const Delayed& d = delayed.top();
      auto it = pairs.find(d.pair_id);
      if (it != pairs.end()) {
        it->second.down_out.insert(it->second.down_out.end(), d.bytes.begin(),
                                   d.bytes.end());
      }
      delayed.pop();
    }
  }

  void Loop() {
    std::vector<pollfd> fds;
    std::vector<std::pair<uint64_t, bool>> owners;  // pair id, is_down
    uint8_t buf[64 * 1024];
    while (!stop.load(std::memory_order_acquire)) {
      DeliverDue();
      // Flush pending buffers opportunistically, then poll on what remains.
      fds.clear();
      owners.clear();
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      owners.emplace_back(0, false);
      for (auto& [id, pair] : pairs) {
        short down_ev = POLLIN;
        if (!pair.down_out.empty()) down_ev |= POLLOUT;
        fds.push_back(pollfd{pair.down_fd, down_ev, 0});
        owners.emplace_back(id, true);
        short up_ev = POLLIN;
        if (!pair.up_out.empty()) up_ev |= POLLOUT;
        fds.push_back(pollfd{pair.up_fd, up_ev, 0});
        owners.emplace_back(id, false);
      }
      int timeout_ms = 50;
      if (!delayed.empty()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
            delayed.top().due - Clock::now());
        timeout_ms = std::clamp<int>(static_cast<int>(until.count()), 0, 50);
      }
      const int pr = poll(fds.data(), fds.size(), timeout_ms);
      if (pr < 0 && errno != EINTR) break;
      if (pr <= 0) continue;

      // Accept new client connections, pairing each with its own upstream.
      if (fds[0].revents & POLLIN) {
        while (true) {
          const int down = accept4(listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (down < 0) break;
          const int one = 1;
          setsockopt(down, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          const int up = ConnectUpstream(upstream_port);
          if (up < 0) {
            close(down);
            continue;
          }
          Pair pair;
          pair.id = next_pair_id++;
          pair.down_fd = down;
          pair.up_fd = up;
          pairs.emplace(pair.id, std::move(pair));
        }
      }

      std::vector<uint64_t> dead;
      for (size_t i = 1; i < fds.size(); ++i) {
        const auto [id, is_down] = owners[i];
        auto it = pairs.find(id);
        if (it == pairs.end()) continue;
        Pair& pair = it->second;
        const short revents = fds[i].revents;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // Half-close tolerance is not worth modelling here: a chaos pair
          // dies as a unit and the retrying client reconnects.
          if ((revents & (POLLERR | POLLNVAL)) ||
              (is_down ? pair.down_out.empty() : true)) {
            dead.push_back(id);
            continue;
          }
        }
        if (revents & POLLIN) {
          const int fd = is_down ? pair.down_fd : pair.up_fd;
          while (true) {
            const ssize_t n = read(fd, buf, sizeof(buf));
            if (n > 0) {
              bool ok = true;
              if (is_down) {
                // Requests pass through unmodified.
                pair.up_out.insert(pair.up_out.end(), buf, buf + n);
              } else {
                ok = MangleUpstream(pair, buf, static_cast<size_t>(n));
              }
              if (!ok) {
                dead.push_back(id);
                break;
              }
              if (n == static_cast<ssize_t>(sizeof(buf))) continue;
              break;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            dead.push_back(id);
            break;
          }
        }
      }
      for (uint64_t id : dead) {
        auto it = pairs.find(id);
        if (it != pairs.end()) ClosePair(it->second);
      }

      DeliverDue();
      std::vector<uint64_t> write_dead;
      for (auto& [id, pair] : pairs) {
        if (!FlushBuffer(pair.up_fd, pair.up_out, &pair.up_off) ||
            !FlushBuffer(pair.down_fd, pair.down_out, &pair.down_off)) {
          write_dead.push_back(id);
        }
      }
      for (uint64_t id : write_dead) {
        auto it = pairs.find(id);
        if (it != pairs.end()) ClosePair(it->second);
      }
    }
    for (auto it = pairs.begin(); it != pairs.end();) {
      Pair& pair = (it++)->second;
      ClosePair(pair);
    }
    if (listen_fd >= 0) {
      close(listen_fd);
      listen_fd = -1;
    }
  }
};

ChaosProxy::ChaosProxy(uint16_t upstream_port, ChaosOptions options)
    : impl_(std::make_unique<Impl>(upstream_port, options)) {}

ChaosProxy::~ChaosProxy() { Stop(); }

void ChaosProxy::Start() {
  if (impl_->started) return;
  impl_->listen_fd = MakeListener(0, &impl_->bound_port);
  impl_->started = true;
  impl_->thread = std::thread([this] { impl_->Loop(); });
}

void ChaosProxy::Stop() {
  if (!impl_->started) return;
  impl_->stop.store(true, std::memory_order_release);
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->started = false;
}

uint16_t ChaosProxy::port() const { return impl_->bound_port; }

fault::ChannelStats ChaosProxy::stats() const {
  std::lock_guard<std::mutex> lock(impl_->channel_mutex);
  return impl_->channel.stats();
}

bool MemoryTransport::Connect(uint64_t) {
  Close();
  connected_ = true;
  return true;
}

void MemoryTransport::Close() {
  connected_ = false;
  in_flight_.clear();
  decoder_ = FrameDecoder();
}

bool MemoryTransport::Send(const Bytes& bytes, uint64_t) {
  FrameDecoder requests;
  requests.Feed(bytes.data(), bytes.size());
  Frame request;
  while (requests.Next(&request) == FrameDecoder::Result::kFrame) {
    const std::optional<core::QuerySpec> spec = ParseQuery2Body(request.body);
    if (request.type != FrameType::kQuery2 || !spec.has_value()) {
      error_ = "not a query frame";
      return false;
    }
    const fault::FlakyChannel::Delivery delivery = TransmitFrame(
        channel_, {FrameType::kResponse, request.request_id, sp_.SpecWire(*spec)});
    for (const Bytes& packet : delivery.packets) {
      in_flight_.emplace(now_us_ + delivery.latency_us, packet);
    }
  }
  return true;
}

bool MemoryTransport::Receive(uint64_t deadline_us) {
  const auto next = in_flight_.begin();
  if (next == in_flight_.end() || next->first > deadline_us) {
    now_us_ = std::max(now_us_, deadline_us);
    error_ = "read timed out";
    return false;
  }
  now_us_ = std::max(now_us_, next->first);
  decoder_.Feed(next->second.data(), next->second.size());
  in_flight_.erase(next);
  return true;
}

}  // namespace gem2::net
