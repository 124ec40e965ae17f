#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/query_engine.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "telemetry/introspect.h"
#include "telemetry/metrics.h"

namespace gem2::net {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

constexpr uint64_t kListenTag = 0;
constexpr size_t kReadChunk = 64 * 1024;

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

struct SpServer::Impl {
  core::SpQueryEngine& engine;
  ServerOptions options;

  // --- sockets & reactor (reactor thread only, after Start) ---------------
  int listen_fd = -1;
  /// Reserved descriptor released under EMFILE/ENFILE so queued connections
  /// can still be accepted (and immediately closed) instead of stranding the
  /// edge-triggered listener until a fresh SYN arrives.
  int idle_fd = -1;
  uint16_t bound_port = 0;
  Reactor reactor;

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    /// Outbound frames; the front buffer is written from `out_offset`.
    std::deque<Bytes> outbound;
    size_t out_offset = 0;
    size_t outbound_bytes = 0;
    /// Queries admitted on this connection and not yet delivered.
    uint32_t inflight = 0;
    bool out_armed = false;     ///< EPOLLOUT currently requested
    bool read_closed = false;   ///< peer sent FIN; it may still be reading
    bool closing = false;       ///< close as soon as outbound drains
    bool protocol_dead = false; ///< framing error: ignore further input
  };

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_conn_id = 1;

  // --- admitted-query queue (reactor -> workers) --------------------------
  struct Request {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    core::QuerySpec spec;
    uint64_t admitted_ns = 0;
  };
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Request> queue;
  bool workers_stop = false;

  // --- completion queue (workers -> reactor) ------------------------------
  struct Completion {
    uint64_t conn_id = 0;
    Bytes frame;
  };
  std::mutex completion_mutex;
  std::vector<Completion> completions;

  /// Admitted queries whose response has not yet been appended to a
  /// connection buffer (or dropped with it). This is the admission gauge.
  std::atomic<size_t> in_flight{0};

  std::atomic<bool> stopping{false};
  std::atomic<bool> started{false};
  std::atomic<bool> joined{false};
  std::thread reactor_thread;
  std::vector<std::thread> workers;

  // --- per-server stats (mirrored into the global service.* metrics) ------
  std::atomic<uint64_t> accepted{0}, active{0}, requests{0}, responses{0},
      shed{0}, protocol_errors{0}, disconnected_slow{0}, disconnected_eof{0},
      rejected_connections{0};

  telemetry::Counter* m_accepted;
  telemetry::Counter* m_requests;
  telemetry::Counter* m_responses;
  telemetry::Counter* m_shed;
  telemetry::Counter* m_protocol_errors;
  telemetry::Counter* m_disc_slow;
  telemetry::Counter* m_disc_eof;
  telemetry::Counter* m_rejected;
  telemetry::Gauge* m_active;
  telemetry::Gauge* m_in_flight;
  telemetry::Histogram* m_request_ns;

  Impl(core::SpQueryEngine& eng, ServerOptions opts)
      : engine(eng), options(opts) {
    auto& reg = telemetry::MetricsRegistry::Global();
    m_accepted = &reg.counter("service.accepted");
    m_requests = &reg.counter("service.requests");
    m_responses = &reg.counter("service.responses");
    m_shed = &reg.counter("service.shed");
    m_protocol_errors = &reg.counter("service.protocol_errors");
    m_disc_slow = &reg.counter("service.disconnect.slow");
    m_disc_eof = &reg.counter("service.disconnect.eof");
    m_rejected = &reg.counter("service.rejected_connections");
    m_active = &reg.gauge("service.active");
    m_in_flight = &reg.gauge("service.in_flight");
    m_request_ns = &reg.histogram("service.request_ns.query");
  }

  // ------------------------------------------------------------------ setup

  void Bind() {
    listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) ThrowErrno("socket");
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int saved = errno;
      close(listen_fd);
      listen_fd = -1;
      errno = saved;
      ThrowErrno("bind");
    }
    if (listen(listen_fd, options.listen_backlog) != 0) {
      const int saved = errno;
      close(listen_fd);
      listen_fd = -1;
      errno = saved;
      ThrowErrno("listen");
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);
    idle_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
  }

  // ------------------------------------------------------- reactor-side ops

  Conn* Lookup(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  void CloseConn(Conn* conn) {
    reactor.Remove(conn->fd);
    close(conn->fd);
    active.fetch_sub(1, std::memory_order_relaxed);
    m_active->Add(-1);
    conns.erase(conn->id);  // destroys *conn
  }

  void AcceptLoop() {
    while (true) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == ECONNABORTED) continue;  // peer aborted; keep accepting
        if (errno == EMFILE || errno == ENFILE) {
          rejected_connections.fetch_add(1, std::memory_order_relaxed);
          m_rejected->Add(1);
          // Out of descriptors. Release the reserve fd, accept-and-close one
          // queued connection, then re-reserve; otherwise the edge-triggered
          // listener never fires again for connections already in the backlog.
          if (idle_fd >= 0) {
            close(idle_fd);
            idle_fd = -1;
            const int pending =
                accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (pending >= 0) close(pending);
            idle_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
            if (pending >= 0) continue;  // keep draining the backlog
          }
          return;
        }
        return;
      }
      if (conns.size() >= options.max_connections) {
        close(fd);
        rejected_connections.fetch_add(1, std::memory_order_relaxed);
        m_rejected->Add(1);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->decoder = FrameDecoder(options.max_frame_bytes);
      reactor.Add(fd, EPOLLIN, conn->id);
      accepted.fetch_add(1, std::memory_order_relaxed);
      active.fetch_add(1, std::memory_order_relaxed);
      m_accepted->Add(1);
      m_active->Add(1);
      conns.emplace(conn->id, std::move(conn));
    }
  }

  /// Appends a frame to the connection's bounded outbound buffer, enforcing
  /// the slow-client bound, and flushes as much as the socket accepts.
  /// Returns false when the append disconnected the client.
  bool AppendOutbound(Conn* conn, Bytes&& frame) {
    if (conn->outbound_bytes + frame.size() > options.max_outbound_bytes) {
      disconnected_slow.fetch_add(1, std::memory_order_relaxed);
      m_disc_slow->Add(1);
      CloseConn(conn);
      return false;
    }
    conn->outbound_bytes += frame.size();
    conn->outbound.push_back(std::move(frame));
    return Flush(conn);
  }

  /// Writes until EAGAIN or the buffer drains; arms/disarms EPOLLOUT as
  /// needed and completes a deferred close once drained. Returns false when
  /// the connection was closed.
  bool Flush(Conn* conn) {
    while (!conn->outbound.empty()) {
      const Bytes& front = conn->outbound.front();
      const ssize_t n =
          send(conn->fd, front.data() + conn->out_offset,
               front.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(conn);
        return false;
      }
      conn->out_offset += static_cast<size_t>(n);
      conn->outbound_bytes -= static_cast<size_t>(n);
      if (conn->out_offset == front.size()) {
        conn->outbound.pop_front();
        conn->out_offset = 0;
      }
    }
    const bool want_out = !conn->outbound.empty();
    if (want_out != conn->out_armed) {
      conn->out_armed = want_out;
      reactor.Modify(conn->fd, want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN,
                     conn->id);
    }
    if (!want_out && conn->closing && conn->inflight == 0) {
      CloseConn(conn);
      return false;
    }
    return true;
  }

  /// Framing/protocol violation: answer kError, then close once it flushes.
  void ProtocolError(Conn* conn, uint64_t request_id, const std::string& why) {
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    m_protocol_errors->Add(1);
    conn->protocol_dead = true;
    conn->closing = true;
    Bytes body(why.begin(), why.end());
    AppendOutbound(conn, EncodeFrame(FrameType::kError, request_id, body));
  }

  /// Admission control: past the in-flight bound (or during shutdown) the
  /// client gets an explicit kBusy frame — visible shed, never a silent
  /// drop, and the reactor thread never computes a query itself. Returns
  /// false when the request was shed (the connection may be gone).
  bool Admit(Conn* conn, uint64_t request_id) {
    requests.fetch_add(1, std::memory_order_relaxed);
    m_requests->Add(1);
    size_t current = in_flight.load(std::memory_order_relaxed);
    bool admitted = false;
    while (!stopping.load(std::memory_order_relaxed) &&
           current < options.max_in_flight) {
      if (in_flight.compare_exchange_weak(current, current + 1,
                                          std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      shed.fetch_add(1, std::memory_order_relaxed);
      m_shed->Add(1);
      AppendOutbound(conn, EncodeFrame(FrameType::kBusy, request_id, {}));
      return false;
    }
    m_in_flight->Set(static_cast<int64_t>(in_flight.load()));
    conn->inflight++;
    return true;
  }

  void HandleQuery2(Conn* conn, const Frame& frame) {
    // The decoder already poisons on a malformed spec body, but re-parse
    // fail-closed anyway: this handler must not trust framing-layer
    // invariants it cannot see.
    auto spec = ParseQuery2Body(frame.body);
    if (!spec.has_value()) {
      ProtocolError(conn, frame.request_id, "malformed query spec body");
      return;
    }
    if (!Admit(conn, frame.request_id)) return;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      Request req;
      req.conn_id = conn->id;
      req.request_id = frame.request_id;
      req.spec = std::move(*spec);
      req.admitted_ns = NowNs();
      queue.push_back(std::move(req));
    }
    queue_cv.notify_one();
  }

  void HandleRead(Conn* conn) {
    uint8_t buf[kReadChunk];
    while (true) {
      const ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        if (!conn->protocol_dead) {
          conn->decoder.Feed(buf, static_cast<size_t>(n));
        }
        // A short read drained the socket buffer; a full chunk may leave
        // more behind, and EPOLLET requires reading to exhaustion.
        if (n == static_cast<ssize_t>(sizeof(buf))) continue;
        break;
      }
      if (n == 0) {
        conn->read_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn);
      return;
    }
    // Pop every complete frame buffered so far.
    Frame frame;
    while (!conn->protocol_dead) {
      const FrameDecoder::Result r = conn->decoder.Next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kError) {
        ProtocolError(conn, 0, conn->decoder.error());
        return;  // conn may already be gone (slow-disconnect inside append)
      }
      if (frame.type != FrameType::kQuery2) {
        ProtocolError(conn, frame.request_id, "unexpected frame type");
        return;
      }
      // The handlers can destroy *conn (outbound-bound disconnect or a failed
      // send inside AppendOutbound), so capture the id first and never touch
      // the pointer again until the lookup proves it still exists.
      const uint64_t conn_id = conn->id;
      HandleQuery2(conn, frame);
      if (Lookup(conn_id) == nullptr) return;  // closed while answering
    }
    if (conn->read_closed) {
      // Peer finished sending. Deliver what it is owed, then close.
      conn->closing = true;
      if (conn->inflight == 0 && conn->outbound.empty()) {
        disconnected_eof.fetch_add(1, std::memory_order_relaxed);
        m_disc_eof->Add(1);
        CloseConn(conn);
      }
    }
  }

  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completion_mutex);
      batch.swap(completions);
    }
    for (Completion& c : batch) {
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      Conn* conn = Lookup(c.conn_id);
      if (conn == nullptr) continue;  // client left before its answer
      conn->inflight--;
      responses.fetch_add(1, std::memory_order_relaxed);
      m_responses->Add(1);
      AppendOutbound(conn, std::move(c.frame));
    }
    if (!batch.empty()) {
      m_in_flight->Set(static_cast<int64_t>(in_flight.load()));
    }
  }

  bool AnyOutbound() const {
    for (const auto& [id, conn] : conns) {
      if (!conn->outbound.empty()) return true;
    }
    return false;
  }

  void ReactorLoop() {
    constexpr int kMaxEvents = 256;
    std::vector<Reactor::Event> events(kMaxEvents);
    bool listener_open = true;
    Clock::time_point drain_deadline{};
    while (true) {
      const bool stop = stopping.load(std::memory_order_acquire);
      if (stop && listener_open) {
        reactor.Remove(listen_fd);
        close(listen_fd);
        listen_fd = -1;
        listener_open = false;
        drain_deadline = Clock::now() +
                         std::chrono::milliseconds(options.drain_deadline_ms);
      }
      if (stop) {
        const bool drained = in_flight.load(std::memory_order_acquire) == 0 &&
                             !AnyOutbound();
        if (drained || Clock::now() >= drain_deadline) break;
      }
      const int n = reactor.Wait(events.data(), kMaxEvents, stop ? 10 : 200);
      for (int i = 0; i < n; ++i) {
        const Reactor::Event& ev = events[i];
        if (ev.tag == Reactor::kWakeupTag) continue;
        if (ev.tag == kListenTag) {
          if (listener_open) AcceptLoop();
          continue;
        }
        Conn* conn = Lookup(ev.tag);
        if (conn == nullptr) continue;
        if (ev.events & (EPOLLERR | EPOLLHUP)) {
          disconnected_eof.fetch_add(1, std::memory_order_relaxed);
          m_disc_eof->Add(1);
          CloseConn(conn);
          continue;
        }
        if (ev.events & EPOLLOUT) {
          if (!Flush(conn)) continue;
        }
        if (ev.events & EPOLLIN) HandleRead(conn);
      }
      DrainCompletions();
    }
    // Force-close whatever remains (drain deadline expired or all drained).
    std::vector<Conn*> remaining;
    remaining.reserve(conns.size());
    for (auto& [id, conn] : conns) remaining.push_back(conn.get());
    for (Conn* conn : remaining) CloseConn(conn);
    if (listener_open && listen_fd >= 0) {
      close(listen_fd);
      listen_fd = -1;
    }
    if (idle_fd >= 0) {
      close(idle_fd);
      idle_fd = -1;
    }
  }

  void WorkerLoop() {
    Bytes scratch;
    while (true) {
      Request req;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return workers_stop || !queue.empty(); });
        if (queue.empty()) return;  // workers_stop && drained
        req = queue.front();
        queue.pop_front();
      }
      scratch.clear();
      const size_t header = BeginFrame(&scratch, FrameType::kResponse,
                                       req.request_id);
      bool ok = true;
      std::string error;
      try {
        // The response image is serialized straight into the frame buffer —
        // the no-copy path SpecWireInto exists for.
        engine.SpecWireInto(req.spec, &scratch);
      } catch (const std::exception& e) {
        ok = false;
        error = e.what();
      }
      if (ok) {
        FinishFrame(&scratch, header);
      } else {
        scratch.clear();
        Bytes body(error.begin(), error.end());
        scratch = EncodeFrame(FrameType::kError, req.request_id, body);
      }
      m_request_ns->Observe(NowNs() - req.admitted_ns);
      {
        std::lock_guard<std::mutex> lock(completion_mutex);
        completions.push_back(Completion{req.conn_id, std::move(scratch)});
      }
      scratch = Bytes{};
      reactor.Wakeup();
    }
  }
};

SpServer::SpServer(core::SpQueryEngine& engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, options)) {}

SpServer::~SpServer() { Stop(); }

void SpServer::Start() {
  if (impl_->started.exchange(true)) {
    throw std::logic_error("SpServer::Start called twice");
  }
  impl_->Bind();
  impl_->reactor.Add(impl_->listen_fd, EPOLLIN, kListenTag);
  size_t workers = impl_->options.worker_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  impl_->reactor_thread = std::thread([this] { impl_->ReactorLoop(); });
  impl_->workers.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
  SpServer* self = this;
  telemetry::Introspection::Global().RegisterProvider("service", [self] {
    const ServerStats s = self->stats();
    return telemetry::ProviderFacts{
        {"service.port", self->port()},
        {"service.active_connections", s.active},
        {"service.in_flight", self->impl_->in_flight.load()},
        {"service.accepted_total", s.accepted},
        {"service.shed_total", s.shed},
        {"service.workers", self->impl_->workers.size()},
        {"service.max_in_flight", self->impl_->options.max_in_flight},
    };
  });
}

void SpServer::Stop() {
  if (!impl_->started.load() || impl_->joined.exchange(true)) return;
  telemetry::Introspection::Global().UnregisterProvider("service");
  impl_->stopping.store(true, std::memory_order_release);
  impl_->reactor.Wakeup();
  if (impl_->reactor_thread.joinable()) impl_->reactor_thread.join();
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->workers_stop = true;
  }
  impl_->queue_cv.notify_all();
  for (std::thread& t : impl_->workers) {
    if (t.joinable()) t.join();
  }
}

uint16_t SpServer::port() const { return impl_->bound_port; }

bool SpServer::running() const {
  return impl_->started.load() && !impl_->joined.load();
}

ServerStats SpServer::stats() const {
  ServerStats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.active = impl_->active.load(std::memory_order_relaxed);
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.responses = impl_->responses.load(std::memory_order_relaxed);
  s.shed = impl_->shed.load(std::memory_order_relaxed);
  s.protocol_errors = impl_->protocol_errors.load(std::memory_order_relaxed);
  s.disconnected_slow = impl_->disconnected_slow.load(std::memory_order_relaxed);
  s.disconnected_eof = impl_->disconnected_eof.load(std::memory_order_relaxed);
  s.rejected_connections =
      impl_->rejected_connections.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gem2::net
