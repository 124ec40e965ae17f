/// \file server.h
/// The SP service front-end: an event-driven, non-blocking TCP server that
/// answers authenticated range queries over the frame protocol (frame.h),
/// built to hold thousands of mostly-idle light-client connections.
///
/// Architecture (docs/SERVICE.md):
///
///   - ONE reactor thread owns every socket: an edge-triggered epoll loop
///     (reactor.h) accepts connections, drains reads into per-connection
///     FrameDecoders, and drains bounded outbound buffers on EPOLLOUT. It
///     never computes a query and never blocks on a socket.
///   - a FIXED worker pool executes admitted queries against the
///     SpQueryEngine, each query (a sharded store's scatter included) on the
///     worker that dequeued it, and serializes each response *directly* into
///     its frame buffer via SpecWireInto — no per-response image copy
///     anywhere on the path.
///     Workers hand finished frames back through a completion queue plus an
///     eventfd wakeup; only the reactor touches sockets.
///   - ADMISSION CONTROL: at most `max_in_flight` admitted-but-undelivered
///     queries exist at once. Past the bound the reactor answers kBusy
///     immediately — an explicit shed the client can see and back off from,
///     never a silent drop or an unbounded queue.
///   - WRITE BACKPRESSURE: each connection's outbound buffer is bounded by
///     `max_outbound_bytes`. A client that stops reading while responses
///     accumulate is disconnected (service.disconnect.slow) — one slow
///     client cannot hold worker output or reactor memory hostage.
///
/// Stop() is a clean shutdown: the listener closes first, every admitted
/// query still completes, and its response is flushed before the connection
/// closes (bounded by a drain deadline so a dead peer cannot wedge it).
#ifndef GEM2_NET_SERVER_H_
#define GEM2_NET_SERVER_H_

#include <cstdint>
#include <memory>

namespace gem2::core {
class SpQueryEngine;
}

namespace gem2::net {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  int listen_backlog = 1024;
  /// Worker threads executing queries. 0 = one per hardware thread.
  size_t worker_threads = 0;
  /// Admission bound: queued + executing + undelivered queries. Beyond it
  /// new queries are answered kBusy by the reactor thread.
  size_t max_in_flight = 1024;
  /// Largest acceptable frame body (requests are a few dozen bytes; this
  /// mostly bounds a malicious length prefix).
  uint32_t max_frame_bytes = 1u << 20;
  /// Per-connection outbound buffer bound; exceeding it disconnects the
  /// (slow) client.
  size_t max_outbound_bytes = 8u << 20;
  /// Connection cap; accepts past it are closed immediately.
  size_t max_connections = 100'000;
  /// How long Stop() keeps flushing undelivered responses before
  /// force-closing (milliseconds).
  int drain_deadline_ms = 5'000;
};

struct ServerStats {
  uint64_t accepted = 0;
  uint64_t active = 0;
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t disconnected_slow = 0;
  uint64_t disconnected_eof = 0;
  uint64_t rejected_connections = 0;
};

class SpServer {
 public:
  /// `engine` must outlive the server. The server is inert until Start().
  SpServer(core::SpQueryEngine& engine, ServerOptions options);
  ~SpServer();

  SpServer(const SpServer&) = delete;
  SpServer& operator=(const SpServer&) = delete;

  /// Binds, listens, and launches the reactor + worker threads. Throws
  /// std::system_error if the socket cannot be bound.
  void Start();

  /// Clean shutdown (idempotent): stop accepting, complete and flush every
  /// admitted query (bounded by drain_deadline_ms), join all threads.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const;

  bool running() const;

  /// Live counters (also exported as service.* metrics and through the
  /// introspection registry as provider "service").
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gem2::net

#endif  // GEM2_NET_SERVER_H_
