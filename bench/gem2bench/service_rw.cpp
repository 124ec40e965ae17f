// service_rw: the served path with writes beside reads. A flat GEM2-tree
// store behind net::SpServer with default options; the client is one IO
// thread with 4 connections sending QUERY2 range specs at 0.1%.
//
//   Phase A (first third of the window): closed loop, 8 outstanding per
//     connection, new requests held while 128 responses await verification
//     -> ops_per_s, verified ops per second.
//   Phase B (the rest): open loop at 1000 arrivals/s on a seeded Poisson
//     schedule -> p50_ms / p99_ms, timed from each arrival's due time, not
//     from when send() returned, so a stalled client or server charges the
//     wait to every request behind it. No arrival is dropped: a late one is
//     sent late and net.lateness_ns reports by how much. Arrivals still
//     unsent, or responses still missing, 5 s after the window count as
//     failed ops.
//
// This workload is runnable but not gated in BENCHMARK.json: its peak
// memory follows how its threads' allocations fall across malloc arenas and
// spreads too far run to run for the memory bound, and its other gated
// metrics repeat range_uniform's (see README.md).
//
// In both phases a writer thread inserts 200 keys/s through
// SpQueryEngine::Insert. It is the only mutator: after each insert it reads
// the chain state and publishes it under the engine's epoch. A verifier
// thread checks every response off the timing path: the answer must verify
// against a snapshot of an epoch the engine was at while the request was in
// flight, and equal the reference model at that epoch.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/query_engine.h"
#include "core/wire.h"
#include "gem2bench.h"
#include "inputs.h"
#include "net/frame.h"
#include "net/server.h"
#include "telemetry/metrics.h"

namespace gem2bench {
namespace {

using gem2::core::QuerySpec;

constexpr size_t kConnections = 4;
constexpr size_t kOutstandingPerConn = 8;
constexpr size_t kMaxBacklog = 128;
constexpr double kArrivalsPerSecond = 1000;
constexpr double kWritesPerSecond = 200;
constexpr uint64_t kDrainNs = 5'000'000'000;

// Members are destroyed in reverse order: server, then engine, then db.
struct ServiceState {
  std::unique_ptr<gem2::core::AuthenticatedDb> db;
  std::unique_ptr<gem2::core::SpQueryEngine> engine;
  std::unique_ptr<gem2::net::SpServer> server;
  std::vector<gem2::chain::AuthenticatedState> states;
};

/// Key -> (epoch it was inserted at, payload). Preload keys are epoch 0;
/// the writer's i-th insert is epoch i + 1. Immutable during the run.
using Reference = std::map<gem2::Key, std::pair<uint64_t, std::string>>;

std::string CompareAtEpoch(const Reference& reference, const QuerySpec& spec,
                           uint64_t epoch, const std::vector<gem2::Object>& got) {
  const gem2::core::Predicate& p = spec.predicates.at(0);
  size_t i = 0;
  for (auto it = reference.lower_bound(p.lb); it != reference.end() && it->first <= p.ub; ++it) {
    if (it->second.first > epoch) continue;
    if (i >= got.size() || got[i].key != it->first || got[i].value != it->second.second) {
      return "answer differs from the model at epoch " + std::to_string(epoch);
    }
    ++i;
  }
  if (i != got.size()) return "answer has extra objects";
  return {};
}

/// Chain-state snapshots by engine epoch, published by the writer.
class Snapshots {
 public:
  void Publish(uint64_t epoch, std::vector<gem2::chain::AuthenticatedState> states) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch != by_epoch_.size()) {
      throw std::logic_error("snapshot published out of epoch order");
    }
    by_epoch_.push_back(std::move(states));
    cv_.notify_all();
  }

  /// The snapshot of `epoch`, waiting up to `timeout_ns` for the writer to
  /// publish it; nullptr on timeout. std::deque keeps references stable.
  const std::vector<gem2::chain::AuthenticatedState>* Wait(uint64_t epoch,
                                                           uint64_t timeout_ns) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready = cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                                    [&] { return by_epoch_.size() > epoch; });
    return ready ? &by_epoch_[epoch] : nullptr;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::vector<gem2::chain::AuthenticatedState>> by_epoch_;
};

/// A response handed to the verifier.
struct Completed {
  uint64_t op = 0;
  QuerySpec spec;
  gem2::Bytes body;
  uint64_t epoch_lo = 0;  // engine epoch just before the request was sent
  uint64_t epoch_hi = 0;  // engine epoch just after its response completed
};

/// What verification found; merged into the Result after the threads join.
struct VerifierReport {
  uint64_t responses = 0;
  uint64_t image_bytes = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
  size_t backlog_max = 0;
};

/// Checks every response on its own thread, off the client's timing path.
class Verifier {
 public:
  Verifier(const gem2::core::RangeStore& db, Snapshots& snapshots,
           const Reference& reference, TraceLane* lane)
      : db_(db), snapshots_(snapshots), reference_(reference), lane_(lane) {}

  void Push(Completed c) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(c));
    backlog_max_ = std::max(backlog_max_, queue_.size());
    cv_.notify_one();
  }

  size_t backlog() {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }


  void Finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_one();
  }

  /// The verifier thread's body: checks pushed responses until Finish().
  void Run() {
    while (true) {
      Completed c;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        c = std::move(queue_.front());
        queue_.pop_front();
      }
      Record(Check(c));
    }
  }

  /// Valid once Run() has returned.
  VerifierReport report() {
    std::lock_guard<std::mutex> lock(mutex_);
    VerifierReport r = report_;
    r.backlog_max = backlog_max_;
    return r;
  }

 private:
  struct Outcome {
    std::string error;  // empty: verified and equal to the model
    uint64_t image_bytes = 0;
  };

  Outcome Check(const Completed& c) const {
    Outcome out;
    std::optional<gem2::core::SpecResponse> parsed;
    {
      ScopedSpan span(lane_, Layer::kCoreParse, Layer::kCount, c.op);
      gem2::core::TracedWire traced = gem2::core::UnwrapTracedWire(c.body);
      out.image_bytes = traced.image.size();
      parsed = gem2::core::ParseSpecResponse(traced.image);
    }
    if (!parsed.has_value()) {
      out.error = "response did not parse";
      return out;
    }
    for (uint64_t e = c.epoch_lo; e <= c.epoch_hi; ++e) {
      const auto* states = snapshots_.Wait(e, kDrainNs);
      if (states == nullptr) {
        out.error = "no snapshot for epoch " + std::to_string(e);
        return out;
      }
      gem2::core::VerifiedSpecResult v;
      {
        ScopedSpan span(lane_, Layer::kCoreVerify, Layer::kCount, c.op);
        v = db_.VerifySpecAgainst(*states, c.spec, *parsed);
      }
      if (v.ok) {
        out.error = CompareAtEpoch(reference_, c.spec, e, v.objects);
        return out;
      }
    }
    out.error = "response verifies against no epoch it was in flight at";
    return out;
  }

  void Record(const Outcome& o) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++report_.responses;
    report_.image_bytes += o.image_bytes;
    if (o.error.empty()) return;
    ++report_.mismatches;
    if (report_.errors.size() < 8) report_.errors.push_back(o.error);
  }

  const gem2::core::RangeStore& db_;
  Snapshots& snapshots_;
  const Reference& reference_;
  TraceLane* lane_;  // the verifier thread's
  std::mutex mutex_;
  std::condition_variable cv_;  // work pushed, or Finish()
  std::deque<Completed> queue_;
  size_t backlog_max_ = 0;
  bool done_ = false;
  VerifierReport report_;
};

/// One client connection, owned by the IO thread.
struct Conn {
  struct Pending {
    uint64_t id = 0;
    QuerySpec spec;
    uint64_t due_ns = 0;
    uint64_t send_ns = 0;
    uint64_t epoch_lo = 0;
  };

  explicit Conn(int fd) : fd(fd) {}
  ~Conn() {
    if (fd >= 0) close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  gem2::net::FrameDecoder decoder;
  gem2::Bytes out;  // request bytes the socket has not taken yet
  size_t out_pos = 0;
  std::unordered_map<uint64_t, Pending> pending;
  uint64_t first_byte_ns = 0;  // arrival of the next frame's first byte
};

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error("connect() to the server failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// RAII file descriptor for the epoll and timer fds.
struct Fd {
  explicit Fd(int fd) : fd(fd) {
    if (fd < 0) throw std::runtime_error("fd creation failed");
  }
  ~Fd() { close(fd); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd;
};

/// The client side: connections, request issue, frame completion, and the
/// per-request timings of both phases.
class Client {
 public:
  Client(uint16_t port, gem2::core::SpQueryEngine& engine, Verifier& verifier,
         Result* result)
      : engine_(engine),
        verifier_(verifier),
        result_(result),
        epoll_(epoll_create1(EPOLL_CLOEXEC)),
        timer_(timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
    for (size_t i = 0; i < kConnections; ++i) {
      conns_.push_back(std::make_unique<Conn>(ConnectLoopback(port)));
      Watch(i, EPOLLIN);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    epoll_ctl(epoll_.fd, EPOLL_CTL_ADD, timer_.fd, &ev);
  }

  /// Closed loop: up to kOutstandingPerConn requests in flight on every
  /// connection until the window closes. New requests wait while
  /// kMaxBacklog responses await verification, so the rate counts verified
  /// ops and the backlog stays bounded.
  void ClosedLoop(Window& window, RangeSpecStream& specs, TraceLane* lane) {
    specs_ = &specs;
    on_complete_ = [&](size_t, const Conn::Pending& p, uint64_t first_byte,
                       uint64_t done, bool ok) {
      if (!window.Running()) return;
      if (ok) window.CountOp();
      if (window.traced()) RecordSpans(lane, p, first_byte, done);
    };
    while (window.Running()) {
      for (size_t c = 0; c < kConnections; ++c) {
        while (conns_[c]->pending.size() < kOutstandingPerConn &&
               verifier_.backlog() < kMaxBacklog) {
          Send(c, NowNs());
        }
      }
      Poll(1);
    }
    Drain();
    on_complete_ = nullptr;
  }

  /// Open loop over `due` (ns offsets from the start). The loop ends once
  /// every arrival is sent, late ones included; one still unsent kDrainNs
  /// after the window closed counts as failed.
  void OpenLoop(const std::vector<uint64_t>& due, double seconds,
                RangeSpecStream& specs, TraceLane* lane, Samples* latency,
                Samples* lateness, Samples* wait, Samples* recv) {
    specs_ = &specs;
    const uint64_t start = NowNs() + 1'000'000;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    on_complete_ = [&](size_t, const Conn::Pending& p, uint64_t first_byte,
                       uint64_t done, bool ok) {
      if (!ok) return;
      latency->Add(done - p.due_ns);
      lateness->Add(p.send_ns - p.due_ns);
      wait->Add(first_byte - p.send_ns);
      recv->Add(done - first_byte);
      RecordSpans(lane, p, first_byte, done);
    };
    size_t next = 0;
    while (next < due.size()) {
      const uint64_t now = NowNs();
      if (now >= end + kDrainNs) break;
      while (next < due.size() && start + due[next] <= now) {
        Send(next % kConnections, start + due[next]);
        ++next;
      }
      if (next == due.size()) break;
      const uint64_t wake = start + due[next];
      itimerspec spec{};
      spec.it_value.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
      spec.it_value.tv_nsec = static_cast<long>(wake % 1'000'000'000);
      timerfd_settime(timer_.fd, TFD_TIMER_ABSTIME, &spec, nullptr);
      Poll(-1);
    }
    for (; next < due.size(); ++next) {
      ++result_->attempted;
      result_->Failed("arrival due but never sent");
    }
    Drain();
    on_complete_ = nullptr;
  }

  uint64_t busy() const { return busy_; }
  uint64_t responses() const { return responses_; }
  uint64_t response_bytes() const { return response_bytes_; }

 private:
  static constexpr uint64_t kTimerTag = UINT64_MAX;

  using OnComplete = std::function<void(size_t, const Conn::Pending&, uint64_t, uint64_t, bool)>;

  static void RecordSpans(TraceLane* lane, const Conn::Pending& p, uint64_t first_byte,
                          uint64_t done) {
    if (lane == nullptr) return;
    lane->Record(Layer::kNetLateness, Layer::kOp, p.id, p.due_ns, p.send_ns);
    lane->Record(Layer::kNetWait, Layer::kOp, p.id, p.send_ns, first_byte);
    lane->Record(Layer::kNetRecv, Layer::kOp, p.id, first_byte, done);
    lane->Record(Layer::kOp, Layer::kCount, p.id, p.due_ns, done);
  }

  void Watch(size_t conn, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = conn;
    const int op = watched_.count(conn) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    epoll_ctl(epoll_.fd, op, conns_[conn]->fd, &ev);
    watched_[conn] = events;
  }

  void Send(size_t c, uint64_t due_ns) {
    Conn& conn = *conns_[c];
    const QuerySpec spec = specs_->Next();
    const uint64_t id = next_id_++;
    const gem2::Bytes frame = gem2::net::EncodeQuery2Frame(id, spec);
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    Conn::Pending& p = conn.pending[id];
    p.id = id;
    p.spec = spec;
    p.due_ns = due_ns;
    p.epoch_lo = engine_.epoch();
    p.send_ns = NowNs();
    ++result_->attempted;
    Flush(c);
  }

  void Flush(size_t c) {
    Conn& conn = *conns_[c];
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("send() to the server failed");
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    }
    const uint32_t want = conn.out.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT);
    if (watched_[c] != want) Watch(c, want);
  }

  void Poll(int timeout_ms) {
    epoll_event events[kConnections + 1];
    const int n = epoll_wait(epoll_.fd, events, kConnections + 1, timeout_ms);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r = read(timer_.fd, &expirations, sizeof(expirations));
        continue;
      }
      const size_t c = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & EPOLLOUT) Flush(c);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(c);
    }
  }

  void Read(size_t c) {
    Conn& conn = *conns_[c];
    uint8_t buf[1 << 16];
    while (true) {
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) throw std::runtime_error("server closed a client connection");
      const uint64_t now = NowNs();
      // A frame whose first byte is in this read starts now.
      if (conn.decoder.buffered() == 0) conn.first_byte_ns = now;
      conn.decoder.Feed(buf, static_cast<size_t>(n));
      gem2::net::Frame frame;
      while (true) {
        const auto r = conn.decoder.Next(&frame);
        if (r == gem2::net::FrameDecoder::Result::kNeedMore) break;
        if (r == gem2::net::FrameDecoder::Result::kError) {
          throw std::runtime_error("bad frame from server: " + conn.decoder.error());
        }
        const uint64_t first_byte = conn.first_byte_ns;
        conn.first_byte_ns = now;
        Complete(c, std::move(frame), first_byte, NowNs());
      }
    }
  }

  void Complete(size_t c, gem2::net::Frame frame, uint64_t first_byte, uint64_t done) {
    Conn& conn = *conns_[c];
    const auto it = conn.pending.find(frame.request_id);
    if (it == conn.pending.end()) {
      result_->Mismatch("response for an unknown request id");
      return;
    }
    const Conn::Pending p = std::move(it->second);
    conn.pending.erase(it);
    bool ok = false;
    if (frame.type == gem2::net::FrameType::kResponse) {
      ok = true;
      ++responses_;
      response_bytes_ += frame.body.size();
      verifier_.Push({frame.request_id, p.spec, std::move(frame.body), p.epoch_lo,
                      engine_.epoch()});
    } else if (frame.type == gem2::net::FrameType::kBusy) {
      ++busy_;
      result_->Failed("server answered BUSY");
    } else {
      result_->Failed("server answered ERROR");
    }
    on_complete_(c, p, first_byte, done, ok);
  }

  /// Waits for every outstanding response; the rest count as lost.
  void Drain() {
    const uint64_t deadline = NowNs() + kDrainNs;
    auto outstanding = [&] {
      size_t n = 0;
      for (const auto& conn : conns_) n += conn->pending.size();
      return n;
    };
    while (outstanding() > 0 && NowNs() < deadline) Poll(10);
    for (auto& conn : conns_) {
      for (size_t i = 0; i < conn->pending.size(); ++i) {
        result_->Failed("response lost");
      }
      conn->pending.clear();
    }
  }

  gem2::core::SpQueryEngine& engine_;
  Verifier& verifier_;
  RangeSpecStream* specs_ = nullptr;  // the current phase's
  Result* result_;
  Fd epoll_;
  Fd timer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<size_t, uint32_t> watched_;
  OnComplete on_complete_;
  uint64_t next_id_ = 0;
  uint64_t busy_ = 0;
  uint64_t responses_ = 0;
  uint64_t response_bytes_ = 0;
};

}  // namespace

void RunServiceRw(const Config& config, Tracer& tracer, Result* result) {
  const Scale& scale = config.scale;
  const double phase_a = config.seconds / 3;
  const double phase_b = config.seconds - phase_a;

  Rng rng(config.seed, 1);
  std::unordered_set<gem2::Key> taken;
  const std::vector<gem2::Object> preload = UniformObjects(rng, scale.service_n, &taken);
  const auto max_writes =
      static_cast<uint64_t>(kWritesPerSecond * (config.seconds + kDrainNs / 1e9)) + 16;
  const std::vector<gem2::Object> writes = UniformObjects(rng, max_writes, &taken);
  const std::vector<uint64_t> schedule =
      PoissonSchedule(config.seed, kArrivalsPerSecond, phase_b);
  Fingerprint fingerprint;
  Reference reference;
  for (const gem2::Object& o : preload) {
    fingerprint.Add(static_cast<uint64_t>(o.key));
    fingerprint.Add(o.value);
    reference[o.key] = {0, o.value};
  }
  for (size_t i = 0; i < writes.size(); ++i) {
    fingerprint.Add(static_cast<uint64_t>(writes[i].key));
    fingerprint.Add(writes[i].value);
    reference[writes[i].key] = {i + 1, writes[i].value};
  }
  for (uint64_t t : schedule) fingerprint.Add(t);
  for (uint64_t stream : {9, 10}) {
    RangeSpecStream copy(config.seed, stream, kNarrowRanges);
    for (uint64_t i = 0; i < scale.query_prefix; ++i) fingerprint.Add(copy.Next());
  }

  GasTally gas;
  auto build = [&] {
    auto s = std::make_unique<ServiceState>();
    s->db = std::make_unique<gem2::core::AuthenticatedDb>(PaperDbOptions());
    gas = GasTally{};
    for (const gem2::Object& o : preload) gas.Add(s->db->Insert(o));
    s->states = s->db->ReadChainState();
    RangeSpecStream warm(config.seed, 8, kNarrowRanges);
    for (int i = 0; i < 8; ++i) {
      if (!RunQuery(*s->db, s->states, warm.Next(), nullptr, 0).ok) {
        throw std::runtime_error("warm-up query failed verification");
      }
    }
    s->engine = std::make_unique<gem2::core::SpQueryEngine>(s->db.get());
    s->server = std::make_unique<gem2::net::SpServer>(*s->engine, gem2::net::ServerOptions{});
    s->server->Start();
    return s;
  };
  Samples setups;
  std::unique_ptr<ServiceState> state = TimedBuild(&setups, build);
  gas.Report(result, /*categories=*/true);

  Snapshots snapshots;
  snapshots.Publish(0, state->states);
  Verifier verifier(*state->db, snapshots, reference, tracer.NewLane());
  TraceLane* writer_lane = tracer.NewLane();
  TraceLane* io_lane = tracer.NewLane();

  // Writer: 200 inserts/s on a fixed schedule until stopped.
  std::atomic<bool> stop_writer{false};
  Samples write_latency;
  std::string writer_error;
  std::thread verifier_thread;
  std::thread writer_thread;
  // Stops and joins both threads on every exit path, before the state and
  // the objects above they use are destroyed.
  struct Joiner {
    std::atomic<bool>& stop;
    Verifier& verifier;
    std::thread& writer;
    std::thread& checker;
    ~Joiner() {
      stop = true;
      if (writer.joinable()) writer.join();
      verifier.Finish();
      if (checker.joinable()) checker.join();
    }
  } joiner{stop_writer, verifier, writer_thread, verifier_thread};

  verifier_thread = std::thread([&verifier] { verifier.Run(); });
  writer_thread = std::thread([&] {
    try {
      const uint64_t start = NowNs();
      for (size_t i = 0; i < writes.size() && !stop_writer; ++i) {
        const uint64_t due = start + static_cast<uint64_t>(i * 1e9 / kWritesPerSecond);
        const uint64_t now = NowNs();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        if (stop_writer) break;
        const uint64_t t0 = NowNs();
        gem2::chain::TxReceipt receipt;
        {
          ScopedSpan span(writer_lane, Layer::kCoreEngineWrite, Layer::kCount, i);
          receipt = state->engine->Insert(writes[i]);
        }
        write_latency.Add(NowNs() - t0);
        if (!receipt.ok) throw std::runtime_error("writer insert failed: " + receipt.error);
        snapshots.Publish(state->engine->epoch(), state->db->ReadChainState());
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });

  Client client(state->server->port(), *state->engine, verifier, result);
  RangeSpecStream closed_specs(config.seed, 9, kNarrowRanges);
  Window window(phase_a, config.trace);
  client.ClosedLoop(window, closed_specs, io_lane);

  auto& server_ns = gem2::telemetry::MetricsRegistry::Global().histogram(
      "service.request_ns.query");
  server_ns.Reset();
  Samples latency;
  Samples lateness;
  Samples wait;
  Samples recv;
  RangeSpecStream open_specs(config.seed, 10, kNarrowRanges);
  client.OpenLoop(schedule, phase_b, open_specs, config.trace ? io_lane : nullptr,
                  &latency, &lateness, &wait, &recv);
  const auto server_q = server_ns.Quantiles();
  const double server_busy = static_cast<double>(server_ns.sum()) / 1e9;

  stop_writer = true;
  writer_thread.join();
  verifier.Finish();
  verifier_thread.join();
  if (!writer_error.empty()) result->Mismatch(writer_error);
  const VerifierReport report = verifier.report();
  for (const std::string& e : report.errors) result->Mismatch("service_rw: " + e);
  // Mismatch() counted the first few; count the rest too.
  if (report.mismatches > report.errors.size()) {
    result->failed += report.mismatches - report.errors.size();
  }

  result->Set("ops_per_s", window.OpsPerSecond());
  SetLatency(result, latency);
  result->Set("vo_bytes_per_query",
              static_cast<double>(report.image_bytes) /
                  static_cast<double>(std::max<uint64_t>(report.responses, 1)));
  result->Set("write_p99_ms", write_latency.Quantile(0.99) / 1e6);
  result->Set("trace.overhead_frac", window.OverheadFrac());
  SetLayerTiming(result, tracer, Layer::kCoreEngineWrite, "core.engine_write_ns");
  SetQueryLayerTimings(result, tracer);
  SetTiming(result, "net.lateness_ns", lateness);
  SetTiming(result, "net.wait_ns", wait);
  SetTiming(result, "net.recv_ns", recv);
  result->Set("net.server_ns.p50", server_q.p50);
  result->Set("net.server_ns.p99", server_q.p99);
  result->Set("net.server_ns.busy_s", server_busy);
  result->Set("net.unattributed_ns.p50", wait.Quantile(0.5) - server_q.p50);
  result->Set("net.unattributed_ns.p99", wait.Quantile(0.99) - server_q.p99);
  result->Set("net.busy_frac", static_cast<double>(client.busy()) /
                                   static_cast<double>(std::max<uint64_t>(result->attempted, 1)));
  result->Set("net.bytes_per_response",
              static_cast<double>(client.response_bytes()) /
                  static_cast<double>(std::max<uint64_t>(client.responses(), 1)));
  result->Set("net.verify_backlog_max", static_cast<double>(report.backlog_max));
  result->fingerprint = fingerprint.Hex();

  result->Set("peak_rss_mb", PeakRssMb());  // one build and its window
  state.reset();
  FinishSetups(scale.setups, &setups, result, build);
}

}  // namespace gem2bench
