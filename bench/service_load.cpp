// Open-loop service load harness: thousands of concurrent light-client
// connections drive the SP server front-end (src/net) at a FIXED arrival
// rate — arrivals are scheduled by the clock, not by response completions,
// so queueing delay shows up as latency instead of silently throttling the
// offered load (the coordinated-omission trap a closed loop falls into).
//
// Every client connection fully verifies every response it accepts: the
// traced envelope is stripped, the spec image parsed, and the VO checked
// against chain state prefetched once via ReadChainState (the hot
// VerifySpecAgainst path, pure CPU, safe to run from many client threads at
// once). A BUSY
// frame is an explicit shed and is counted, never retried — the harness
// measures what the server sheds under overload, it does not hide it.
//
// Emits BENCH_service.json with qps, shed/error rates, and client-observed
// p50/p99/p999 latency from the reservoir histogram, plus the server's own
// service.request_ns.query quantiles for comparison. CI smoke-gates the
// reduced run (qps floor, shed ceiling, zero verification failures); the
// full default is 10k connections.
//
// Scale knobs:
//   GEM2_SERVICE_CONNS    concurrent connections        (default 10000)
//   GEM2_SERVICE_RATE     aggregate arrivals per second (default 5000)
//   GEM2_SERVICE_SECONDS  measured duration             (default 10)
//   GEM2_SERVICE_N        preloaded objects             (default 20000)
//   GEM2_SERVICE_THREADS  client event-loop threads     (default cores/2)
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/query_engine.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/server.h"
#include "telemetry/metrics.h"

namespace gem2::bench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Lifts RLIMIT_NOFILE toward the hard cap so a 10k-connection run (two fds
/// per connection counting the server side, plus epoll instances) fits.
void RaiseFdLimit(uint64_t needed) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= needed) return;
  lim.rlim_cur = lim.rlim_max == RLIM_INFINITY
                     ? needed
                     : std::min<rlim_t>(needed, lim.rlim_max);
  setrlimit(RLIMIT_NOFILE, &lim);
}

int ConnectLoopback(uint16_t port) {
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
  const int flags = fcntl(fd, F_GETFL);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Per-thread tallies, summed after the run (no cross-thread contention on
/// the hot path; only the latency histogram is shared and it is atomic).
struct Tally {
  uint64_t sent = 0;
  uint64_t responses = 0;
  uint64_t busy = 0;
  uint64_t server_errors = 0;
  uint64_t send_failures = 0;
  uint64_t conn_failures = 0;
  uint64_t verify_failures = 0;
  uint64_t lost = 0;  // outstanding at drain end — never answered
};

struct Pending {
  uint64_t sent_ns = 0;
  core::QuerySpec spec;
};

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::unordered_map<uint64_t, Pending> pending;
  uint64_t next_id = 1;
  bool dead = false;
};

/// One client event-loop thread: owns `conns` connections on its own epoll,
/// fires arrivals on schedule round-robin, drains and verifies responses.
void RunClientThread(size_t thread_idx, uint16_t port, size_t conn_count,
                     double rate_per_thread, uint64_t duration_ns,
                     const core::RangeStore* verifier,
                     const std::vector<chain::AuthenticatedState>* states,
                     telemetry::Histogram* latency, Tally* out) {
  Tally tally;
  std::vector<Conn> conns(conn_count);
  net::Reactor reactor;
  for (size_t i = 0; i < conn_count; ++i) {
    conns[i].fd = ConnectLoopback(port);
    if (conns[i].fd < 0) {
      conns[i].dead = true;
      ++tally.conn_failures;
      continue;
    }
    reactor.Add(conns[i].fd, EPOLLIN, i);
  }

  WorkloadGenerator gen(MakeWorkload(KeyDistribution::kUniform,
                                     42 + 1000 * (thread_idx + 1)));

  auto handle_frame = [&](Conn& conn, const net::Frame& frame) {
    const auto it = conn.pending.find(frame.request_id);
    if (it == conn.pending.end()) return;  // unsolicited; ignore
    const Pending pending = std::move(it->second);
    conn.pending.erase(it);
    switch (frame.type) {
      case net::FrameType::kBusy:
        ++tally.busy;
        return;
      case net::FrameType::kError:
        ++tally.server_errors;
        return;
      case net::FrameType::kResponse:
        break;
      default:
        ++tally.server_errors;
        return;
    }
    latency->Observe(NowNs() - pending.sent_ns);
    ++tally.responses;
    // Full client verification on the prefetched-chain-state hot path.
    const core::TracedWire unwrapped = core::UnwrapTracedWire(frame.body);
    const auto response = core::ParseSpecResponse(unwrapped.image);
    if (!response.has_value()) {
      ++tally.verify_failures;
      return;
    }
    const core::VerifiedSpecResult vr =
        verifier->VerifySpecAgainst(*states, pending.spec, *response);
    if (!vr.ok) ++tally.verify_failures;
  };

  auto drain_conn = [&](size_t idx) {
    Conn& conn = conns[idx];
    if (conn.dead) return;
    uint8_t buf[64 * 1024];
    while (true) {
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.decoder.Feed(buf, static_cast<size_t>(n));
        net::Frame frame;
        while (conn.decoder.Next(&frame) == net::FrameDecoder::Result::kFrame) {
          handle_frame(conn, frame);
        }
        if (conn.decoder.failed()) {
          ++tally.conn_failures;
          break;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      ++tally.conn_failures;  // EOF or hard error
      break;
    }
    reactor.Remove(conn.fd);
    close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
  };

  const uint64_t start_ns = NowNs();
  const uint64_t end_ns = start_ns + duration_ns;
  const double interval_ns = 1e9 / rate_per_thread;
  double next_send = static_cast<double>(start_ns);
  size_t rr = 0;
  std::vector<net::Reactor::Event> events(512);

  while (true) {
    const uint64_t now = NowNs();
    if (now >= end_ns) break;
    // Fire every arrival that is due — all of them, even if the loop fell
    // behind (open loop: the schedule does not wait for the system).
    while (next_send <= static_cast<double>(now) &&
           static_cast<uint64_t>(next_send) < end_ns) {
      next_send += interval_ns;
      // Round-robin to the next live connection.
      size_t tries = conns.size();
      while (tries-- > 0 && conns[rr % conns.size()].dead) ++rr;
      Conn& conn = conns[rr % conns.size()];
      ++rr;
      if (conn.dead) continue;
      const workload::RangeQuerySpec range = gen.NextQuery(0.01);
      const uint64_t id = conn.next_id++;
      core::QuerySpec spec = core::QuerySpec::Range(range.lb, range.ub);
      const Bytes frame = net::EncodeQuery2Frame(id, spec);
      const ssize_t n = send(conn.fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (n != static_cast<ssize_t>(frame.size())) {
        ++tally.send_failures;  // partial write of a 55-byte frame = jammed
        continue;
      }
      conn.pending.emplace(id, Pending{NowNs(), std::move(spec)});
      ++tally.sent;
    }
    const uint64_t after_sends = NowNs();
    int wait_ms = 0;
    if (next_send > static_cast<double>(after_sends)) {
      wait_ms = static_cast<int>(
          (next_send - static_cast<double>(after_sends)) / 1e6);
      wait_ms = std::min(wait_ms, 10);
    }
    const int nev = reactor.Wait(events.data(), static_cast<int>(events.size()),
                                 wait_ms);
    for (int e = 0; e < nev; ++e) {
      if (events[e].tag == net::Reactor::kWakeupTag) continue;
      drain_conn(static_cast<size_t>(events[e].tag));
    }
  }

  // Drain: give in-flight responses a grace window to arrive and verify.
  const uint64_t drain_deadline = NowNs() + 2'000'000'000ull;
  auto outstanding = [&] {
    size_t total = 0;
    for (const Conn& conn : conns) {
      if (!conn.dead) total += conn.pending.size();
    }
    return total;
  };
  while (outstanding() > 0 && NowNs() < drain_deadline) {
    const int nev =
        reactor.Wait(events.data(), static_cast<int>(events.size()), 50);
    for (int e = 0; e < nev; ++e) {
      if (events[e].tag == net::Reactor::kWakeupTag) continue;
      drain_conn(static_cast<size_t>(events[e].tag));
    }
  }
  tally.lost = outstanding();
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  *out = tally;
}

void ServiceLoad(benchmark::State& state, const std::string& name) {
  const uint64_t conns = EnvScale("GEM2_SERVICE_CONNS", 10'000);
  const uint64_t rate = EnvScale("GEM2_SERVICE_RATE", 5'000);
  const uint64_t seconds = EnvScale("GEM2_SERVICE_SECONDS", 10);
  const uint64_t n = EnvScale("GEM2_SERVICE_N", 20'000);
  const uint64_t threads = EnvScale(
      "GEM2_SERVICE_THREADS",
      std::max<uint64_t>(2, std::thread::hardware_concurrency() / 2));

  RaiseFdLimit(2 * conns + 1024);

  WorkloadGenerator gen;
  auto db = BuildDb(AdsKind::kGem2, KeyDistribution::kUniform, n, &gen);
  core::SpQueryEngine engine(db.get());

  net::ServerOptions options;
  options.max_connections = conns + 1024;
  options.max_in_flight = 4096;
  net::SpServer server(engine, options);
  server.Start();

  // Chain state fetched ONCE; every client thread verifies against it on the
  // const pure-CPU path (Figs. 9-10's hot loop), so no client serializes on
  // the light-client sync.
  const std::vector<chain::AuthenticatedState> states = db->ReadChainState();
  telemetry::Histogram& latency =
      telemetry::MetricsRegistry::Global().histogram("service_load.latency_ns");

  for (auto _ : state) {
    std::vector<Tally> tallies(threads);
    std::vector<std::thread> pool;
    const uint64_t base = conns / threads;
    const uint64_t extra = conns % threads;
    for (uint64_t t = 0; t < threads; ++t) {
      const uint64_t share = base + (t < extra ? 1 : 0);
      pool.emplace_back(RunClientThread, t, server.port(), share,
                        static_cast<double>(rate) / threads,
                        seconds * 1'000'000'000ull, db.get(), &states, &latency,
                        &tallies[t]);
    }
    for (auto& thread : pool) thread.join();

    Tally total;
    for (const Tally& t : tallies) {
      total.sent += t.sent;
      total.responses += t.responses;
      total.busy += t.busy;
      total.server_errors += t.server_errors;
      total.send_failures += t.send_failures;
      total.conn_failures += t.conn_failures;
      total.verify_failures += t.verify_failures;
      total.lost += t.lost;
    }
    const net::ServerStats sstats = server.stats();
    const telemetry::QuantileSummary q = latency.Quantiles();
    const telemetry::QuantileSummary server_q =
        telemetry::MetricsRegistry::Global()
            .histogram("service.request_ns.query")
            .Quantiles();
    const double qps = static_cast<double>(total.responses) / seconds;
    const double denom = std::max<uint64_t>(1, total.sent);

    BenchRun run("service", name, "GEM2-tree", "uniform", n);
    run.Extra("conns", static_cast<double>(conns));
    run.Extra("rate_target", static_cast<double>(rate));
    run.Extra("seconds", static_cast<double>(seconds));
    run.Extra("client_threads", static_cast<double>(threads));
    run.Extra("cores", std::thread::hardware_concurrency());
    run.Extra("sent", static_cast<double>(total.sent));
    run.Extra("qps", qps);
    run.Extra("shed_rate", static_cast<double>(total.busy) / denom);
    run.Extra("error_rate",
              static_cast<double>(total.server_errors + total.send_failures +
                                  total.conn_failures + total.lost) /
                  denom);
    run.Extra("verification_failures",
              static_cast<double>(total.verify_failures));
    run.Extra("lost", static_cast<double>(total.lost));
    run.Extra("p50_ns", q.p50);
    run.Extra("p99_ns", q.p99);
    run.Extra("p999_ns", q.p999);
    run.Extra("server_p50_ns", server_q.p50);
    run.Extra("server_p99_ns", server_q.p99);
    run.Extra("server_shed", static_cast<double>(sstats.shed));
    run.Extra("server_accepted", static_cast<double>(sstats.accepted));
    run.Finish();

    state.counters["qps"] = qps;
    state.counters["p99_ms"] = q.p99 / 1e6;
    state.counters["verify_failures"] =
        static_cast<double>(total.verify_failures);
  }
  server.Stop();
}

void RegisterAll() {
  const uint64_t conns = EnvScale("GEM2_SERVICE_CONNS", 10'000);
  const uint64_t rate = EnvScale("GEM2_SERVICE_RATE", 5'000);
  const std::string name = "Service/conns:" + std::to_string(conns) +
                           "/rate:" + std::to_string(rate);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [name](benchmark::State& s) { ServiceLoad(s, name); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace gem2::bench

int main(int argc, char** argv) {
  gem2::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  gem2::bench::EmitBenchJson();
  benchmark::Shutdown();
  return 0;
}
