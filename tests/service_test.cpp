// SP service front-end behavior over real sockets: end-to-end authenticated
// queries through the epoll reactor, the no-copy SpecWireInto path is
// byte-identical to SpecWire, admission control sheds with explicit BUSY
// frames, pipelined responses correlate by request id, slow-loris senders
// are served while slow readers are disconnected, malformed and oversized
// frames fail closed, clean shutdown flushes in-flight responses, and the
// whole thing shows up in metrics / introspection / Prometheus.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "core/authenticated_db.h"
#include "core/query_engine.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "seed_util.h"
#include "shard/sharded_db.h"
#include "telemetry/introspect.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace gem2::net {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using core::WireVersion;
using fault::DeriveSeed;
using testutil::SeedReporter;

constexpr uint64_t kSecond = 1'000'000;  // FrameClient budgets are in µs

/// A seeded store of `n` workload inserts; `model`, when given, receives
/// every object inserted.
std::unique_ptr<AuthenticatedDb> MakeDb(
    uint64_t seed, size_t n = 300, std::map<Key, std::string>* model = nullptr) {
  workload::WorkloadOptions wopts;
  wopts.domain_max = 100'000;
  wopts.seed = seed;
  workload::WorkloadGenerator gen(wopts);

  DbOptions options;
  options.kind = AdsKind::kGem2;
  options.gem2.m = 4;
  options.gem2.smax = 64;
  options.env.gas_limit = 1'000'000'000'000ull;
  auto db = std::make_unique<AuthenticatedDb>(options);
  for (const workload::Operation& op : gen.Batch(n)) {
    if (!db->Contains(op.object.key)) {
      EXPECT_TRUE(db->Insert(op.object).ok);
      if (model != nullptr) model->emplace(op.object.key, op.object.value);
    }
  }
  return db;
}

/// Spins until `pred` holds or ~2s elapse; returns the final evaluation.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- SpecWireInto is the no-copy twin of SpecWire --------------------------

TEST(SpecWireInto, ByteIdenticalToSpecWireAllBackends) {
  SeedReporter seed(11);
  auto db = MakeDb(DeriveSeed(seed, 1));
  for (const auto& [lb, ub] : std::vector<std::pair<Key, Key>>{
           {0, 100'000}, {10, 10}, {50'000, 40'000}, {-100, 250}}) {
    // Fixed trace + frozen response: the append path must reproduce the
    // copying path bit for bit, envelope included.
    const core::QuerySpec spec = core::QuerySpec::Range(lb, ub);
    const core::SpecResponse response = db->ExecuteSpec(spec);
    const Bytes image =
        core::SerializeSpecResponse(response, db->wire_version());
    const Bytes reference = core::WrapTracedWire(response.trace, image);
    Bytes appended{0xde, 0xad};  // the "frame header" already in the buffer
    core::WrapTracedWireHeaderInto(response.trace, &appended);
    core::SerializeSpecResponseInto(response, db->wire_version(), &appended);
    ASSERT_EQ(appended.size(), 2 + reference.size());
    EXPECT_EQ(appended[0], 0xde);
    EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                           appended.begin() + 2))
        << "[" << lb << "," << ub << "]";

    // Across two live queries only the telemetry envelope may differ
    // (fresh span ids) — the authenticated image is identical.
    const Bytes a = db->SpecWire(spec);
    Bytes b;
    db->SpecWireInto(spec, &b);
    EXPECT_EQ(core::UnwrapTracedWire(a).image, core::UnwrapTracedWire(b).image)
        << "[" << lb << "," << ub << "]";
  }
}

TEST(SpecWireInto, ByteIdenticalOnShardedCompositeResponses) {
  SeedReporter seed(12);
  shard::ShardOptions sopts;
  sopts.base.kind = AdsKind::kGem2;
  sopts.base.gem2.m = 4;
  sopts.base.gem2.smax = 64;
  sopts.base.env.gas_limit = 1'000'000'000'000ull;
  sopts.bounds = {25'000, 50'000, 75'000};
  shard::ShardedDb db(sopts);

  workload::WorkloadOptions wopts;
  wopts.domain_max = 100'000;
  wopts.seed = DeriveSeed(seed, 1);
  workload::WorkloadGenerator gen(wopts);
  for (const workload::Operation& op : gen.Batch(200)) {
    if (!db.Contains(op.object.key)) {
      ASSERT_TRUE(db.Insert(op.object).ok);
    }
  }

  // The cross-shard range exercises the composite (multi-slice) serializer.
  const core::QuerySpec spec = core::QuerySpec::Range(10'000, 90'000);
  const core::SpecResponse response = db.ExecuteSpec(spec);
  ASSERT_GT(response.conjuncts[0].slices.size(), 1u);
  const Bytes reference =
      core::SerializeSpecResponse(response, db.wire_version());
  Bytes appended;
  core::SerializeSpecResponseInto(response, db.wire_version(), &appended);
  EXPECT_EQ(appended, reference);

  const Bytes a = db.SpecWire(spec);
  Bytes b;
  db.SpecWireInto(spec, &b);
  EXPECT_EQ(core::UnwrapTracedWire(a).image, core::UnwrapTracedWire(b).image);
}

TEST(SpecWireInto, EngineMatchesStoreAndHonorsWireVersion) {
  SeedReporter seed(13);
  auto db = MakeDb(DeriveSeed(seed, 1));
  core::SpQueryEngine engine(db.get());
  const core::QuerySpec spec = core::QuerySpec::Range(0, 100'000);
  const Bytes image = core::UnwrapTracedWire(db->SpecWire(spec)).image;
  ASSERT_EQ(image[0], static_cast<uint8_t>(WireVersion::kV3));
  // The engine serves in the store's wire version, via both the copying and
  // the append spelling.
  EXPECT_EQ(core::UnwrapTracedWire(engine.SpecWire(spec)).image, image);
  Bytes from_engine;
  engine.SpecWireInto(spec, &from_engine);
  EXPECT_EQ(core::UnwrapTracedWire(from_engine).image, image);
}

// --- Server behavior over live sockets -------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    // The server references the engine: stop any previous one before the
    // engine and the db it wraps are replaced.
    server_.reset();
    model_.clear();
    db_ = MakeDb(DeriveSeed(seed_, 1), 300, &model_);
    engine_ = std::make_unique<core::SpQueryEngine>(db_.get());
    server_ = std::make_unique<SpServer>(*engine_, options);
    server_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  /// Sends one query and verifies the response against the ground truth.
  void QueryAndVerify(FrameClient& client, uint64_t request_id, Key lb,
                      Key ub) {
    ASSERT_TRUE(client.Send(
        EncodeQuery2Frame(request_id, core::QuerySpec::Range(lb, ub)), 2 * kSecond))
        << client.error();
    const auto frame = client.ReadFrame(5 * kSecond);
    ASSERT_TRUE(frame.has_value()) << client.error();
    ASSERT_EQ(frame->type, FrameType::kResponse);
    EXPECT_EQ(frame->request_id, request_id);
    VerifyBody(lb, ub, frame->body);
  }

  void VerifyBody(Key lb, Key ub, const Bytes& body) {
    const core::QuerySpec spec = core::QuerySpec::Range(lb, ub);
    core::VerifiedSpecResult vr = db_->VerifySpecWire(spec, body);
    ASSERT_TRUE(vr.ok) << vr.error;
    const core::VerifiedSpecResult truth = db_->AuthenticatedSpec(spec);
    ASSERT_TRUE(truth.ok) << truth.error;
    ASSERT_EQ(vr.objects.size(), truth.objects.size());
    for (size_t i = 0; i < truth.objects.size(); ++i) {
      EXPECT_EQ(vr.objects[i].key, truth.objects[i].key);
      EXPECT_EQ(vr.objects[i].value, truth.objects[i].value);
    }
  }

  /// Brute-force answer to a boolean spec over the key (attribute 0), from
  /// the inserted objects: the reference socket answers are checked against.
  std::vector<Object> ModelAnswer(const core::QuerySpec& spec) const {
    std::vector<Object> out;
    for (const auto& [key, value] : model_) {
      bool all = true;
      bool any = false;
      for (const core::Predicate& p : spec.predicates) {
        const bool in = key >= p.lb && key <= p.ub;
        all = all && in;
        any = any || in;
      }
      if (spec.op == core::BoolOp::kAnd ? all : any) out.push_back({key, value});
    }
    return out;
  }

  SeedReporter seed_{77};
  std::map<Key, std::string> model_;
  std::unique_ptr<AuthenticatedDb> db_;
  std::unique_ptr<core::SpQueryEngine> engine_;
  std::unique_ptr<SpServer> server_;
};

TEST_F(ServiceTest, EndToEndQueryVerifiesV3) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  QueryAndVerify(client, 1, 0, 100'000);
  QueryAndVerify(client, 2, 42, 50'000);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST_F(ServiceTest, EndToEndSpecQueryVerifies) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  std::vector<core::QuerySpec> specs;
  specs.push_back(core::QuerySpec::Range(0, 100'000));
  {
    core::QuerySpec both;  // AND of two overlapping ranges on attribute 0
    both.predicates.push_back(
        core::Predicate{core::PredicateKind::kRange, 0, 0, 60'000});
    both.predicates.push_back(
        core::Predicate{core::PredicateKind::kRange, 0, 30'000, 100'000});
    specs.push_back(both);
    core::QuerySpec either = both;
    either.op = core::BoolOp::kOr;
    specs.push_back(either);
    core::QuerySpec count = core::QuerySpec::Range(0, 100'000);
    count.aggregate = core::AggregateKind::kCount;
    specs.push_back(count);
  }

  uint64_t request_id = 1;
  for (const core::QuerySpec& spec : specs) {
    ASSERT_TRUE(client.Send(EncodeQuery2Frame(request_id, spec), 2 * kSecond))
        << client.error();
    const auto frame = client.ReadFrame(5 * kSecond);
    ASSERT_TRUE(frame.has_value()) << client.error();
    ASSERT_EQ(frame->type, FrameType::kResponse);
    EXPECT_EQ(frame->request_id, request_id);
    core::VerifiedSpecResult vr = db_->VerifySpecWire(spec, frame->body);
    ASSERT_TRUE(vr.ok) << core::ToString(spec) << ": " << vr.error;
    const std::vector<Object> truth = ModelAnswer(spec);
    const bool aggregate = spec.aggregate != core::AggregateKind::kNone;
    EXPECT_EQ(vr.aggregates.has_value(), aggregate);
    if (aggregate) {
      ASSERT_TRUE(vr.aggregates.has_value());
      EXPECT_EQ(vr.aggregates->count, truth.size());
      EXPECT_TRUE(vr.objects.empty());
    } else {
      EXPECT_EQ(vr.objects, truth) << core::ToString(spec);
    }
    ++request_id;
  }
}

TEST_F(ServiceTest, RetiredQueryFrameGetsErrorFrameThenDisconnect) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // Type byte 1, the retired fixed-width range query, is an unknown frame
  // type: diagnostic, then disconnect — the server never answers it.
  Bytes retired;
  AppendFrameHeader(&retired, FrameType::kQuery2, 4, 16);
  retired[4] = 1;
  retired.insert(retired.end(), 16, 0);
  ASSERT_TRUE(client.Send(retired, 2 * kSecond));
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(std::string(frame->body.begin(), frame->body.end()),
            "unknown frame type");
  const auto eof = client.ReadFrame(5 * kSecond);
  EXPECT_FALSE(eof.has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(server_->stats().requests, 0u);
}

TEST_F(ServiceTest, MalformedSpecBodyGetsErrorFrameThenDisconnect) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // A kQuery2 frame whose body is not one valid spec image poisons the
  // server-side decoder: diagnostic, then disconnect — never resynchronize.
  Bytes bogus_body{0x07};  // unknown BoolOp tag
  ASSERT_TRUE(
      client.Send(EncodeFrame(FrameType::kQuery2, 4, bogus_body), 2 * kSecond));
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  EXPECT_EQ(frame->type, FrameType::kError);
  const auto eof = client.ReadFrame(5 * kSecond);
  EXPECT_FALSE(eof.has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(Eventually([&] { return server_->stats().protocol_errors > 0; }));
}

TEST_F(ServiceTest, RetryingSocketClientAuthenticatedSpec) {
  StartServer();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.attempt_timeout_us = 2'000'000;
  policy.deadline_us = 5'000'000;
  RetryingClient client(*db_, server_->port(), policy,
                              DeriveSeed(seed_, 21));

  core::QuerySpec spec;
  spec.op = core::BoolOp::kOr;
  spec.predicates.push_back(
      core::Predicate{core::PredicateKind::kRange, 0, 0, 20'000});
  spec.predicates.push_back(
      core::Predicate{core::PredicateKind::kRange, 0, 80'000, 100'000});
  const ClientOutcome outcome = client.AuthenticatedSpec(spec);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);

  EXPECT_EQ(outcome.result.objects, ModelAnswer(spec));
}

TEST_F(ServiceTest, PipelinedResponsesCorrelateByRequestId) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // Fire 32 distinct ranges down one connection before reading anything;
  // workers may answer out of order, the request id is the correlator.
  std::map<uint64_t, std::pair<Key, Key>> ranges;
  for (uint64_t id = 1; id <= 32; ++id) {
    const Key lb = Key(id) * 1000;
    const Key ub = lb + 20'000;
    ranges.emplace(id, std::make_pair(lb, ub));
    ASSERT_TRUE(
        client.Send(EncodeQuery2Frame(id, core::QuerySpec::Range(lb, ub)), 2 * kSecond))
        << client.error();
  }
  std::map<uint64_t, Bytes> bodies;
  while (bodies.size() < ranges.size()) {
    const auto frame = client.ReadFrame(5 * kSecond);
    ASSERT_TRUE(frame.has_value()) << client.error();
    ASSERT_EQ(frame->type, FrameType::kResponse);
    ASSERT_TRUE(ranges.count(frame->request_id));
    EXPECT_TRUE(bodies.emplace(frame->request_id, frame->body).second)
        << "duplicate response for id " << frame->request_id;
  }
  // Verify after the socket is drained: workers are idle now, so client-side
  // light-client sync cannot overlap server-side query execution.
  for (const auto& [id, range] : ranges) {
    VerifyBody(range.first, range.second, bodies.at(id));
  }
}

TEST_F(ServiceTest, AdmissionControlShedsWithExplicitBusyFrames) {
  ServerOptions options;
  options.max_in_flight = 0;  // nothing is ever admitted
  StartServer(options);

  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  ASSERT_TRUE(
      client.Send(EncodeQuery2Frame(5, core::QuerySpec::Range(0, 100)), 2 * kSecond));
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  EXPECT_EQ(frame->type, FrameType::kBusy);
  EXPECT_EQ(frame->request_id, 5u);
  // The connection survives a shed: the client backs off and retries.
  ASSERT_TRUE(
      client.Send(EncodeQuery2Frame(6, core::QuerySpec::Range(0, 100)), 2 * kSecond));
  const auto again = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->type, FrameType::kBusy);

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.responses, 0u);
  EXPECT_GE(telemetry::MetricsRegistry::Global()
                .counter("service.shed")
                .value(),
            2u);
}

TEST_F(ServiceTest, RetryingSocketClientSeesBusyAndDegradesGracefully) {
  ServerOptions options;
  options.max_in_flight = 0;
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.attempt_timeout_us = 200'000;
  policy.deadline_us = 2'000'000;
  RetryingClient client(*db_, server_->port(), policy,
                              DeriveSeed(seed_, 9));
  const ClientOutcome outcome =
      client.AuthenticatedSpec(core::QuerySpec::Range(0, 1000));
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.busy_responses, 3u);  // every attempt saw an explicit shed
}

TEST_F(ServiceTest, StaleFrameStreamCannotExtendPastDeadline) {
  // A hostile server streaming frames whose request ids never match must
  // not stretch a single attempt past policy_.deadline_us: every read in
  // the stale-skip loop is budgeted against the overall deadline.
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  std::thread feeder([listen_fd] {
    const int c = accept(listen_fd, nullptr, nullptr);
    if (c < 0) return;
    const Bytes stale = EncodeFrame(FrameType::kBusy, 0xdeadbeefULL, {});
    while (send(c, stale.data(), stale.size(), MSG_NOSIGNAL) > 0) {
    }
    close(c);
  });

  db_ = MakeDb(DeriveSeed(seed_, 21));
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.attempt_timeout_us = 200'000;
  policy.deadline_us = 400'000;
  RetryingClient client(*db_, port, policy, DeriveSeed(seed_, 22));
  const auto t0 = std::chrono::steady_clock::now();
  const ClientOutcome outcome =
      client.AuthenticatedSpec(core::QuerySpec::Range(0, 1000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.degraded);
  // Generous bound: the point is "bounded by the deadline", not "fast".
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  shutdown(listen_fd, SHUT_RDWR);  // wakes the feeder if it is still in accept
  close(listen_fd);
  feeder.join();
}

TEST_F(ServiceTest, SlowLorisSenderIsStillServed) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // Dribble the query frame a byte at a time; the reactor must buffer the
  // partial frame across reads without blocking anyone else.
  const Bytes query = EncodeQuery2Frame(3, core::QuerySpec::Range(100, 5000));
  for (const uint8_t byte : query) {
    Bytes one{byte};
    ASSERT_TRUE(client.Send(one, 2 * kSecond)) << client.error();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  ASSERT_EQ(frame->type, FrameType::kResponse);
  EXPECT_EQ(frame->request_id, 3u);
  VerifyBody(100, 5000, frame->body);
}

TEST_F(ServiceTest, GarbageInputGetsErrorFrameThenDisconnect) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  Bytes garbage(64, 0x5a);
  ASSERT_TRUE(client.Send(garbage, 2 * kSecond));
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  EXPECT_EQ(frame->type, FrameType::kError);
  // After the diagnostic the server drops the connection — fail closed,
  // never resynchronize.
  const auto eof = client.ReadFrame(5 * kSecond);
  EXPECT_FALSE(eof.has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(Eventually([&] { return server_->stats().protocol_errors > 0; }));
}

TEST_F(ServiceTest, OversizedFrameRejectedFromHeaderAlone) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  Bytes header;
  AppendFrameHeader(&header, FrameType::kQuery2, 1, 1u << 20);
  ASSERT_TRUE(client.Send(header, 2 * kSecond));
  const auto frame = client.ReadFrame(5 * kSecond);
  ASSERT_TRUE(frame.has_value()) << client.error();
  EXPECT_EQ(frame->type, FrameType::kError);
  const auto eof = client.ReadFrame(5 * kSecond);
  EXPECT_FALSE(eof.has_value());
}

TEST_F(ServiceTest, SlowReaderIsDisconnectedNotBuffered) {
  ServerOptions options;
  options.max_outbound_bytes = 64 * 1024;
  StartServer(options);
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // Never read; keep asking for the full domain until kernel socket buffers
  // fill and the server-side outbound buffer blows through its bound.
  for (uint64_t id = 1; id <= 4096; ++id) {
    // A send may jam; fine.
    if (!client.Send(EncodeQuery2Frame(id, core::QuerySpec::Range(0, 100'000)),
                     kSecond / 10)) {
      break;
    }
    if (server_->stats().disconnected_slow > 0) break;
  }
  EXPECT_TRUE(
      Eventually([&] { return server_->stats().disconnected_slow > 0; }));
}

TEST_F(ServiceTest, MidPipelineDisconnectNeverTouchesFreedConnection) {
  // Regression: appending a kBusy frame can destroy the connection from
  // *inside* the pipelined-frame loop (outbound-bound overflow while later
  // frames are still buffered in the decoder). The loop must detect the
  // close by connection id, never by dereferencing the freed object —
  // under ASan the old guard read freed memory here.
  ServerOptions options;
  options.max_in_flight = 0;       // every query sheds with kBusy
  options.max_outbound_bytes = 8;  // smaller than one 20-byte BUSY frame
  StartServer(options);
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();

  // One write carrying many pipelined queries: the reactor decodes them in
  // a single read pass, and the FIRST shed response overflows the outbound
  // bound and disconnects the client mid-loop.
  Bytes burst;
  for (uint64_t id = 1; id <= 16; ++id) {
    const Bytes q = EncodeQuery2Frame(id, core::QuerySpec::Range(0, 100));
    burst.insert(burst.end(), q.begin(), q.end());
  }
  ASSERT_TRUE(client.Send(burst, 2 * kSecond)) << client.error();
  EXPECT_TRUE(
      Eventually([&] { return server_->stats().disconnected_slow > 0; }));
  const auto eof = client.ReadFrame(2 * kSecond);
  EXPECT_FALSE(eof.has_value());

  // The reactor survived the mid-loop close and still accepts fresh peers.
  FrameClient fresh(server_->port());
  EXPECT_TRUE(fresh.Connect(2 * kSecond)) << fresh.error();
}

TEST_F(ServiceTest, CleanShutdownFlushesInFlightResponses) {
  ServerOptions options;
  options.worker_threads = 2;
  StartServer(options);
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  // Small responses: the flush must fit kernel socket buffers even though
  // this client only starts reading after Stop() returns.
  const int kInFlight = 16;
  for (uint64_t id = 1; id <= kInFlight; ++id) {
    ASSERT_TRUE(
        client.Send(EncodeQuery2Frame(id, core::QuerySpec::Range(0, 5'000)),
                    2 * kSecond));
  }
  // Only *admitted* queries survive shutdown — frames still in socket
  // buffers when Stop lands may never be read. Wait for admission, then
  // stop while the two workers still have most of the queue ahead of them.
  ASSERT_TRUE(Eventually(
      [&] { return server_->stats().requests >= uint64_t(kInFlight); }));
  server_->Stop();
  int responses = 0;
  std::map<uint64_t, Bytes> bodies;
  while (true) {
    const auto frame = client.ReadFrame(2 * kSecond);
    if (!frame.has_value()) break;  // EOF after the flush
    ASSERT_EQ(frame->type, FrameType::kResponse);
    bodies.emplace(frame->request_id, frame->body);
    ++responses;
  }
  EXPECT_EQ(responses, kInFlight);
  for (const auto& [id, body] : bodies) VerifyBody(0, 5'000, body);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServiceTest, TelemetryIntrospectionAndPrometheusExposeService) {
  StartServer();
  FrameClient client(server_->port());
  ASSERT_TRUE(client.Connect(2 * kSecond)) << client.error();
  QueryAndVerify(client, 1, 0, 100'000);

  // Provider facts while running...
  const telemetry::ProviderFacts facts =
      telemetry::Introspection::Global().Collect();
  // Collect() prefixes each fact with its provider name: the server
  // registers as "service" and its facts are already "service.*"-named.
  auto fact = [&](const std::string& key) -> const uint64_t* {
    for (const auto& [k, v] : facts) {
      if (k == "service.service." + key) return &v;
    }
    return nullptr;
  };
  const uint64_t* port = fact("port");
  ASSERT_NE(port, nullptr) << "service provider facts missing";
  EXPECT_EQ(*port, server_->port());
  ASSERT_NE(fact("accepted_total"), nullptr);
  EXPECT_GE(*fact("accepted_total"), 1u);

  // ...service.* metrics in the registry and the Prometheus exposition.
  auto& reg = telemetry::MetricsRegistry::Global();
  EXPECT_GE(reg.counter("service.requests").value(), 1u);
  EXPECT_GE(reg.counter("service.responses").value(), 1u);
  const std::string prom = telemetry::PrometheusExposition();
  EXPECT_NE(prom.find("gem2_service_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("gem2_service_request_ns_query"), std::string::npos);

  // Stop unregisters the provider: no stale facts from a dead server.
  server_->Stop();
  for (const auto& [k, v] : telemetry::Introspection::Global().Collect()) {
    EXPECT_TRUE(k.rfind("service.", 0) != 0) << k;
  }
}

TEST_F(ServiceTest, ManyConnectionsQueryConcurrently) {
  StartServer();
  const int kConns = 64;
  std::vector<std::unique_ptr<FrameClient>> clients;
  for (int i = 0; i < kConns; ++i) {
    auto c = std::make_unique<FrameClient>(server_->port());
    ASSERT_TRUE(c->Connect(2 * kSecond)) << c->error();
    ASSERT_TRUE(c->Send(
        EncodeQuery2Frame(uint64_t(i) + 1,
                          core::QuerySpec::Range(Key(i) * 100, Key(i) * 100 + 30'000)),
        2 * kSecond));
    clients.push_back(std::move(c));
  }
  std::map<int, Bytes> bodies;
  for (int i = 0; i < kConns; ++i) {
    const auto frame = clients[i]->ReadFrame(10 * kSecond);
    ASSERT_TRUE(frame.has_value()) << clients[i]->error();
    ASSERT_EQ(frame->type, FrameType::kResponse);
    EXPECT_EQ(frame->request_id, uint64_t(i) + 1);
    bodies.emplace(i, frame->body);
  }
  EXPECT_GE(server_->stats().accepted, uint64_t(kConns));
  for (const auto& [i, body] : bodies) {
    VerifyBody(Key(i) * 100, Key(i) * 100 + 30'000, body);
  }
}

}  // namespace
}  // namespace gem2::net
