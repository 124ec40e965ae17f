// Flaky-transport tests: the retrying client survives drops, duplicates,
// truncation, corruption, and reordering within its deadline, degrades
// gracefully when the network is hopeless, and every schedule is a pure
// function of the seed. The client is net::RetryingClient, the same loop
// that runs over sockets, here over net::MemoryTransport: real frames,
// decoded by the client's frame decoder, on a virtual clock (no sleeps, no
// wall-clock flakiness).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/authenticated_db.h"
#include "fault/fault.h"
#include "fault/transport.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/frame.h"
#include "seed_util.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace gem2::fault {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using net::ClientOutcome;
using net::RetryPolicy;
using testutil::SeedReporter;

std::unique_ptr<AuthenticatedDb> MakeDb(uint64_t seed) {
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
  for (const workload::Operation& op : gen.Batch(200)) {
    if (!db->Contains(op.object.key)) {
      EXPECT_TRUE(db->Insert(op.object).ok);
    }
  }
  return db;
}

/// The one retry loop with `db` as both the SP behind `channel` and the
/// client's verifier.
net::RetryingClient Client(core::RangeStore& db, FlakyChannel& channel,
                           RetryPolicy policy, uint64_t seed) {
  return net::RetryingClient(
      db, std::make_unique<net::MemoryTransport>(db, channel), policy, seed);
}

/// The records a client must accept for the full-domain range, and nothing
/// else.
std::vector<Object> Truth(core::RangeStore& db) {
  const core::VerifiedSpecResult truth =
      db.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
  EXPECT_TRUE(truth.ok) << truth.error;
  return truth.objects;
}

TEST(Transport, CleanChannelSucceedsFirstAttempt) {
  SeedReporter seed(1);
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel({}, DeriveSeed(seed, 2));
  net::RetryingClient client = Client(*db, channel, {}, DeriveSeed(seed, 3));

  ClientOutcome outcome =
      client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.result.objects, Truth(*db));
  EXPECT_GT(outcome.elapsed_us, 0u);  // latency still accrues
}

// One fault kind per case, with the rejection path it must drive the client
// down. PrintTo keeps the printed parameter (and so the registered ctest
// name) free of pointer addresses, which vary run to run.
struct FaultCase {
  const char* name;
  ChannelOptions options;
  /// The client.retry.* counters the schedule must move.
  std::vector<const char*> counters;
  friend void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }
};

class SingleFaultRecovery : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SingleFaultRecovery, ClientRecoversWithinDeadline) {
  SeedReporter seed(42);
  const FaultCase& param = GetParam();
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel(param.options, DeriveSeed(seed, 2));
  // A generous budget so recovery is near-certain under ANY seed (the
  // nightly job replays this test with a fresh one): ten attempts against a
  // 40% fault rate leaves ~1e-4 residual failure per query. TornDuplicate
  // tears 35% of frames, and a tear can cost two attempts.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.deadline_us = 400'000;
  net::RetryingClient client = Client(*db, channel, policy, DeriveSeed(seed, 3));
  const core::QuerySpec spec = core::QuerySpec::Range(0, 100'000);
  const std::vector<Object> truth = Truth(*db);
  auto& metrics = telemetry::MetricsRegistry::Global();
  std::vector<uint64_t> before;
  for (const char* name : param.counters) before.push_back(metrics.counter(name).value());

  int ok = 0, recovered_after_retry = 0;
  uint64_t reconnects = 0;
  telemetry::Counter& rejected = metrics.counter("client.retry.verify_rejected");
  for (int q = 0; q < 30; ++q) {
    const uint64_t rejected_before = rejected.value();
    ClientOutcome outcome = client.AuthenticatedSpec(spec);
    reconnects += outcome.reconnects;
    if (outcome.ok) {
      ++ok;
      EXPECT_LE(outcome.elapsed_us, policy.deadline_us);
      EXPECT_EQ(outcome.result.objects, truth) << param.name;
      if (outcome.attempts > 1) ++recovered_after_retry;
      // A rejected answer costs the connection: the attempt after it
      // reconnects, so leftover bytes of a torn frame never reach it.
      EXPECT_GE(outcome.reconnects, rejected.value() - rejected_before) << param.name;
    } else {
      EXPECT_TRUE(outcome.degraded) << param.name;
    }
  }
  EXPECT_GE(ok, 29) << param.name;  // at most one freak loss per run
  // The channel actually misbehaved and the retry loop actually worked —
  // except for duplicates, which the client absorbs on the first attempt.
  if (std::string(param.name) != "Duplicate") {
    EXPECT_GT(recovered_after_retry, 0) << param.name;
  }
  EXPECT_GT(channel.stats().dropped + channel.stats().truncated +
                channel.stats().corrupted + channel.stats().duplicated,
            0u);
  // And the damage was caught where it must be: a timed-out read, a frame
  // that failed to decode, a stale request id, or verification.
  for (size_t i = 0; i < param.counters.size(); ++i) {
    EXPECT_GT(metrics.counter(param.counters[i]).value(), before[i])
        << param.name << " " << param.counters[i];
  }
  // A timed-out read, a frame that fails to decode or a rejected answer
  // costs the connection.
  const bool drops_connections = std::ranges::any_of(param.counters, [](std::string_view c) {
    return c == "client.retry.timeouts" || c == "client.retry.framing_errors" ||
           c == "client.retry.verify_rejected";
  });
  if (drops_connections) {
    EXPECT_GT(reconnects, 0u) << param.name;
  }
}

// A uniform 1-4 byte flip lands in the 20-byte frame header of a ~21 KB
// response about once in a thousand flips, so Corrupt is caught by
// verification, not framing. TornDuplicate reaches verification on every
// seed: a torn frame runs on into its torn duplicate and completes with the
// duplicate's header inside its body. Verification rejects it and the
// client drops the connection with the duplicate's leftover bytes, so they
// never reach the decoder (FramingErrorCostsTheConnection covers that path).
INSTANTIATE_TEST_SUITE_P(
    Faults, SingleFaultRecovery,
    ::testing::Values(
        FaultCase{"Drop", {.drop_rate = 0.4}, {"client.retry.timeouts"}},
        FaultCase{"Duplicate", {.duplicate_rate = 1.0}, {"client.retry.stale_responses"}},
        FaultCase{"Truncate", {.truncate_rate = 0.4}, {"client.retry.timeouts"}},
        FaultCase{"Corrupt", {.corrupt_rate = 0.4}, {"client.retry.verify_rejected"}},
        FaultCase{"TornDuplicate",
                  {.truncate_rate = 0.35, .duplicate_rate = 1.0},
                  {"client.retry.verify_rejected"}}),
    [](const auto& info) { return info.param.name; });

/// Answers the first query with a frame whose magic is wrong and every later
/// one with the SP's true answer, delivered at once.
class BadMagicOnceTransport final : public net::FrameTransport {
 public:
  explicit BadMagicOnceTransport(core::RangeStore& sp) : sp_(sp) {}

  bool Connect(uint64_t) override {
    Close();
    connected_ = true;
    return true;
  }
  void Close() override {
    connected_ = false;
    pending_.clear();
    decoder_ = net::FrameDecoder();
  }
  bool connected() const override { return connected_; }
  bool Send(const Bytes& bytes, uint64_t) override {
    net::FrameDecoder requests;
    requests.Feed(bytes.data(), bytes.size());
    net::Frame request;
    EXPECT_EQ(requests.Next(&request), net::FrameDecoder::Result::kFrame);
    const std::optional<core::QuerySpec> spec = net::ParseQuery2Body(request.body);
    EXPECT_TRUE(spec.has_value());
    pending_ = net::EncodeFrame(net::FrameType::kResponse, request.request_id,
                                sp_.SpecWire(*spec));
    if (sends_++ == 0) pending_[0] ^= 0xff;
    return true;
  }
  uint64_t NowUs() override { return now_us_; }
  void SleepUs(uint64_t us) override { now_us_ += us; }

 private:
  bool Receive(uint64_t deadline_us) override {
    if (pending_.empty()) {
      now_us_ = std::max(now_us_, deadline_us);
      error_ = "read timed out";
      return false;
    }
    decoder_.Feed(pending_.data(), pending_.size());
    pending_.clear();
    return true;
  }

  core::RangeStore& sp_;
  bool connected_ = false;
  uint64_t now_us_ = 0;
  uint64_t sends_ = 0;
  Bytes pending_;
};

TEST(Transport, FramingErrorCostsTheConnection) {
  auto db = MakeDb(17);
  auto& framing_errors =
      telemetry::MetricsRegistry::Global().counter("client.retry.framing_errors");
  const uint64_t before = framing_errors.value();
  net::RetryingClient client(*db, std::make_unique<BadMagicOnceTransport>(*db), {}, 1);

  ClientOutcome outcome = client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(framing_errors.value() - before, 1u);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.reconnects, 1u);
  EXPECT_EQ(outcome.result.objects, Truth(*db));
}

TEST(Transport, MixedFaultsMostQueriesRecover) {
  SeedReporter seed(2718);
  auto db = MakeDb(DeriveSeed(seed, 1));
  ChannelOptions faults;
  faults.drop_rate = 0.25;
  faults.corrupt_rate = 0.15;
  faults.truncate_rate = 0.10;
  faults.duplicate_rate = 0.20;
  faults.reorder_rate = 0.10;
  FlakyChannel channel(faults, DeriveSeed(seed, 2));
  RetryPolicy policy;
  net::RetryingClient client = Client(*db, channel, policy, DeriveSeed(seed, 3));
  const std::vector<Object> truth = Truth(*db);

  int ok = 0, degraded = 0;
  for (int q = 0; q < 50; ++q) {
    ClientOutcome outcome =
        client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
    if (outcome.ok) {
      ++ok;
      EXPECT_EQ(outcome.result.objects, truth);
      EXPECT_LE(outcome.elapsed_us, policy.deadline_us);
    } else {
      // Losing a query to an extreme run of faults is legal; hanging,
      // throwing, or failing silently is not.
      ++degraded;
      EXPECT_TRUE(outcome.degraded);
      EXPECT_NE(outcome.error.find("degraded"), std::string::npos);
    }
  }
  EXPECT_GE(ok, 45) << degraded << " degraded";
}

TEST(Transport, HopelessChannelDegradesGracefully) {
  SeedReporter seed(13);
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel({.drop_rate = 1.0}, DeriveSeed(seed, 2));
  RetryPolicy policy;
  net::RetryingClient client = Client(*db, channel, policy, DeriveSeed(seed, 3));

  ClientOutcome outcome =
      client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, policy.max_attempts);
  EXPECT_NE(outcome.error.find("timed out"), std::string::npos);
  // Virtual elapsed time stays within the policy's own arithmetic: attempts
  // plus backoff, never an unbounded spin.
  EXPECT_LE(outcome.elapsed_us,
            policy.max_attempts * policy.attempt_timeout_us +
                policy.max_attempts * (policy.max_backoff_us +
                                       policy.max_backoff_us / 2));
}

TEST(Transport, CorruptOnlyChannelNeverYieldsWrongResults) {
  // Corruption can cost retries but must never surface as a wrong verified
  // answer — the client either returns the true result or degrades.
  SeedReporter seed(99);
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel({.corrupt_rate = 1.0}, DeriveSeed(seed, 2));
  net::RetryingClient client = Client(*db, channel, {}, DeriveSeed(seed, 3));

  for (int q = 0; q < 10; ++q) {
    ClientOutcome outcome =
        client.AuthenticatedSpec(core::QuerySpec::Range(100, 50'000));
    if (!outcome.ok) continue;  // degraded is acceptable here
    core::VerifiedSpecResult truth =
        db->AuthenticatedSpec(core::QuerySpec::Range(100, 50'000));
    ASSERT_TRUE(truth.ok);
    EXPECT_EQ(outcome.result.objects, truth.objects);
  }
}

TEST(Transport, BackoffIsCappedExponentialWithDeterministicJitter) {
  RetryPolicy policy;
  Rng rng_a(5);
  Rng rng_b(5);
  uint64_t prev = 0;
  for (uint32_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    const uint64_t a = policy.BackoffUs(attempt, rng_a);
    const uint64_t b = policy.BackoffUs(attempt, rng_b);
    EXPECT_EQ(a, b) << "attempt " << attempt;  // same seed, same schedule
    EXPECT_GE(a, policy.base_backoff_us);
    EXPECT_LE(a, policy.max_backoff_us + policy.max_backoff_us / 2);
    if (attempt > 1 && prev < policy.max_backoff_us / 2) {
      EXPECT_GT(a, prev);  // grows until the cap region
    }
    prev = a;
  }
}

TEST(Transport, WholeScheduleReproducesFromSeeds) {
  SeedReporter seed(777);
  ChannelOptions faults;
  faults.drop_rate = 0.3;
  faults.truncate_rate = 0.2;
  faults.duplicate_rate = 0.2;

  auto run = [&] {
    auto db = MakeDb(DeriveSeed(seed, 1));
    FlakyChannel channel(faults, DeriveSeed(seed, 2));
    net::RetryingClient client = Client(*db, channel, {}, DeriveSeed(seed, 3));
    const std::vector<Object> truth = Truth(*db);
    std::vector<std::pair<uint32_t, uint64_t>> trace;
    for (int q = 0; q < 20; ++q) {
      ClientOutcome outcome =
          client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
      if (outcome.ok) {
        EXPECT_EQ(outcome.result.objects, truth);
      }
      trace.emplace_back(outcome.attempts, outcome.elapsed_us);
    }
    return std::make_pair(trace, channel.stats());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

}  // namespace
}  // namespace gem2::fault
