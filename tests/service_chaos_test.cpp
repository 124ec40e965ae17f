// Socket chaos: the deterministic flaky-channel operators (drop, corrupt,
// truncate, duplicate, reorder, latency) replayed against LIVE response
// traffic through the in-process ChaosProxy, with the retrying socket client
// running its full discipline — reconnect on framing damage, retry on
// timeout, verify every response. The invariant under every schedule: a
// query either returns the exact ground-truth result or degrades explicitly;
// a damaged or stale response is NEVER accepted. Schedules are pure
// functions of the seed (seed_util.h prints the reproduction recipe).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "core/authenticated_db.h"
#include "core/query_engine.h"
#include "fault/fault.h"
#include "fault/transport.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/server.h"
#include "seed_util.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace gem2::net {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using fault::ChannelOptions;
using fault::DeriveSeed;
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

/// Retry policy tuned for real sockets: generous per-attempt timeouts (the
/// in-memory harness uses virtual time; here poll() waits wall-clock).
RetryPolicy SocketPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.attempt_timeout_us = 250'000;
  policy.deadline_us = 5'000'000;
  policy.base_backoff_us = 1'000;
  policy.max_backoff_us = 20'000;
  return policy;
}

struct SweepResult {
  int ok = 0;
  int degraded = 0;
  uint64_t busy = 0;
  fault::ChannelStats channel;
};

/// Runs `queries` ranges through a fresh server + chaos proxy + retrying
/// client and checks the core invariant on every outcome: an ok result is
/// bit-for-bit the ground truth; anything else is an explicit degradation.
SweepResult RunSweep(uint64_t seed, const ChannelOptions& channel,
                     int queries) {
  auto db = MakeDb(DeriveSeed(seed, 1));
  core::SpQueryEngine engine(db.get());
  ServerOptions sopts;
  sopts.worker_threads = 2;
  SpServer server(engine, sopts);
  server.Start();

  ChaosOptions copts;
  copts.channel = channel;
  copts.seed = DeriveSeed(seed, 2);
  copts.latency_scale = 0.01;  // injected latency in real time, compressed
  ChaosProxy proxy(server.port(), copts);
  proxy.Start();

  RetryingClient client(*db, proxy.port(), SocketPolicy(),
                              DeriveSeed(seed, 3));
  workload::WorkloadOptions wopts;
  wopts.domain_max = 100'000;
  wopts.seed = DeriveSeed(seed, 4);
  workload::WorkloadGenerator gen(wopts);

  SweepResult out;
  for (int q = 0; q < queries; ++q) {
    const workload::RangeQuerySpec range = gen.NextQuery(0.1);
    const Key lb = range.lb, ub = range.ub;
    const ClientOutcome outcome =
        client.AuthenticatedSpec(core::QuerySpec::Range(lb, ub));
    out.busy += outcome.busy_responses;
    if (!outcome.ok) {
      // Graceful degradation is allowed under chaos; silent failure is not.
      EXPECT_TRUE(outcome.degraded);
      EXPECT_FALSE(outcome.error.empty());
      ++out.degraded;
      continue;
    }
    ++out.ok;
    // THE invariant: an accepted result equals the ground truth exactly.
    // Any corrupted, truncated, or stale image the client let through would
    // show up right here.
    const core::VerifiedSpecResult truth =
        db->AuthenticatedSpec(core::QuerySpec::Range(lb, ub));
    EXPECT_TRUE(truth.ok) << truth.error;
    EXPECT_EQ(outcome.result.objects.size(), truth.objects.size())
        << "accepted result diverges from ground truth [" << lb << "," << ub
        << "]";
    if (outcome.result.objects.size() != truth.objects.size()) continue;
    for (size_t i = 0; i < truth.objects.size(); ++i) {
      EXPECT_EQ(outcome.result.objects[i].key, truth.objects[i].key);
      EXPECT_EQ(outcome.result.objects[i].value, truth.objects[i].value);
    }
  }
  out.channel = proxy.stats();
  proxy.Stop();
  server.Stop();
  return out;
}

TEST(ServiceChaos, CleanProxyPassesEverythingFirstAttempt) {
  SeedReporter seed(501);
  const SweepResult r = RunSweep(seed, ChannelOptions{}, 20);
  EXPECT_EQ(r.ok, 20);
  EXPECT_EQ(r.degraded, 0);
  EXPECT_EQ(r.channel.dropped, 0u);
  EXPECT_EQ(r.channel.corrupted, 0u);
}

// One fault kind per case. PrintTo keeps the printed parameter (and so the
// registered ctest name) free of pointer addresses, which vary run to run.
struct SocketFaultCase {
  const char* name;
  ChannelOptions channel;
  friend void PrintTo(const SocketFaultCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class SingleSocketFault : public ::testing::TestWithParam<SocketFaultCase> {};

TEST_P(SingleSocketFault, ClientRecoversAndNeverAcceptsDamage) {
  SeedReporter seed(502);
  const auto& [name, channel] = GetParam();
  const SweepResult r = RunSweep(DeriveSeed(seed, 7), channel, 30);
  // Moderate single-fault rates: the retrying client should land almost
  // everything inside its attempt budget.
  EXPECT_GE(r.ok, 25) << name << " degraded " << r.degraded;
  // The faults must actually have fired, or this test proves nothing.
  const auto& cs = r.channel;
  EXPECT_GT(cs.dropped + cs.corrupted + cs.truncated + cs.duplicated +
                cs.reordered,
            0u)
      << name;
}

ChannelOptions Opt(double ChannelOptions::* field, double rate) {
  ChannelOptions options;
  options.*field = rate;
  options.latency_us = 200;
  options.jitter_us = 100;
  return options;
}

INSTANTIATE_TEST_SUITE_P(
    Operators, SingleSocketFault,
    ::testing::Values(
        SocketFaultCase{"drop", Opt(&ChannelOptions::drop_rate, 0.2)},
        SocketFaultCase{"corrupt", Opt(&ChannelOptions::corrupt_rate, 0.25)},
        SocketFaultCase{"truncate",
                        Opt(&ChannelOptions::truncate_rate, 0.25)},
        SocketFaultCase{"duplicate",
                        Opt(&ChannelOptions::duplicate_rate, 0.3)},
        SocketFaultCase{"reorder", Opt(&ChannelOptions::reorder_rate, 0.25)}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ServiceChaos, HostileChannelDegradesGracefullyNeverWrongly) {
  SeedReporter seed(503);
  ChannelOptions hostile;
  hostile.drop_rate = 0.3;
  hostile.corrupt_rate = 0.3;
  hostile.truncate_rate = 0.2;
  hostile.duplicate_rate = 0.2;
  hostile.reorder_rate = 0.2;
  hostile.latency_us = 500;
  hostile.jitter_us = 500;
  const SweepResult r = RunSweep(DeriveSeed(seed, 11), hostile, 20);
  // Under heavy compound fire some queries may degrade — but every single
  // accepted answer was ground truth (asserted inside RunSweep), and the
  // client visibly rejected the damaged images it saw.
  EXPECT_EQ(r.ok + r.degraded, 20);
  EXPECT_GT(r.channel.corrupted + r.channel.truncated, 0u);
}

TEST(ServiceChaos, CorruptionIsRejectedByVerificationNotLuck) {
  SeedReporter seed(504);
  auto& rejected =
      telemetry::MetricsRegistry::Global().counter("client.retry.verify_rejected");
  const uint64_t before = rejected.value();
  ChannelOptions corrupt;
  corrupt.corrupt_rate = 0.5;
  corrupt.latency_us = 100;
  corrupt.jitter_us = 50;
  const SweepResult r = RunSweep(DeriveSeed(seed, 13), corrupt, 30);
  EXPECT_GT(r.channel.corrupted, 0u);
  // At 50% corruption across 30 queries, verification (or fail-closed
  // framing) must have rejected at least one damaged image explicitly; the
  // counter proves rejections happened at the verifier, not by accident.
  EXPECT_GT(r.ok, 0);
  if (r.channel.corrupted > 5) {
    EXPECT_GT(rejected.value() + r.degraded, before)
        << "corruption fired but nothing was ever rejected";
  }
}

TEST(ServiceChaos, ScheduleIsAPureFunctionOfTheSeed) {
  SeedReporter seed(505);
  ChannelOptions channel;
  channel.drop_rate = 0.2;
  channel.corrupt_rate = 0.2;
  channel.latency_us = 100;
  channel.jitter_us = 100;
  // Same seed twice: identical channel decisions (sent counts can differ by
  // retry timing only if the client behaves differently, so compare the
  // decision fractions loosely — the channel stream itself is deterministic
  // per transmitted frame).
  const SweepResult a = RunSweep(DeriveSeed(seed, 17), channel, 15);
  const SweepResult b = RunSweep(DeriveSeed(seed, 17), channel, 15);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.channel.sent, b.channel.sent);
  EXPECT_EQ(a.channel.dropped, b.channel.dropped);
  EXPECT_EQ(a.channel.corrupted, b.channel.corrupted);
}

}  // namespace
}  // namespace gem2::net
