// Flaky-transport tests: the retrying client survives drops, duplicates,
// truncation, corruption, and reordering within its deadline, degrades
// gracefully when the network is hopeless, and every schedule is a pure
// function of the seed (virtual time — no sleeps, no wall-clock flakiness).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "core/authenticated_db.h"
#include "fault/fault.h"
#include "fault/transport.h"
#include "seed_util.h"
#include "workload/workload.h"

namespace gem2::fault {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
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
    if (!db->Contains(op.object.key)) EXPECT_TRUE(db->Insert(op.object).ok);
  }
  return db;
}

TEST(Transport, CleanChannelSucceedsFirstAttempt) {
  SeedReporter seed(1);
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel({}, DeriveSeed(seed, 2));
  RetryingClient client(*db, channel, {}, DeriveSeed(seed, 3));

  ClientOutcome outcome =
      client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.result.objects.size(), db->size());
  EXPECT_GT(outcome.elapsed_us, 0u);  // latency still accrues
}

// One fault kind per case. PrintTo keeps the printed parameter (and so the
// registered ctest name) free of pointer addresses, which vary run to run.
struct FaultCase {
  const char* name;
  ChannelOptions options;
  friend void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }
};

class SingleFaultRecovery : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SingleFaultRecovery, ClientRecoversWithinDeadline) {
  SeedReporter seed(42);
  auto db = MakeDb(DeriveSeed(seed, 1));
  FlakyChannel channel(GetParam().options, DeriveSeed(seed, 2));
  // A generous budget so recovery is near-certain under ANY seed (the
  // nightly job replays this test with a fresh one): ten attempts against a
  // 40% fault rate leaves ~1e-4 residual failure per query.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.deadline_us = 400'000;
  RetryingClient client(*db, channel, policy, DeriveSeed(seed, 3));

  int ok = 0, recovered_after_retry = 0;
  for (int q = 0; q < 30; ++q) {
    ClientOutcome outcome =
        client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
    if (outcome.ok) {
      ++ok;
      EXPECT_LE(outcome.elapsed_us, policy.deadline_us);
      EXPECT_EQ(outcome.result.objects.size(), db->size());
      if (outcome.attempts > 1) ++recovered_after_retry;
    } else {
      EXPECT_TRUE(outcome.degraded) << GetParam().name;
    }
  }
  EXPECT_GE(ok, 29) << GetParam().name;  // at most one freak loss per run
  // The channel actually misbehaved and the retry loop actually worked —
  // except for duplicates, which the client absorbs on the first attempt.
  if (std::string(GetParam().name) != "Duplicate") {
    EXPECT_GT(recovered_after_retry, 0) << GetParam().name;
  }
  EXPECT_GT(channel.stats().dropped + channel.stats().truncated +
                channel.stats().corrupted + channel.stats().duplicated,
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, SingleFaultRecovery,
    ::testing::Values(
        FaultCase{"Drop", {.drop_rate = 0.4}},
        FaultCase{"Duplicate", {.duplicate_rate = 1.0}},
        FaultCase{"Truncate", {.truncate_rate = 0.4}},
        FaultCase{"Corrupt", {.corrupt_rate = 0.4}}),
    [](const auto& info) { return info.param.name; });

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
  RetryingClient client(*db, channel, policy, DeriveSeed(seed, 3));

  int ok = 0, degraded = 0;
  for (int q = 0; q < 50; ++q) {
    ClientOutcome outcome =
        client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
    if (outcome.ok) {
      ++ok;
      EXPECT_EQ(outcome.result.objects.size(), db->size());
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
  RetryingClient client(*db, channel, policy, DeriveSeed(seed, 3));

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
  RetryingClient client(*db, channel, {}, DeriveSeed(seed, 3));

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
    RetryingClient client(*db, channel, {}, DeriveSeed(seed, 3));
    std::vector<std::pair<uint32_t, uint64_t>> trace;
    for (int q = 0; q < 20; ++q) {
      ClientOutcome outcome =
          client.AuthenticatedSpec(core::QuerySpec::Range(0, 100'000));
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
