// Crash-recovery tests: an SP rebuilt from the durable journal matches the
// on-chain commitment bit-for-bit and resumes service; a recovery that lost
// the journal's tail is caught by the client; and a randomized gas-limit
// sweep shows out-of-gas rollback leaves state identical to never having run
// the transaction.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>

#include "core/authenticated_db.h"
#include "fault/fault.h"
#include "fault/recovery.h"
#include "seed_util.h"
#include "workload/workload.h"

namespace gem2::fault {
namespace {

using core::AdsKind;
using core::AuthenticatedDb;
using core::DbOptions;
using testutil::SeedReporter;

DbOptions MakeOptions(AdsKind kind) {
  DbOptions options;
  options.kind = kind;
  options.gem2.m = 4;
  options.gem2.smax = 64;
  options.env.gas_limit = 1'000'000'000'000ull;
  if (kind == AdsKind::kGem2Star) options.split_points = {250'000, 500'000, 750'000};
  return options;
}

class CrashRecovery : public ::testing::TestWithParam<AdsKind> {};

TEST_P(CrashRecovery, RebuiltSpMatchesChainCommitmentBitForBit) {
  SeedReporter seed(6060);
  const size_t ops =
      (GetParam() == AdsKind::kSmbTree || GetParam() == AdsKind::kLsm) ? 80 : 200;
  CrashReport report = CrashAndRecover(MakeOptions(GetParam()), seed, ops);

  EXPECT_EQ(report.replayed, report.total_ops);  // post-commit journal: no loss
  EXPECT_TRUE(report.digests_match) << report.error;
  EXPECT_TRUE(report.state_root_match) << report.error;
  EXPECT_TRUE(report.query_ok) << report.error;
  EXPECT_TRUE(report.resumed) << report.error;
}

TEST_P(CrashRecovery, RecoveryIsDeterministic) {
  SeedReporter seed(8899);
  const CrashReport a = CrashAndRecover(MakeOptions(GetParam()), seed, 60);
  const CrashReport b = CrashAndRecover(MakeOptions(GetParam()), seed, 60);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.digests_match, b.digests_match);
  EXPECT_EQ(a.state_root_match, b.state_root_match);
  EXPECT_EQ(a.error, b.error);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CrashRecovery,
                         ::testing::Values(AdsKind::kMbTree, AdsKind::kSmbTree,
                                           AdsKind::kLsm, AdsKind::kGem2,
                                           AdsKind::kGem2Star),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case AdsKind::kMbTree: return "MbTree";
                             case AdsKind::kSmbTree: return "SmbTree";
                             case AdsKind::kLsm: return "Lsm";
                             case AdsKind::kGem2: return "Gem2";
                             case AdsKind::kGem2Star: return "Gem2Star";
                           }
                           return "Unknown";
                         });

TEST(CrashRecovery, TruncatedJournalCannotServeTheCurrentChain) {
  // A crash that lost the tail of the durable log: the SP rebuilds from a
  // prefix and comes up self-consistent — but the client, verifying against
  // the REAL chain's digests, catches the staleness.
  SeedReporter seed(1212);
  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;
  wopts.seed = DeriveSeed(seed, 1);
  workload::WorkloadGenerator gen(wopts);

  AuthenticatedDb reference(MakeOptions(AdsKind::kGem2));
  for (const workload::Operation& op : gen.Batch(120)) {
    if (!reference.Contains(op.object.key)) {
      ASSERT_TRUE(reference.Insert(op.object).ok);
    }
  }

  const core::Journal lost_tail = reference.journal().Prefix(
      reference.journal().size() / 2);
  std::unique_ptr<AuthenticatedDb> stale =
      AuthenticatedDb::Replay(MakeOptions(AdsKind::kGem2), lost_tail);

  // Self-consistent in isolation...
  EXPECT_TRUE(
      stale->AuthenticatedSpec(core::QuerySpec::Range(kKeyMin, kKeyMax)).ok);
  // ...but its answers cannot verify against the chain that kept going.
  core::VerifiedResult cross =
      CrossVerifyAgainst(reference, *stale, kKeyMin, kKeyMax);
  EXPECT_FALSE(cross.ok);
  EXPECT_FALSE(cross.error.empty());

  // The full journal, by contrast, cross-verifies cleanly.
  std::unique_ptr<AuthenticatedDb> complete =
      AuthenticatedDb::Replay(MakeOptions(AdsKind::kGem2), reference.journal());
  EXPECT_TRUE(CrossVerifyAgainst(reference, *complete, kKeyMin, kKeyMax).ok);
}

TEST(CrashRecovery, TornTailTruncatesAndTheClientCatchesTheStaleness) {
  // Power cut sheared bytes off the final segment mid-record: recovery
  // truncates to the valid prefix (tail-lost, not corruption), and the
  // rebuilt SP — missing acked ops — no longer matches the chain commitment.
  SeedReporter seed(7711);
  CrashReport report = CrashAndRecoverDamaged(MakeOptions(AdsKind::kGem2),
                                              seed, 100,
                                              /*torn_tail_bytes=*/37,
                                              /*flip_offset=*/-1,
                                              /*flip_mask=*/0);
  EXPECT_FALSE(report.failed_closed) << report.error;
  EXPECT_TRUE(report.tail_lost);
  EXPECT_GT(report.truncated_bytes, 0u);
  EXPECT_LT(report.replayed, report.total_ops);
  EXPECT_FALSE(report.digests_match);  // the client's anchor catches it
}

TEST(CrashRecovery, MidStreamBitRotFailsClosed) {
  // One flipped bit early in the durable log, with valid records after it:
  // unattributable damage. Recovery must refuse to serve anything rather
  // than resync past the hole.
  SeedReporter seed(7722);
  CrashReport report = CrashAndRecoverDamaged(MakeOptions(AdsKind::kGem2),
                                              seed, 100,
                                              /*torn_tail_bytes=*/0,
                                              /*flip_offset=*/40,
                                              /*flip_mask=*/0x40);
  EXPECT_TRUE(report.failed_closed);
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(report.corrupt_records, 1u);
  EXPECT_FALSE(report.digests_match);
  EXPECT_NE(report.error.find("failed closed"), std::string::npos)
      << report.error;
}

TEST(CrashRecovery, DamagedRecoveryIsDeterministic) {
  SeedReporter seed(7733);
  const CrashReport a = CrashAndRecoverDamaged(MakeOptions(AdsKind::kGem2),
                                               seed, 60, 21, -1, 0);
  const CrashReport b = CrashAndRecoverDamaged(MakeOptions(AdsKind::kGem2),
                                               seed, 60, 21, -1, 0);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.truncated_bytes, b.truncated_bytes);
  EXPECT_EQ(a.tail_lost, b.tail_lost);
  EXPECT_EQ(a.failed_closed, b.failed_closed);
  EXPECT_EQ(a.error, b.error);
}

TEST(CrashRecovery, RecoverFromPrefixVerdictTracksWhatTheTailHeld) {
  // The one-call client check: a stale SP (lost tail) fails verification
  // against the live chain; a complete one passes.
  SeedReporter seed(7744);
  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;
  wopts.seed = DeriveSeed(seed, 3);
  workload::WorkloadGenerator gen(wopts);
  AuthenticatedDb reference(MakeOptions(AdsKind::kGem2));
  for (const workload::Operation& op : gen.Batch(90)) {
    if (!reference.Contains(op.object.key)) {
      ASSERT_TRUE(reference.Insert(op.object).ok);
    }
  }

  core::VerifiedResult stale =
      RecoverFromPrefix(MakeOptions(AdsKind::kGem2), reference,
                        reference.journal().size() / 2, kKeyMin, kKeyMax);
  EXPECT_FALSE(stale.ok);
  EXPECT_FALSE(stale.error.empty());

  core::VerifiedResult complete =
      RecoverFromPrefix(MakeOptions(AdsKind::kGem2), reference,
                        reference.journal().size(), kKeyMin, kKeyMax);
  EXPECT_TRUE(complete.ok) << complete.error;
}

TEST(GasSweep, AbortedTransactionsLeaveNoTrace) {
  SeedReporter seed(4242);
  GasSweepReport report = GasLimitSweep(MakeOptions(AdsKind::kGem2), seed, 40);

  EXPECT_EQ(report.draws, 40);
  EXPECT_EQ(report.aborted + report.committed, report.draws);
  // The log-uniform limit range straddles the batch cost: the sweep must
  // actually exercise both outcomes to prove anything.
  EXPECT_GT(report.aborted, 0);
  EXPECT_GT(report.committed, 0);
  EXPECT_TRUE(report.state_preserved) << report.error;
}

TEST(GasSweep, SweepReproducesFromSeedAlone) {
  SeedReporter seed(5353);
  const GasSweepReport a = GasLimitSweep(MakeOptions(AdsKind::kGem2), seed, 12);
  const GasSweepReport b = GasLimitSweep(MakeOptions(AdsKind::kGem2), seed, 12);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.state_preserved) << a.error;
}

TEST(GasSweep, CoversOtherAdsKinds) {
  // The rollback property is ADS-independent; spot-check the baselines with
  // a smaller sweep.
  SeedReporter seed(6464);
  for (AdsKind kind : {AdsKind::kMbTree, AdsKind::kGem2Star}) {
    GasSweepReport report = GasLimitSweep(MakeOptions(kind), DeriveSeed(seed, 7), 12);
    EXPECT_TRUE(report.state_preserved)
        << core::AdsKindName(kind) << ": " << report.error;
    EXPECT_EQ(report.aborted + report.committed, report.draws);
  }
}

}  // namespace
}  // namespace gem2::fault
