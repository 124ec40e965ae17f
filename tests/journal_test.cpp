// Journal and SP-recovery tests: deterministic replay reconstructs identical
// on-chain digests and query results; a forged entry surfaces as a digest
// divergence.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"
#include "store/durable_journal.h"
#include "store/vfs.h"
#include "workload/workload.h"

namespace gem2::core {
namespace {

DbOptions Options(AdsKind kind) {
  DbOptions o;
  o.kind = kind;
  o.gem2.m = 2;
  o.gem2.smax = 16;
  if (kind == AdsKind::kGem2Star) o.split_points = {250'000, 500'000, 750'000};
  o.env.gas_limit = 1'000'000'000'000ull;
  return o;
}

class JournalReplayTest : public ::testing::TestWithParam<AdsKind> {};

TEST_P(JournalReplayTest, ReplayReconstructsIdenticalState) {
  workload::WorkloadOptions wopts;
  wopts.update_ratio = 0.25;
  wopts.seed = 31;
  workload::WorkloadGenerator gen(wopts);

  Journal journal;
  DbOptions options = Options(GetParam());
  options.journal_sink = &journal;
  AuthenticatedDb original(options);
  for (int i = 0; i < 250; ++i) {
    workload::Operation op = gen.Next();
    if (op.type == workload::Operation::Type::kInsert ||
        !original.Contains(op.object.key)) {
      original.Insert(op.object);  // fresh key, or revive after a delete
    } else {
      original.Update(op.object);
    }
    if (i % 40 == 17) original.Delete(op.object.key);
  }
  ASSERT_GT(journal.size(), 250u);

  // Ship the journal through its on-disk segment format (the SP recovery
  // artifact) and replay what recovery reads back.
  store::MemVfs disk;
  std::string error;
  {
    auto durable = store::DurableJournal::Open(&disk, "/sp", 0,
                                               store::JournalOptions{}, &error);
    ASSERT_NE(durable, nullptr) << error;
    for (const JournalEntry& e : journal.entries()) {
      ASSERT_TRUE(durable->Append(e));
    }
  }
  const store::JournalRecovery recovery = store::RecoverJournal(&disk, "/sp");
  ASSERT_TRUE(recovery.ok) << recovery.error;
  ASSERT_EQ(recovery.entries, journal.entries());
  Journal shipped;
  for (const JournalEntry& e : recovery.entries) shipped.Record(e);

  std::unique_ptr<AuthenticatedDb> rebuilt =
      AuthenticatedDb::Replay(Options(GetParam()), shipped);

  EXPECT_EQ(rebuilt->size(), original.size());
  EXPECT_EQ(rebuilt->ChainDigests(), original.ChainDigests());
  rebuilt->CheckConsistency();

  // Authenticated queries against the rebuilt instance match the original.
  VerifiedSpecResult a =
      original.AuthenticatedSpec(QuerySpec::Range(0, 1'000'000'000));
  VerifiedSpecResult b =
      rebuilt->AuthenticatedSpec(QuerySpec::Range(0, 1'000'000'000));
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.tombstones_filtered, b.tombstones_filtered);
}

INSTANTIATE_TEST_SUITE_P(Kinds, JournalReplayTest,
                         ::testing::Values(AdsKind::kMbTree, AdsKind::kGem2,
                                           AdsKind::kGem2Star),
                         [](const auto& info) {
                           switch (info.param) {
                             case AdsKind::kMbTree:
                               return "MbTree";
                             case AdsKind::kGem2:
                               return "Gem2";
                             case AdsKind::kGem2Star:
                               return "Gem2Star";
                             default:
                               return "Other";
                           }
                         });

TEST(Journal, CorruptedPayloadSurfacesAsDigestDivergence) {
  Journal journal;
  DbOptions options = Options(AdsKind::kGem2);
  options.journal_sink = &journal;
  AuthenticatedDb original(options);
  for (Key k = 1; k <= 30; ++k) original.Insert({k, "v" + std::to_string(k)});

  Journal tampered = journal;
  // Forge one payload byte; the journal still parses and replays, but the
  // rebuilt digests no longer match the chain's.
  Journal forged;
  for (size_t i = 0; i < tampered.entries().size(); ++i) {
    JournalEntry e = tampered.entries()[i];
    if (i == 10) e.object.value[0] ^= 1;
    forged.Record(std::move(e));
  }
  auto rebuilt = AuthenticatedDb::Replay(Options(AdsKind::kGem2), forged);
  EXPECT_NE(rebuilt->ChainDigests(), original.ChainDigests());
}

TEST(Journal, AttachedJournalRecordsTheOpStreamAndReplaysIt) {
  Journal journal;
  DbOptions options = Options(AdsKind::kGem2);
  options.journal_sink = &journal;
  AuthenticatedDb original(options);

  std::vector<JournalEntry> expected;
  auto insert = [&](Key k, const std::string& v) {
    ASSERT_TRUE(original.Insert({k, v}).ok);
    expected.push_back({JournalEntry::Op::kInsert, {k, v}});
  };
  for (Key k = 1; k <= 40; ++k) insert(k, "v" + std::to_string(k));
  ASSERT_TRUE(original.Update({7, "seven"}).ok);
  expected.push_back({JournalEntry::Op::kUpdate, {7, "seven"}});
  ASSERT_TRUE(original.Delete(9).ok);
  expected.push_back({JournalEntry::Op::kDelete, {9, ""}});
  insert(9, "revived");
  // One transaction, one entry per object.
  std::vector<Object> batch;
  for (Key k = 100; k < 125; ++k) batch.push_back({k, "b" + std::to_string(k)});
  ASSERT_TRUE(original.InsertBatch(batch).ok);
  for (const Object& obj : batch) {
    expected.push_back({JournalEntry::Op::kInsert, obj});
  }
  insert(200, "after the batch");

  EXPECT_EQ(journal.entries(), expected);
  std::unique_ptr<AuthenticatedDb> rebuilt =
      AuthenticatedDb::Replay(Options(AdsKind::kGem2), journal);
  EXPECT_EQ(rebuilt->size(), original.size());
  EXPECT_EQ(rebuilt->ChainDigests(), original.ChainDigests());
  EXPECT_EQ(rebuilt->environment().CurrentStateRoot(),
            original.environment().CurrentStateRoot());
}

TEST(Journal, ReplayIntoItsOwnJournalResumesIt) {
  Journal journal;
  DbOptions options = Options(AdsKind::kGem2);
  options.journal_sink = &journal;
  {
    AuthenticatedDb original(options);
    for (Key k = 1; k <= 10; ++k) original.Insert({k, "v" + std::to_string(k)});
  }
  ASSERT_EQ(journal.size(), 10u);

  // The sink is attached after the last replayed op: the replay appends
  // nothing, and the rebuilt db journals its new ops behind the old ones.
  std::unique_ptr<AuthenticatedDb> resumed = AuthenticatedDb::Replay(options, journal);
  EXPECT_EQ(journal.size(), 10u);
  ASSERT_TRUE(resumed->Insert({11, "v11"}).ok);
  EXPECT_EQ(journal.size(), 11u);

  std::unique_ptr<AuthenticatedDb> again =
      AuthenticatedDb::Replay(Options(AdsKind::kGem2), journal);
  EXPECT_EQ(again->ChainDigests(), resumed->ChainDigests());
}

TEST(Journal, ReplayAbortsOnInvalidStream) {
  Journal bad;
  bad.Record({JournalEntry::Op::kUpdate, {42, "no such key"}});
  EXPECT_THROW(AuthenticatedDb::Replay(Options(AdsKind::kGem2), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace gem2::core
