// Journal and SP-recovery tests: deterministic replay reconstructs identical
// on-chain digests and query results; corrupted journals never load silently.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"
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

  AuthenticatedDb original(Options(GetParam()));
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
  ASSERT_GT(original.journal().size(), 250u);

  // Ship the journal as bytes (SP recovery artifact) and replay it.
  Bytes wire = original.journal().Serialize();
  auto parsed = Journal::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(*parsed, original.journal());

  std::unique_ptr<AuthenticatedDb> rebuilt =
      AuthenticatedDb::Replay(Options(GetParam()), *parsed);

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

TEST(Journal, SerializationRejectsCorruption) {
  Journal journal;
  journal.Record({JournalEntry::Op::kInsert, {1, "hello"}});
  journal.Record({JournalEntry::Op::kDelete, {1, ""}});
  Bytes wire = journal.Serialize();

  EXPECT_FALSE(Journal::Parse({}).has_value());
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(Journal::Parse(truncated).has_value());
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(Journal::Parse(padded).has_value());
  Bytes bad_op = wire;
  bad_op[9 + 0] = 9;  // first entry's op byte
  EXPECT_FALSE(Journal::Parse(bad_op).has_value());
}

TEST(Journal, ParseExDistinguishesChecksumDamageFromStructuralDamage) {
  Journal journal;
  journal.Record({JournalEntry::Op::kInsert, {1, "hello"}});
  journal.Record({JournalEntry::Op::kInsert, {2, "world"}});
  journal.Record({JournalEntry::Op::kDelete, {1, ""}});
  Bytes wire = journal.Serialize();
  ASSERT_EQ(wire[0], 2);  // format v2

  // Bit rot inside the SECOND record's value: structure is intact, only the
  // checksum catches it — and it names the failing record.
  Bytes rotten = wire;
  const size_t record0 = 9 + (1 + 8 + 8 + 5) + 4;  // header + entry 0 + crc
  rotten[record0 + 1 + 8 + 8 + 2] ^= 0x20;         // entry 1, value byte 2
  JournalParseResult rot = Journal::ParseEx(rotten);
  EXPECT_FALSE(rot.journal.has_value());
  EXPECT_EQ(rot.error, JournalParseError::kChecksum);
  EXPECT_EQ(rot.record_index, 1u);

  // Structural damage (truncation) is kMalformed, not kChecksum.
  Bytes truncated(wire.begin(), wire.end() - 2);
  JournalParseResult torn = Journal::ParseEx(truncated);
  EXPECT_FALSE(torn.journal.has_value());
  EXPECT_EQ(torn.error, JournalParseError::kMalformed);

  JournalParseResult clean = Journal::ParseEx(wire);
  ASSERT_TRUE(clean.journal.has_value());
  EXPECT_EQ(clean.error, JournalParseError::kNone);
  EXPECT_EQ(*clean.journal, journal);
}

TEST(Journal, LegacyV1ImagesStillParseForOneRelease) {
  // A pre-upgrade recovery artifact: version byte 1, no per-record CRCs.
  Journal journal;
  journal.Record({JournalEntry::Op::kInsert, {7, "seven"}});
  journal.Record({JournalEntry::Op::kUpdate, {7, "seven!"}});
  Bytes v1;
  v1.push_back(1);
  AppendUint64(&v1, journal.size());
  for (const JournalEntry& e : journal.entries()) {
    AppendJournalEntryBody(&v1, e);
  }

  JournalParseResult parsed = Journal::ParseEx(v1);
  ASSERT_TRUE(parsed.journal.has_value());
  EXPECT_EQ(*parsed.journal, journal);

  // v1 offers no checksum protection, so trailing garbage is still caught
  // structurally, and an unknown version byte is rejected outright.
  Bytes padded = v1;
  padded.push_back(0);
  EXPECT_FALSE(Journal::ParseEx(padded).journal.has_value());
  Bytes v3 = v1;
  v3[0] = 3;
  EXPECT_FALSE(Journal::ParseEx(v3).journal.has_value());
}

TEST(Journal, CorruptedPayloadSurfacesAsDigestDivergence) {
  AuthenticatedDb original(Options(AdsKind::kGem2));
  for (Key k = 1; k <= 30; ++k) original.Insert({k, "v" + std::to_string(k)});

  Journal tampered = original.journal();
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

TEST(Journal, ReplayAbortsOnInvalidStream) {
  Journal bad;
  bad.Record({JournalEntry::Op::kUpdate, {42, "no such key"}});
  EXPECT_THROW(AuthenticatedDb::Replay(Options(AdsKind::kGem2), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace gem2::core
