// Serial vs batched client verification: the batched hash engine and the
// composite slice pool must agree with the serial verifier bit-for-bit —
// same accept/reject decision, same error string, same objects — on honest
// responses and on every seeded forgery, in both wire formats.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "ads_kinds.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "fault/fault.h"
#include "fault/mutator.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"

namespace gem2::core {
namespace {

std::unique_ptr<AuthenticatedDb> MakeDb(AdsKind kind) {
  DbOptions options;
  options.kind = kind;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  if (kind == AdsKind::kGem2Star) options.split_points = {100, 200};
  auto db = std::make_unique<AuthenticatedDb>(options);
  // Three-string value alphabet: many boundary entries share a value hash.
  for (Key k = 1; k <= 60; ++k) {
    db->Insert({k * 5, "value-" + std::to_string(k % 3)});
  }
  return db;
}

/// VerifiedResult (one conjunct) or VerifiedSpecResult (a whole answer).
template <typename Result>
void ExpectBitIdentical(const Result& serial, const Result& batched,
                        const char* what) {
  EXPECT_EQ(serial.ok, batched.ok) << what;
  EXPECT_EQ(serial.error, batched.error) << what;
  EXPECT_EQ(serial.objects, batched.objects) << what;
}

class BatchedVerify : public ::testing::TestWithParam<AdsKind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, BatchedVerify, testutil::AllKinds(),
                         testutil::KindParamName);

TEST_P(BatchedVerify, MatchesSerialOnHonestResponses) {
  auto db = MakeDb(GetParam());
  auto states = db->ReadChainState();
  ASSERT_EQ(states.size(), 1u);
  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{
           {40, 220}, {0, 300}, {150, 150}, {600, 900}, {kKeyMin, kKeyMax}}) {
    QueryResponse response = testutil::RangeConjunct(*db, lb, ub);
    VerifiedResult serial = VerifyResponse(states[0], true, GetParam(),
                                           response, ads::HashStrategy::kSerial);
    VerifiedResult batched = VerifyResponse(
        states[0], true, GetParam(), response, ads::HashStrategy::kBatched);
    ExpectBitIdentical(serial, batched, "honest response");
    EXPECT_TRUE(serial.ok) << serial.error;
  }
}

TEST_P(BatchedVerify, MatchesSerialOnEverySeededForgery) {
  auto db = MakeDb(GetParam());
  auto states = db->ReadChainState();
  ASSERT_EQ(states.size(), 1u);

  for (uint64_t stream : {0, 1}) {
    fault::ResponseMutator mutator(fault::DeriveSeed(8181, stream));
    Rng query_rng(fault::DeriveSeed(8181, 2));
    int parsed_count = 0;
    for (int round = 0; round < 120; ++round) {
      const Key lb = static_cast<Key>(query_rng.Uniform(0, 320));
      const Key ub =
          lb + static_cast<Key>(query_rng.Uniform(0, 320 - static_cast<uint64_t>(lb)));
      QueryResponse response = testutil::RangeConjunct(*db, lb, ub);
      fault::Mutation mutation = mutator.Mutate(response);
      auto parsed = ParseResponse(mutation.wire);
      if (!parsed.has_value()) continue;  // rejected at the codec: no verdict
      ++parsed_count;
      VerifiedResult serial = VerifyResponse(states[0], true, GetParam(),
                                             *parsed, ads::HashStrategy::kSerial);
      VerifiedResult batched = VerifyResponse(
          states[0], true, GetParam(), *parsed, ads::HashStrategy::kBatched);
      ExpectBitIdentical(serial, batched,
                         fault::MutationOpName(mutation.op).c_str());
    }
    // The loop must reach the verifier, not just the codec.
    EXPECT_GT(parsed_count, 20) << "mutation stream " << stream;
  }
}

shard::ShardOptions ShardConfig(bool batched, common::ThreadPool* pool) {
  shard::ShardOptions options;
  options.bounds = {120, 240};
  options.base.kind = AdsKind::kGem2;
  options.base.gem2.m = 2;
  options.base.gem2.smax = 16;
  options.base.client.batched_hashing = batched;
  options.base.client.pool = pool;
  return options;
}

// Two identical sharded worlds, one verifying serially and one with batched
// hashing plus a client pool fanning the slices out: decisions, errors, and
// merged objects must match bit-for-bit, for honest composites and for every
// parse-surviving composite forgery.
TEST(BatchedVerify, PooledCompositeMatchesSerialBitForBit) {
  common::ThreadPool pool(3);
  shard::ShardedDb serial_db(ShardConfig(false, nullptr));
  shard::ShardedDb pooled_db(ShardConfig(true, &pool));
  for (Key k = 1; k <= 60; ++k) {
    const Object object{k * 5, "value-" + std::to_string(k % 3)};
    ASSERT_TRUE(serial_db.Insert(object).ok);
    ASSERT_TRUE(pooled_db.Insert(object).ok);
  }
  auto serial_states = serial_db.ReadChainState();
  auto pooled_states = pooled_db.ReadChainState();

  for (auto [lb, ub] : std::vector<std::pair<Key, Key>>{
           {40, 220}, {0, 300}, {130, 250}, {600, 900}}) {
    QueryResponse response = testutil::RangeConjunct(serial_db, lb, ub);
    VerifiedSpecResult serial = testutil::VerifyConjunctAgainst(
        serial_db, serial_states, response.lb, response.ub, response);
    VerifiedSpecResult pooled = testutil::VerifyConjunctAgainst(
        pooled_db, pooled_states, response.lb, response.ub, response);
    ExpectBitIdentical(serial, pooled, "honest composite");
    EXPECT_TRUE(serial.ok) << serial.error;
  }

  fault::ResponseMutator mutator(fault::DeriveSeed(2727, 1));
  QueryResponse full = testutil::RangeConjunct(serial_db, 0, 300);
  ASSERT_EQ(full.slices.size(), 3u);
  int parsed_count = 0;
  for (int round = 0; round < 80; ++round) {
    fault::CompositeMutation mutation = mutator.MutateComposite(full);
    auto parsed = ParseResponse(mutation.wire);
    if (!parsed.has_value()) continue;
    ++parsed_count;
    VerifiedSpecResult serial = testutil::VerifyConjunctAgainst(
        serial_db, serial_states, parsed->lb, parsed->ub, *parsed);
    VerifiedSpecResult pooled = testutil::VerifyConjunctAgainst(
        pooled_db, pooled_states, parsed->lb, parsed->ub, *parsed);
    ExpectBitIdentical(serial, pooled,
                       fault::CompositeMutationOpName(mutation.op).c_str());
    EXPECT_FALSE(serial.ok) << "composite forgery accepted: "
                            << fault::CompositeMutationOpName(mutation.op);
  }
  EXPECT_GT(parsed_count, 20);
}

TEST(BatchedVerify, BatchedHashingIsTheDefaultAndV3TheWireFormat) {
  DbOptions options;
  EXPECT_TRUE(options.client.batched_hashing);
  EXPECT_EQ(options.client.pool, nullptr);
  AuthenticatedDb db(options);
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);
  EXPECT_EQ(UnwrapTracedWire(db.SpecWire(QuerySpec::Range(0, 10))).image[0], 3);
}

}  // namespace
}  // namespace gem2::core
