// Client verification knobs: verifying a composite's slices on a client pool
// must agree with verifying them one after another bit-for-bit — same
// accept/reject decision, same error string, same objects — on honest
// responses and on every seeded composite forgery.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/authenticated_db.h"
#include "core/wire.h"
#include "fault/fault.h"
#include "fault/mutator.h"
#include "range_conjunct.h"
#include "shard/sharded_db.h"

namespace gem2::core {
namespace {

/// VerifiedSpecResult of two worlds verifying the same answer.
void ExpectBitIdentical(const VerifiedSpecResult& unpooled,
                        const VerifiedSpecResult& pooled, const char* what) {
  EXPECT_EQ(unpooled.ok, pooled.ok) << what;
  EXPECT_EQ(unpooled.error, pooled.error) << what;
  EXPECT_EQ(unpooled.objects, pooled.objects) << what;
}

shard::ShardOptions ShardConfig(common::ThreadPool* pool) {
  shard::ShardOptions options;
  options.bounds = {120, 240};
  options.base.kind = AdsKind::kGem2;
  options.base.gem2.m = 2;
  options.base.gem2.smax = 16;
  options.base.client.pool = pool;
  return options;
}

// Two identical sharded worlds, one verifying its slices serially and one
// fanning them out on a client pool: decisions, errors, and merged objects
// must match bit-for-bit, for honest composites and for every parse-surviving
// composite forgery.
TEST(BatchedVerify, PooledCompositeMatchesSerialBitForBit) {
  common::ThreadPool pool(3);
  shard::ShardedDb serial_db(ShardConfig(nullptr));
  shard::ShardedDb pooled_db(ShardConfig(&pool));
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
  EXPECT_EQ(options.client.pool, nullptr);
  AuthenticatedDb db(options);
  EXPECT_EQ(db.wire_version(), WireVersion::kV3);
  EXPECT_EQ(UnwrapTracedWire(db.SpecWire(QuerySpec::Range(0, 10))).image[0], 3);
}

}  // namespace
}  // namespace gem2::core
