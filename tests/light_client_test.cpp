// Light-client (SPV) tests: header-only sync, fork/PoW rejection, and
// VO_chain anchoring at the tip.
#include <gtest/gtest.h>

#include "chain/light_client.h"

#include "crypto/digest.h"
#include "core/authenticated_db.h"

namespace gem2::chain {
namespace {

Blockchain MakeChain(int blocks, uint32_t difficulty = 4) {
  Blockchain chain(difficulty);
  for (int i = 0; i < blocks; ++i) {
    Transaction tx;
    tx.seq = static_cast<uint64_t>(i);
    tx.contract = "ads";
    chain.Append({tx}, crypto::EmptyTreeDigest(), static_cast<uint64_t>(i));
  }
  return chain;
}

TEST(LightClient, SyncsHonestChain) {
  Blockchain chain = MakeChain(5);
  LightClient client(chain.headers().front());
  EXPECT_EQ(client.Sync(chain.headers()), 5u);
  EXPECT_EQ(client.height(), 5u);
  EXPECT_EQ(client.tip().Digest(), chain.latest().Digest());
  // Re-sync is a no-op.
  EXPECT_EQ(client.Sync(chain.headers()), 0u);
}

TEST(LightClient, IncrementalSync) {
  Blockchain chain = MakeChain(2);
  LightClient client(chain.headers().front());
  EXPECT_EQ(client.Sync(chain.headers()), 2u);
  chain.Append({}, crypto::EmptyTreeDigest(), 99);
  EXPECT_EQ(client.Sync(chain.headers()), 1u);
  EXPECT_EQ(client.height(), 3u);
}

TEST(LightClient, RejectsNonGenesisAnchor) {
  Blockchain chain = MakeChain(2);
  EXPECT_THROW(LightClient(chain.latest()), std::invalid_argument);
}

TEST(LightClient, RejectsBrokenLinkage) {
  Blockchain chain = MakeChain(3);
  LightClient client(chain.headers().front());
  client.Sync(chain.headers());

  BlockHeader forged = chain.latest();
  forged.height += 1;
  forged.prev_hash = crypto::EmptyTreeDigest();  // wrong parent
  EXPECT_FALSE(client.Accept(forged));

  BlockHeader skip = chain.latest();
  skip.height += 2;  // gap
  EXPECT_FALSE(client.Accept(skip));
}

TEST(LightClient, RejectsInsufficientPow) {
  Blockchain chain = MakeChain(1, /*difficulty=*/12);
  LightClient client(chain.headers().front());
  client.Sync(chain.headers());

  BlockHeader next;
  next.height = client.height() + 1;
  next.prev_hash = client.tip().Digest();
  next.difficulty_bits = 12;
  next.nonce = 1;  // almost certainly fails 12-bit PoW
  if (SatisfiesPow(next.Digest(), 12)) GTEST_SKIP();  // astronomically unlikely
  EXPECT_FALSE(client.Accept(next));
}

TEST(LightClient, VerifiesStateOnlyAtTip) {
  core::DbOptions options;
  options.kind = core::AdsKind::kGem2;
  core::AuthenticatedDb db(options);
  db.Insert({1, "v"});

  Environment& env = db.environment();
  AuthenticatedState old_state = env.ReadAuthenticatedState("ads");

  LightClient client(env.blockchain().headers().front());
  client.Sync(env.blockchain().headers());
  EXPECT_TRUE(client.VerifyStateAtTip(old_state));

  // After more activity, the old state no longer anchors at the tip:
  // a stale-snapshot SP is caught here.
  db.Insert({2, "v"});
  AuthenticatedState fresh = env.ReadAuthenticatedState("ads");
  client.Sync(env.blockchain().headers());
  std::string error;
  EXPECT_FALSE(client.VerifyStateAtTip(old_state, &error));
  EXPECT_TRUE(client.VerifyStateAtTip(fresh, &error)) << error;
}

TEST(LightClient, EndToEndVerifyUsesLightClient) {
  // AuthenticatedDb::Verify routes through the light client; a normal flow
  // must still verify across many blocks.
  core::DbOptions options;
  options.kind = core::AdsKind::kGem2;
  options.env.txs_per_block = 3;
  options.env.difficulty_bits = 4;
  core::AuthenticatedDb db(options);
  for (Key k = 1; k <= 40; ++k) {
    db.Insert({k, "v" + std::to_string(k)});
    if (k % 10 == 0) {
      core::VerifiedSpecResult vr =
          db.AuthenticatedSpec(core::QuerySpec::Range(1, k));
      ASSERT_TRUE(vr.ok) << vr.error;
      ASSERT_EQ(vr.objects.size(), static_cast<size_t>(k));
    }
  }
}

}  // namespace
}  // namespace gem2::chain
