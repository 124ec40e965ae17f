// Core façade tests: AuthenticatedDb lifecycle, the response protocol,
// VerifySpecFor's light-client check, VerifyResponse's cross-tree
// completeness logic (including GEM2* region rules), and failure handling.
#include <gtest/gtest.h>

#include "core/authenticated_db.h"
#include "crypto/digest.h"
#include "mbtree/mbtree.h"
#include "reference_root.h"
#include "workload/workload.h"

namespace gem2::core {
namespace {

DbOptions SmallGem2() {
  DbOptions options;
  options.kind = AdsKind::kGem2;
  options.gem2.m = 2;
  options.gem2.smax = 16;
  return options;
}

TEST(AuthenticatedDb, AdsKindNames) {
  EXPECT_EQ(AdsKindName(AdsKind::kMbTree), "MB-tree");
  EXPECT_EQ(AdsKindName(AdsKind::kSmbTree), "SMB-tree");
  EXPECT_EQ(AdsKindName(AdsKind::kLsm), "LSM-tree");
  EXPECT_EQ(AdsKindName(AdsKind::kGem2), "GEM2-tree");
  EXPECT_EQ(AdsKindName(AdsKind::kGem2Star), "GEM2*-tree");
}

TEST(AuthenticatedDb, EmptyDatabaseQueriesVerify) {
  AuthenticatedDb db(SmallGem2());
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(0, 100));
  EXPECT_TRUE(vr.ok) << vr.error;
  EXPECT_TRUE(vr.objects.empty());
}

TEST(AuthenticatedDb, SingleObjectRoundTrip) {
  AuthenticatedDb db(SmallGem2());
  ASSERT_TRUE(db.Insert({42, "answer"}).ok);
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(42, 42));
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_EQ(vr.objects.size(), 1u);
  EXPECT_EQ(vr.objects[0].value, "answer");
  // Outside the key: empty but verified.
  vr = db.AuthenticatedSpec(QuerySpec::Range(43, 100));
  EXPECT_TRUE(vr.ok);
  EXPECT_TRUE(vr.objects.empty());
}

TEST(AuthenticatedDb, UpdateVisibleAndVerified) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({1, "v1"});
  db.Insert({2, "v2"});
  db.Update({1, "v1b"});
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(0, 10));
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_EQ(vr.objects.size(), 2u);
  EXPECT_EQ(vr.objects[0].value, "v1b");
}

TEST(AuthenticatedDb, PoisonedAfterOutOfGas) {
  DbOptions options;
  options.kind = AdsKind::kLsm;
  options.env.gas_limit = gas::kDefaultGasLimit;
  AuthenticatedDb db(options);
  bool failed = false;
  for (Key k = 1; k <= 2000 && !failed; ++k) {
    failed = !db.Insert({k, "v"}).ok;
  }
  ASSERT_TRUE(failed);
  EXPECT_TRUE(db.poisoned());
  EXPECT_THROW(db.Insert({99'999, "v"}), std::logic_error);
}

/// A store whose chain reads can be frozen: VerifySpecFor then receives
/// VO_chain anchored at an older header than the chain's tip.
class FrozenChainDb : public AuthenticatedDb {
 public:
  using AuthenticatedDb::AuthenticatedDb;
  void Freeze() { frozen_ = AuthenticatedDb::ReadChainState(); }
  std::vector<chain::AuthenticatedState> ReadChainState() override {
    return frozen_.empty() ? AuthenticatedDb::ReadChainState() : frozen_;
  }

 private:
  std::vector<chain::AuthenticatedState> frozen_;
};

TEST(VerifySpecFor, RejectsChainStateBehindTheLightClientTip) {
  FrozenChainDb db(SmallGem2());
  ASSERT_TRUE(db.Insert({1, "v"}).ok);
  db.Freeze();
  // The frozen state is still the tip's: the answer verifies.
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(0, 10));
  ASSERT_TRUE(vr.ok) << vr.error;
  ASSERT_TRUE(db.Insert({2, "w"}).ok);
  (void)db.environment().ReadAuthenticatedState(AuthenticatedDb::kContractName);
  vr = db.AuthenticatedSpec(QuerySpec::Range(0, 10));
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "blockchain failed validation");
  EXPECT_TRUE(vr.objects.empty());
}

TEST(VerifyResponse, RejectsTamperedStateDigest) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({1, "v"});
  SpecResponse r = db.ExecuteSpec(QuerySpec::Range(0, 10));
  chain::AuthenticatedState state = db.environment().ReadAuthenticatedState("ads");
  state.digests[0].digest[3] ^= 1;
  VerifiedResult vr =
      VerifyResponse(state, AdsKind::kGem2, r.conjuncts[0]);
  EXPECT_FALSE(vr.ok);
  EXPECT_NE(vr.error.find("inclusion"), std::string::npos);
}

TEST(VerifyResponse, RejectsDuplicateTreeAnswers) {
  AuthenticatedDb db(SmallGem2());
  for (Key k = 1; k <= 10; ++k) db.Insert({k, "v"});
  const QuerySpec range = QuerySpec::Range(0, 100);
  SpecResponse r = db.ExecuteSpec(range);
  std::vector<TreeResultSet>& trees = r.conjuncts[0].trees;
  const TreeResultSet& last = trees.back();
  trees.push_back(TreeResultSet(last));
  EXPECT_FALSE(db.VerifySpecFor(range, r).ok);
}

TEST(VerifyResponse, RejectsAnswerForUnknownTree) {
  AuthenticatedDb db(SmallGem2());
  db.Insert({1, "v"});
  const QuerySpec range = QuerySpec::Range(0, 10);
  SpecResponse r = db.ExecuteSpec(range);
  TreeResultSet fake;
  fake.label = "P99.Tl";
  fake.vo.empty_tree = true;
  r.conjuncts[0].trees.push_back(std::move(fake));
  EXPECT_FALSE(db.VerifySpecFor(range, r).ok);
}

/// A self-consistent single-contract state whose digest list commits two
/// MB-trees that both hold key 7, and a response answering both over
/// [0, 10]. The state root is the contract's one state leaf.
struct KeyInTwoTrees {
  chain::AuthenticatedState state;
  QueryResponse response;

  KeyInTwoTrees() {
    state.contract = "ads";
    response.lb = 0;
    response.ub = 10;
    for (const char* label : {"A", "B"}) {
      mbtree::MbTree tree;
      tree.Insert(3, crypto::ValueHash(std::string("three-") + label));
      tree.Insert(7, crypto::ValueHash("seven"));
      TreeResultSet answer;
      answer.label = label;
      ads::EntryList entries;
      answer.vo = tree.RangeQuery(response.lb, response.ub, &entries);
      answer.objects = {{3, std::string("three-") + label}, {7, "seven"}};
      EXPECT_EQ(entries.size(), answer.objects.size());
      response.trees.push_back(std::move(answer));
      state.digests.push_back({label, tree.root_digest()});
    }
    state.header.state_root = testutil::ReferenceStateRoot({{state.contract, state.digests}});
  }
};

TEST(VerifyResponse, RejectsAKeyInTwoTrees) {
  const KeyInTwoTrees world;
  ASSERT_TRUE(chain::Environment::VerifyAuthenticatedState(world.state));
  // Each tree on its own verifies.
  for (const TreeResultSet& tree : world.response.trees) {
    chain::AuthenticatedState one = world.state;
    std::erase_if(one.digests, [&](const chain::DigestEntry& d) { return d.label != tree.label; });
    one.header.state_root = testutil::ReferenceStateRoot({{one.contract, one.digests}});
    QueryResponse alone = world.response;
    std::erase_if(alone.trees, [&](const TreeResultSet& t) { return t.label != tree.label; });
    const VerifiedResult vr = VerifyResponse(one, AdsKind::kMbTree, alone);
    EXPECT_TRUE(vr.ok) << tree.label << ": " << vr.error;
  }
  const VerifiedResult vr = VerifyResponse(world.state, AdsKind::kMbTree, world.response);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "key appears in multiple trees");
  EXPECT_TRUE(vr.objects.empty());
}

TEST(VerifyResponse, RejectsAKeyInTwoTreesInBoundaryMode) {
  const KeyInTwoTrees world;
  std::vector<ads::Entry> boundary;
  const VerifiedResult vr =
      VerifyResponse(world.state, AdsKind::kMbTree, world.response, &boundary);
  EXPECT_FALSE(vr.ok);
  EXPECT_EQ(vr.error, "key appears in multiple trees");
}

TEST(VerifyResponse, VoSizesReported) {
  AuthenticatedDb db(SmallGem2());
  for (Key k = 1; k <= 50; ++k) db.Insert({k, "value"});
  VerifiedSpecResult vr = db.AuthenticatedSpec(QuerySpec::Range(10, 30));
  ASSERT_TRUE(vr.ok);
  EXPECT_GT(vr.vo_sp_bytes, 0u);
  EXPECT_GT(vr.vo_chain_bytes, 0u);
}

// --- GEM2* region completeness ---------------------------------------------

class Gem2StarResponse : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions options;
    options.kind = AdsKind::kGem2Star;
    options.gem2.m = 2;
    options.gem2.smax = 16;
    options.split_points = {100, 200, 300};
    db_ = std::make_unique<AuthenticatedDb>(options);
    for (Key k = 10; k < 400; k += 10) db_->Insert({k, "v" + std::to_string(k)});
  }

  std::unique_ptr<AuthenticatedDb> db_;
};

TEST_F(Gem2StarResponse, HonestQueriesVerify) {
  VerifiedSpecResult vr = db_->AuthenticatedSpec(QuerySpec::Range(120, 280));
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_EQ(vr.objects.size(), 17u);  // 120..280 step 10
}

TEST_F(Gem2StarResponse, RejectsForgedSplitPoints) {
  const QuerySpec range = QuerySpec::Range(120, 280);
  SpecResponse r = db_->ExecuteSpec(range);
  // Would shrink the required region set.
  r.conjuncts[0].upper_splits = {150, 250};
  VerifiedSpecResult vr = db_->VerifySpecFor(range, r);
  EXPECT_FALSE(vr.ok);
  EXPECT_NE(vr.error.find("upper"), std::string::npos);
}

TEST_F(Gem2StarResponse, RejectsMissingRegionAnswer) {
  const QuerySpec range = QuerySpec::Range(120, 280);
  SpecResponse r = db_->ExecuteSpec(range);
  // Drop every answer from region 2 (keys [200, 300)): completeness breach.
  std::erase_if(r.conjuncts[0].trees, [](const TreeResultSet& t) {
    return t.label.rfind("R2.", 0) == 0;
  });
  VerifiedSpecResult vr = db_->VerifySpecFor(range, r);
  EXPECT_FALSE(vr.ok);
}

TEST_F(Gem2StarResponse, IgnoresRegionsOutsideQuery) {
  // The SP may not answer for regions that cannot overlap; verification
  // still succeeds (Algorithm 8 only requires overlapping regions).
  const QuerySpec range = QuerySpec::Range(120, 180);  // region 1 only
  SpecResponse r = db_->ExecuteSpec(range);
  for (const TreeResultSet& t : r.conjuncts[0].trees) {
    if (t.label != "P0") {
      EXPECT_EQ(t.label.rfind("R1.", 0), 0u);
    }
  }
  EXPECT_TRUE(db_->VerifySpecFor(range, r).ok);
}

TEST_F(Gem2StarResponse, QueryAtRegionBoundary) {
  VerifiedSpecResult vr = db_->AuthenticatedSpec(QuerySpec::Range(100, 200));
  ASSERT_TRUE(vr.ok) << vr.error;
  EXPECT_EQ(vr.objects.size(), 11u);  // 100..200 step 10
}

}  // namespace
}  // namespace gem2::core
