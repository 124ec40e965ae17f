// Chain-state forgeries: whoever relays VO_chain edits the
// AuthenticatedState list a client verifies an answer against. A state's leaf
// commits the contract's whole digest list, so every forgery below must be
// rejected by each check that applies to it:
// - Environment::VerifyAuthenticatedState, one state on its own;
// - LightClient::VerifyStateAtTip, one state against the synced tip;
// - RangeStore::VerifySpecAgainst, an answer against the whole list.
//
// A withheld digest travels with a withheld answer: the forged response
// drops that tree's answer too, which is what lets a dropped partition pass
// unnoticed when the state root commits only the digests shipped.
//
// The stores: a flat store of each ADS kind (GEM2 m=2, Smax=16, keys
// 1..200, query [1, 200]), an S=4 ShardedDb and a 2-attribute MultiAttrDb.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ads_kinds.h"
#include "chain/environment.h"
#include "chain/light_client.h"
#include "core/authenticated_db.h"
#include "multiattr/multiattr_db.h"
#include "shard/sharded_db.h"

namespace gem2 {
namespace {

using core::AdsKind;
using core::QueryResponse;
using core::QuerySpec;
using core::SpecResponse;

/// One store with a spec whose answer reads every contract's state, the
/// honest answer and VO_chain, and the VO_chain read one write earlier.
struct World {
  std::unique_ptr<core::RangeStore> store;
  QuerySpec spec;
  SpecResponse answer;
  std::vector<chain::AuthenticatedState> states;
  std::vector<chain::AuthenticatedState> earlier;
  /// The parts of a response that verify against `contract`'s state.
  std::function<std::vector<QueryResponse*>(SpecResponse&, const std::string&)>
      parts_of;
};

gem2tree::Gem2Options SmallGem2() {
  gem2tree::Gem2Options options;
  options.m = 2;
  options.smax = 16;
  return options;
}

/// Reads VO_chain, runs `write`, and reads it again with the answer to
/// `world->spec`, so `earlier` is sealed at a lower height than `states`.
void Snapshot(World* world, const std::function<void()>& write) {
  world->earlier = world->store->ReadChainState();
  write();
  world->states = world->store->ReadChainState();
  world->answer = world->store->ExecuteSpec(world->spec);
  ASSERT_NE(world->earlier.front().header.state_root,
            world->states.front().header.state_root);
  const core::VerifiedSpecResult honest =
      world->store->VerifySpecAgainst(world->states, world->spec, world->answer);
  ASSERT_TRUE(honest.ok) << honest.error;
}

World FlatWorld(AdsKind kind) {
  core::DbOptions options;
  options.kind = kind;
  options.gem2 = SmallGem2();
  if (kind == AdsKind::kGem2Star) options.split_points = {67, 134};
  auto db = std::make_unique<core::AuthenticatedDb>(options);
  for (Key k = 1; k <= 199; ++k) {
    EXPECT_TRUE(db->Insert({k, "v" + std::to_string(k)}).ok);
  }
  World world;
  world.spec = QuerySpec::Range(1, 200);
  core::AuthenticatedDb* raw = db.get();
  world.store = std::move(db);
  Snapshot(&world, [raw] { EXPECT_TRUE(raw->Insert({200, "v200"}).ok); });
  world.parts_of = [](SpecResponse& r, const std::string&) {
    return std::vector<QueryResponse*>{&r.conjuncts[0]};
  };
  return world;
}

World ShardedWorld() {
  shard::ShardOptions options;
  options.bounds = {50, 100, 150};
  options.base.gem2 = SmallGem2();
  auto db = std::make_unique<shard::ShardedDb>(std::move(options));
  for (Key k = 1; k <= 199; ++k) {
    EXPECT_TRUE(db->Insert({k, "v" + std::to_string(k)}).ok);
  }
  World world;
  world.spec = QuerySpec::Range(1, 200);
  shard::ShardedDb* raw = db.get();
  world.store = std::move(db);
  // The write lands in the last shard only, so the earlier states of the
  // other shards carry today's digests under an older header.
  Snapshot(&world, [raw] { EXPECT_TRUE(raw->Insert({200, "v200"}).ok); });
  world.parts_of = [](SpecResponse& r, const std::string& contract) {
    std::vector<QueryResponse*> parts;
    for (core::ShardSlice& slice : r.conjuncts[0].slices) {
      if (shard::ShardedDb::ShardContractName(slice.shard) == contract) {
        parts.push_back(&slice.response);
      }
    }
    return parts;
  };
  return world;
}

World MultiAttrWorld() {
  multiattr::MultiAttrOptions options;
  options.base.gem2 = SmallGem2();
  options.id_bits = 16;
  auto db = std::make_unique<multiattr::MultiAttrDb>(std::move(options));
  for (int64_t id = 0; id < 48; ++id) {
    EXPECT_TRUE(db->InsertRecord({id, {id % 13 - 6, (id * 7) % 19 - 9},
                                  "payload-" + std::to_string(id)})
                    .ok);
  }
  World world;
  world.spec.op = core::BoolOp::kOr;
  world.spec.predicates = {{core::PredicateKind::kRange, 0, -6, 6},
                           {core::PredicateKind::kRange, 1, -9, 9}};
  multiattr::MultiAttrDb* raw = db.get();
  world.store = std::move(db);
  Snapshot(&world, [raw] {
    EXPECT_TRUE(raw->InsertRecord({48, {0, 0}, "payload-48"}).ok);
  });
  world.parts_of = [spec = world.spec](SpecResponse& r, const std::string& contract) {
    std::vector<QueryResponse*> parts;
    for (size_t i = 0; i < r.conjuncts.size(); ++i) {
      if ("attr" + std::to_string(spec.predicates[i].attr) == contract) {
        parts.push_back(&r.conjuncts[i]);
      }
    }
    return parts;
  };
  return world;
}

/// Removes every answer to tree `label` that verifies against `contract`.
void WithholdAnswer(World& world, SpecResponse* response,
                    const std::string& contract, const std::string& label) {
  for (QueryResponse* part : world.parts_of(*response, contract)) {
    std::erase_if(part->trees,
                  [&label](const core::TreeResultSet& t) { return t.label == label; });
  }
}

/// Tallies one forgery family: every attempt must be rejected by every check
/// it is put to.
struct Tally {
  int attempts = 0;
  int accepted = 0;
  std::vector<std::string> accepted_by;
};

class Checker {
 public:
  explicit Checker(World& world)
      : world_(world),
        light_client_(world.store->environment().blockchain().headers().front()) {
    light_client_.Sync(world.store->environment().blockchain().headers());
  }

  /// Puts a forged list (state `s` forged, the others honest) and response
  /// to all three checks.
  void Check(const std::string& family, const std::string& what,
             const std::vector<chain::AuthenticatedState>& states, size_t s,
             const SpecResponse& response) {
    Tally& tally = tallies_[family];
    ++tally.attempts;
    std::vector<std::string> passed;
    if (chain::Environment::VerifyAuthenticatedState(states[s])) {
      passed.push_back("VerifyAuthenticatedState");
    }
    if (light_client_.VerifyStateAtTip(states[s])) passed.push_back("VerifyStateAtTip");
    const core::VerifiedSpecResult r =
        world_.store->VerifySpecAgainst(states, world_.spec, response);
    if (r.ok) {
      passed.push_back("VerifySpecAgainst (" + std::to_string(r.objects.size()) +
                       " rows)");
    }
    if (passed.empty()) return;
    ++tally.accepted;
    for (const std::string& check : passed) tally.accepted_by.push_back(what + ": " + check);
  }

  /// Puts a list whose every state is individually sound but sealed at two
  /// heights to the tip check and VerifySpecAgainst.
  void CheckMixed(const std::vector<chain::AuthenticatedState>& states,
                  size_t stale) {
    Tally& tally = tallies_["mixed headers"];
    ++tally.attempts;
    const bool at_tip = light_client_.VerifyStateAtTip(states[stale]);
    const core::VerifiedSpecResult r =
        world_.store->VerifySpecAgainst(states, world_.spec, world_.answer);
    if (at_tip || r.ok) {
      ++tally.accepted;
      tally.accepted_by.push_back(at_tip ? "VerifyStateAtTip" : "VerifySpecAgainst");
    }
    last_mixed_error_ = r.error;
  }

  const std::map<std::string, Tally>& tallies() const { return tallies_; }
  const std::string& last_mixed_error() const { return last_mixed_error_; }

 private:
  World& world_;
  chain::LightClient light_client_;
  std::map<std::string, Tally> tallies_;
  std::string last_mixed_error_;
};

/// Runs every forgery family over `world` and expects 100% rejection.
void ExpectAllForgeriesRejected(World& world) {
  Checker checker(world);
  const std::vector<chain::AuthenticatedState>& honest = world.states;
  for (size_t s = 0; s < honest.size(); ++s) {
    const chain::AuthenticatedState& state = honest[s];
    const std::string at = state.contract + " ";
    const size_t n = state.digests.size();
    ASSERT_GT(n, 0u) << state.contract;
    auto forge = [&](const std::function<void(chain::AuthenticatedState&)>& edit) {
      std::vector<chain::AuthenticatedState> forged = honest;
      edit(forged[s]);
      return forged;
    };
    for (size_t i = 0; i < n; ++i) {
      const std::string label = state.digests[i].label;
      const auto at_i = static_cast<ptrdiff_t>(i);
      SpecResponse withheld = world.answer;
      WithholdAnswer(world, &withheld, state.contract, label);
      checker.Check("drop", at + label,
                    forge([&](chain::AuthenticatedState& f) {
                      f.digests.erase(f.digests.begin() + at_i);
                    }),
                    s, withheld);
      checker.Check("duplicate", at + label,
                    forge([&](chain::AuthenticatedState& f) {
                      f.digests.insert(f.digests.begin() + at_i, f.digests[i]);
                    }),
                    s, world.answer);
      if (i + 1 < n) {
        checker.Check("reorder", at + label,
                      forge([&](chain::AuthenticatedState& f) {
                        std::swap(f.digests[i], f.digests[i + 1]);
                      }),
                      s, world.answer);
      }
      checker.Check("relabel", at + label,
                    forge([&](chain::AuthenticatedState& f) {
                      f.digests[i].label = "X" + f.digests[i].label;
                    }),
                    s, world.answer);
    }
    SpecResponse emptied = world.answer;
    for (const chain::DigestEntry& d : state.digests) {
      WithholdAnswer(world, &emptied, state.contract, d.label);
    }
    checker.Check("empty state", at,
                  forge([](chain::AuthenticatedState& f) { f.digests.clear(); }), s,
                  emptied);
    checker.Check("header from another height", at,
                  forge([&](chain::AuthenticatedState& f) {
                    f.header = world.earlier[s].header;
                  }),
                  s, world.answer);
    if (s + 1 < honest.size()) {
      std::vector<chain::AuthenticatedState> swapped = honest;
      std::swap(swapped[s].digests, swapped[s + 1].digests);
      std::swap(swapped[s].proof, swapped[s + 1].proof);
      checker.Check("swap two contracts", at + "<-> " + honest[s + 1].contract,
                    swapped, s, world.answer);
    }
    if (honest.size() > 1) {
      std::vector<chain::AuthenticatedState> mixed = honest;
      mixed[s] = world.earlier[s];
      checker.CheckMixed(mixed, s);
      EXPECT_EQ(checker.last_mixed_error(),
                "VO_chain states are not anchored at one header")
          << state.contract;
    }
  }
  for (const auto& [family, tally] : checker.tallies()) {
    EXPECT_GT(tally.attempts, 0) << family;
    EXPECT_EQ(tally.accepted, 0) << family << ": " << tally.accepted << " of "
                                 << tally.attempts << " accepted";
    for (const std::string& hit : tally.accepted_by) ADD_FAILURE() << family << " " << hit;
  }
}

class ChainStateForgery : public ::testing::TestWithParam<AdsKind> {};

TEST_P(ChainStateForgery, FlatStoreRejectsEveryForgery) {
  World world = FlatWorld(GetParam());
  ExpectAllForgeriesRejected(world);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ChainStateForgery, testutil::AllKinds(),
                         testutil::KindParamName);

TEST(ChainStateForgery, ShardedStoreRejectsEveryForgery) {
  World world = ShardedWorld();
  ASSERT_EQ(world.states.size(), 4u);
  ExpectAllForgeriesRejected(world);
}

TEST(ChainStateForgery, MultiAttrStoreRejectsEveryForgery) {
  World world = MultiAttrWorld();
  ASSERT_EQ(world.states.size(), 2u);
  ExpectAllForgeriesRejected(world);
}

TEST(ChainStateForgery, WithheldP0NoLongerDropsAPartition) {
  // GEM2, m=2, Smax=16, keys 1..200, query [1, 200]: withholding P0's
  // digest and answer used to verify 24 of the 200 rows as the full answer.
  World world = FlatWorld(AdsKind::kGem2);
  const core::VerifiedSpecResult honest =
      world.store->VerifySpecAgainst(world.states, world.spec, world.answer);
  ASSERT_TRUE(honest.ok) << honest.error;
  EXPECT_EQ(honest.objects.size(), 200u);

  std::vector<chain::AuthenticatedState> forged = world.states;
  std::vector<chain::DigestEntry>& digests = forged[0].digests;
  const auto p0 = std::find_if(digests.begin(), digests.end(),
                               [](const chain::DigestEntry& d) { return d.label == "P0"; });
  ASSERT_NE(p0, digests.end());
  digests.erase(p0);
  SpecResponse withheld = world.answer;
  WithholdAnswer(world, &withheld, forged[0].contract, "P0");
  ASSERT_LT(withheld.conjuncts[0].trees.size(), world.answer.conjuncts[0].trees.size());

  const core::VerifiedSpecResult r =
      world.store->VerifySpecAgainst(forged, world.spec, withheld);
  EXPECT_FALSE(r.ok) << r.objects.size() << " rows accepted";
  EXPECT_EQ(r.error, "conjunct 0: VO_chain inclusion proofs do not match the block state root");
}

TEST(ChainStateForgery, MixedHeadersAcrossSlicesAreRejected) {
  // Shard 0's earlier state carries the same digests as today's under an
  // older header; each state verifies on its own, the list does not.
  World world = ShardedWorld();
  EXPECT_EQ(world.earlier[0].digests, world.states[0].digests);
  std::vector<chain::AuthenticatedState> mixed = world.states;
  mixed[0] = world.earlier[0];
  EXPECT_TRUE(chain::Environment::VerifyAuthenticatedState(mixed[0]));
  const core::VerifiedSpecResult r =
      world.store->VerifySpecAgainst(mixed, world.spec, world.answer);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "VO_chain states are not anchored at one header");
}

}  // namespace
}  // namespace gem2
