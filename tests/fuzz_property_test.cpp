// Randomized property tests ("poor man's fuzzing", fully deterministic):
//  - arbitrary byte mutations of VO wire images must never verify,
//  - the MB-tree must agree with a std::map model under random op streams,
//  - the metered GEM2 contract must agree with the unmetered SP engine,
//    including the raw storage words the algorithms wrote,
//  - random and mutated multi-attribute record bytes never throw, and every
//    accepted one re-encodes to the identical bytes.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "ads/static_tree.h"
#include "ads/verify.h"
#include "chain/storage.h"
#include "core/wire_v3.h"
#include "crypto/digest.h"
#include "gem2/engine.h"
#include "mbtree/mbtree.h"
#include "multiattr/multiattr_db.h"
#include "seed_util.h"

namespace gem2 {
namespace {

Hash Vh(const std::string& v) { return crypto::ValueHash(v); }

// --- VO mutation fuzz ---------------------------------------------------------

class VoMutationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VoMutationFuzz, MutatedVosNeverVerify) {
  testutil::SeedReporter seed(GetParam());
  std::mt19937_64 rng(seed);

  // Random sorted entry set and a random query.
  ads::EntryList entries;
  Key k = 0;
  const size_t n = 20 + rng() % 200;
  for (size_t i = 0; i < n; ++i) {
    k += 1 + static_cast<Key>(rng() % 50);
    entries.push_back({k, Vh("v" + std::to_string(k))});
  }
  ads::StaticTree tree(entries, 2 + static_cast<int>(rng() % 4));
  const Key lb = static_cast<Key>(rng() % (k + 1));
  const Key ub = lb + static_cast<Key>(rng() % (k + 1));

  ads::EntryList result;
  ads::TreeVo vo = tree.RangeQuery(lb, ub, &result);
  std::vector<Object> objects;
  for (const ads::Entry& e : result) {
    objects.push_back({e.key, "v" + std::to_string(e.key)});
  }
  ASSERT_TRUE(ads::VerifyTreeVo(lb, ub, vo, tree.root_digest(), objects).ok);

  // The VO travels as a one-tree wire image over [lb, ub], its result
  // entries carrying the records.
  auto image_of = [lb, ub](const core::TreeResultSet& t) {
    core::QueryResponse response;
    response.lb = lb;
    response.ub = ub;
    response.trees.push_back({"t", t.objects, ads::CloneVo(t.vo)});
    return core::wirev3::Serialize(response);
  };
  const Bytes wire = image_of({"t", objects, ads::CloneVo(vo)});
  int parsed_mutants = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes bad = wire;
    // 1-3 random byte mutations.
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      bad[rng() % bad.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    if (bad == wire) continue;
    auto parsed = core::wirev3::Parse(bad);
    if (!parsed.has_value()) continue;  // codec
    // The codec is canonical: whatever it accepts re-serializes exactly.
    EXPECT_EQ(core::wirev3::Serialize(*parsed), bad)
        << "seed " << seed.seed() << " trial " << trial;
    if (parsed->trees.size() != 1) continue;
    const core::TreeResultSet& mutated = parsed->trees[0];
    // An edit that only touched the framing around the VO (bounds, label)
    // leaves the VO and its records intact.
    if (image_of(mutated) == wire) continue;
    ++parsed_mutants;
    auto outcome = ads::VerifyTreeVo(lb, ub, mutated.vo, tree.root_digest(),
                                     mutated.objects);
    EXPECT_FALSE(outcome.ok)
        << "mutated VO verified (seed " << seed.seed() << " trial " << trial << ")";
  }
  // The mutation space must actually exercise the verifier, not just the
  // parser.
  EXPECT_GT(parsed_mutants, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoMutationFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- MB-tree differential fuzz -------------------------------------------------

class MbTreeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbTreeFuzz, AgreesWithMapModel) {
  testutil::SeedReporter seed(GetParam());
  std::mt19937_64 rng(seed);
  const int fanout = 3 + static_cast<int>(rng() % 6);
  mbtree::MbTree tree(fanout);
  std::map<Key, Hash> model;

  for (int op = 0; op < 1200; ++op) {
    const int dice = static_cast<int>(rng() % 10);
    if (dice < 6 || model.empty()) {
      // Insert a fresh key.
      Key key;
      do {
        key = static_cast<Key>(rng() % 10'000) - 5'000;
      } while (model.count(key) != 0);
      Hash vh = Vh("v" + std::to_string(op));
      tree.Insert(key, vh);
      model.emplace(key, vh);
    } else if (dice < 8) {
      // Update a random existing key.
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      Hash vh = Vh("u" + std::to_string(op));
      ASSERT_TRUE(tree.Update(it->first, vh));
      it->second = vh;
    } else {
      // Bulk insert a small sorted run of fresh keys.
      ads::EntryList run;
      Key base = static_cast<Key>(rng() % 20'000) + 10'000;
      for (int i = 0; i < 8; ++i) {
        Key key = base + i * (1 + static_cast<Key>(rng() % 3)) + i;
        if (model.count(key) != 0 || (!run.empty() && run.back().key >= key)) {
          continue;
        }
        run.push_back({key, Vh("b" + std::to_string(op) + "." + std::to_string(i))});
      }
      tree.BulkInsert(run);
      for (const ads::Entry& e : run) model.emplace(e.key, e.value_hash);
    }

    if (op % 100 == 99) {
      tree.CheckInvariants();
      ads::EntryList all = tree.AllEntries();
      ASSERT_EQ(all.size(), model.size());
      auto mit = model.begin();
      for (const ads::Entry& e : all) {
        EXPECT_EQ(e.key, mit->first);
        EXPECT_EQ(e.value_hash, mit->second);
        ++mit;
      }
    }
  }
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbTreeFuzz, ::testing::Values(11, 22, 33, 44, 55));

// --- Metered GEM2 contract vs SP engine ----------------------------------------

class Gem2StorageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Gem2StorageFuzz, MeteredStorageMatchesMirrors) {
  testutil::SeedReporter seed(GetParam());
  std::mt19937_64 rng(seed);
  gem2tree::Gem2Options options;
  options.m = 1 + rng() % 4;
  options.smax = options.m * (2 << (1 + rng() % 4));
  options.fanout = 4;

  gem2tree::Gem2Contract contract("ads", options);
  gem2tree::Gem2Engine mirror(options);

  std::vector<Key> keys;
  for (int op = 0; op < 500; ++op) {
    gas::Meter meter(gas::kEthereumSchedule, 1ull << 60);
    if (!keys.empty() && rng() % 4 == 0) {
      Key key = keys[rng() % keys.size()];
      Hash vh = Vh("u" + std::to_string(op));
      contract.Update(key, vh, meter);
      mirror.Update(key, vh);
    } else {
      Key key;
      do {
        key = static_cast<Key>(rng() % 1'000'000);
      } while (mirror.Contains(key));
      Hash vh = Vh("v" + std::to_string(key));
      contract.Insert(key, vh, meter);
      mirror.Insert(key, vh);
      keys.push_back(key);
    }
    ASSERT_EQ(contract.AuthenticatedDigests(), mirror.Digests()) << "op " << op;
  }
  contract.engine().CheckInvariants();
  mirror.CheckInvariants();

  // The contract's key_storage region must hold exactly the inserted keys in
  // insertion order (region 2, slots 1..count — see partition_chain.cpp).
  const chain::MeteredStorage& storage = contract.storage();
  for (size_t i = 0; i < keys.size(); ++i) {
    const Word w = storage.Peek({2, static_cast<uint64_t>(i + 1)});
    EXPECT_EQ(KeyFromWord(w), keys[i]) << "loc " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gem2StorageFuzz, ::testing::Values(101, 202, 303));

// --- Record codec fuzz -----------------------------------------------------------

class RecordCodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecordCodecFuzz, AcceptedRecordsReEncodeToTheirBytes) {
  testutil::SeedReporter seed(GetParam());
  std::mt19937_64 rng(seed);
  auto random_bytes = [&](size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    return s;
  };
  // A random varint-sized value: small most of the time, any width sometimes.
  auto random_int = [&]() -> uint64_t {
    return rng() >> (rng() % 64);
  };
  size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string input;
    if (round % 2 == 0) {
      // Pure noise, biased short so some of it decodes.
      input = random_bytes(rng() % 24);
    } else {
      multiattr::MultiAttrRecord r;
      r.id = static_cast<int64_t>(random_int());
      for (size_t k = rng() % 5; k > 0; --k) {
        r.attrs.push_back(static_cast<Key>(random_int() * (rng() % 2 ? 1 : -1)));
      }
      r.value = random_bytes(rng() % 40);
      input = multiattr::EncodeRecord(r);
      ASSERT_EQ(multiattr::DecodeRecord(input), r);
      // Mutate: flip, insert, delete or truncate a few bytes.
      for (size_t m = 1 + rng() % 3; m > 0 && !input.empty(); --m) {
        const size_t at = rng() % input.size();
        switch (rng() % 4) {
          case 0:
            input[at] = static_cast<char>(input[at] ^ (1 + rng() % 255));
            break;
          case 1:
            input.insert(at, 1, static_cast<char>(rng()));
            break;
          case 2:
            input.erase(at, 1);
            break;
          default:
            input.resize(at);
            break;
        }
      }
    }
    std::optional<multiattr::MultiAttrRecord> decoded;
    ASSERT_NO_THROW(decoded = multiattr::DecodeRecord(input));
    if (!decoded.has_value()) continue;
    ++accepted;
    EXPECT_EQ(multiattr::EncodeRecord(*decoded), input);
  }
  // Some mutants and noise are valid records; the property was exercised.
  EXPECT_GT(accepted, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordCodecFuzz, ::testing::Values(7, 8, 9));

// --- Cross-shape verification ----------------------------------------------------

TEST(CrossShape, DifferentFanoutsDifferentDigests) {
  // The canonical shape is part of the commitment: the same data under a
  // different fanout must not produce the same digest (otherwise SP and
  // contract could silently disagree about shapes).
  ads::EntryList entries;
  for (Key k = 1; k <= 64; ++k) entries.push_back({k, Vh("v")});
  EXPECT_NE(ads::CanonicalRootDigest(entries, 4),
            ads::CanonicalRootDigest(entries, 8));
}

TEST(CrossShape, MbTreeAndStaticTreeVosBothVerifyAgainstOwnRoots) {
  ads::EntryList entries;
  for (Key k = 1; k <= 200; ++k) entries.push_back({k * 3, Vh("v" + std::to_string(k))});

  ads::StaticTree st(entries, 4);
  mbtree::MbTree mb(4);
  for (const ads::Entry& e : entries) mb.Insert(e.key, e.value_hash);

  // Shapes (and digests) differ...
  EXPECT_NE(st.root_digest(), mb.root_digest());

  // ...but each answers the same query, verifiably, with identical results.
  ads::EntryList r1, r2;
  ads::TreeVo vo1 = st.RangeQuery(100, 400, &r1);
  ads::TreeVo vo2 = mb.RangeQuery(100, 400, &r2);
  EXPECT_EQ(r1, r2);
  std::vector<Object> objects;
  for (const ads::Entry& e : r1) {
    objects.push_back({e.key, "v" + std::to_string(e.key / 3)});
  }
  EXPECT_TRUE(ads::VerifyTreeVo(100, 400, vo1, st.root_digest(), objects).ok);
  EXPECT_TRUE(ads::VerifyTreeVo(100, 400, vo2, mb.root_digest(), objects).ok);
  // And VOs are not interchangeable across trees.
  EXPECT_FALSE(ads::VerifyTreeVo(100, 400, vo1, mb.root_digest(), objects).ok);
}

}  // namespace
}  // namespace gem2
