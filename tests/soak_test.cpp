// Soak test at the paper's exact Section VII-A parameters (M=8, Smax=2048,
// F=4, 100 regions, zipfian 0.8): a long mixed stream through the full
// pipeline with periodic verified queries and structural checks, for both
// GEM2 and GEM2*. Scaled by GEM2_SOAK_OPS (default 8000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "chain/light_client.h"
#include "core/authenticated_db.h"
#include "seed_util.h"
#include "workload/workload.h"

namespace gem2::core {
namespace {

uint64_t SoakOps() {
  const char* v = std::getenv("GEM2_SOAK_OPS");
  const long long parsed = v == nullptr ? 0 : std::atoll(v);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : 8000;
}

class SoakTest
    : public ::testing::TestWithParam<
          std::tuple<AdsKind, workload::KeyDistribution>> {};

TEST_P(SoakTest, PaperDefaultsLongStream) {
  const auto kind = std::get<0>(GetParam());
  const auto dist = std::get<1>(GetParam());

  testutil::SeedReporter seed(2026);
  workload::WorkloadOptions wopts;
  wopts.distribution = dist;
  wopts.zipf_constant = 0.8;
  wopts.update_ratio = 0.15;
  wopts.seed = seed;
  workload::WorkloadGenerator gen(wopts);

  DbOptions options;
  options.kind = kind;
  options.gem2.m = 8;        // paper defaults
  options.gem2.smax = 2048;
  options.gem2.fanout = 4;
  options.env.gas_limit = 1'000'000'000'000ull;
  if (kind == AdsKind::kGem2Star) options.split_points = gen.SplitPoints(100);
  AuthenticatedDb db(options);

  std::map<Key, std::string> truth;
  const uint64_t ops = SoakOps();
  for (uint64_t i = 0; i < ops; ++i) {
    workload::Operation op = gen.Next();
    chain::TxReceipt r = op.type == workload::Operation::Type::kInsert
                             ? db.Insert(op.object)
                             : db.Update(op.object);
    ASSERT_TRUE(r.ok) << "op " << i;
    truth[op.object.key] = op.object.value;

    if (i > 0 && i % (ops / 4) == 0) {
      db.CheckConsistency();
      workload::RangeQuerySpec spec = gen.NextQuery(0.02);
      VerifiedSpecResult vr =
          db.AuthenticatedSpec(QuerySpec::Range(spec.lb, spec.ub));
      ASSERT_TRUE(vr.ok) << vr.error;
      size_t expect = 0;
      for (const auto& [k, v] : truth) {
        if (k >= spec.lb && k <= spec.ub) ++expect;
      }
      ASSERT_EQ(vr.objects.size(), expect) << "op " << i;
    }
  }

  db.CheckConsistency();
  const chain::Blockchain& ledger = db.environment().blockchain();
  chain::LightClient client(ledger.headers().front());
  EXPECT_EQ(client.Sync(ledger.headers()), ledger.height());

  // Full-range sweep must return exactly the ground truth.
  VerifiedSpecResult all =
      db.AuthenticatedSpec(QuerySpec::Range(kKeyMin, kKeyMax));
  ASSERT_TRUE(all.ok) << all.error;
  ASSERT_EQ(all.objects.size(), truth.size());
  auto it = truth.begin();
  for (const Object& obj : all.objects) {
    EXPECT_EQ(obj.key, it->first);
    EXPECT_EQ(obj.value, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperDefaults, SoakTest,
    ::testing::Combine(::testing::Values(AdsKind::kGem2, AdsKind::kGem2Star),
                       ::testing::Values(workload::KeyDistribution::kUniform,
                                         workload::KeyDistribution::kZipfian)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == AdsKind::kGem2 ? "Gem2" : "Gem2Star";
      return name + (std::get<1>(info.param) ==
                             workload::KeyDistribution::kUniform
                         ? "Uniform"
                         : "Zipfian");
    });

}  // namespace
}  // namespace gem2::core
