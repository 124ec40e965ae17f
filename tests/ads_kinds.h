/// \file ads_kinds.h
/// The five ADS kinds as a gtest parameter list, named with valid test-name
/// suffixes (AdsKindName's display strings, "MB-tree" and "GEM2*-tree", are
/// not).
#ifndef GEM2_TESTS_ADS_KINDS_H_
#define GEM2_TESTS_ADS_KINDS_H_

#include <gtest/gtest.h>

#include <string>

#include "core/authenticated_db.h"

namespace gem2::testutil {

inline std::string KindName(core::AdsKind kind) {
  switch (kind) {
    case core::AdsKind::kMbTree: return "MbTree";
    case core::AdsKind::kSmbTree: return "SmbTree";
    case core::AdsKind::kLsm: return "Lsm";
    case core::AdsKind::kGem2: return "Gem2";
    case core::AdsKind::kGem2Star: return "Gem2Star";
  }
  return "Unknown";
}

/// INSTANTIATE_TEST_SUITE_P(AllKinds, Suite, testutil::AllKinds(),
///                          testutil::KindParamName);
inline auto AllKinds() {
  return ::testing::Values(core::AdsKind::kMbTree, core::AdsKind::kSmbTree,
                           core::AdsKind::kLsm, core::AdsKind::kGem2,
                           core::AdsKind::kGem2Star);
}

inline std::string KindParamName(
    const ::testing::TestParamInfo<core::AdsKind>& info) {
  return KindName(info.param);
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_ADS_KINDS_H_
