/// \file reference_root.h
/// Independent test oracle for the canonical tree fold: the root of the
/// F-ary tree over a sorted run, computed node by node with the scalar
/// crypto::EntryDigest / ContentDigest / WrapDigest and no batching, level
/// layout or cache shared with the production builders (ads::StaticTree and
/// ads::CanonicalRootDigest).
#ifndef GEM2_TESTS_REFERENCE_ROOT_H_
#define GEM2_TESTS_REFERENCE_ROOT_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "ads/entry.h"
#include "crypto/digest.h"

namespace gem2::testutil {

inline Hash ReferenceRoot(const ads::EntryList& sorted, int fanout) {
  if (sorted.empty()) return crypto::EmptyTreeDigest();
  struct Node {
    Key lo;
    Key hi;
    Hash digest;
  };
  std::vector<Node> level;
  for (const ads::Entry& e : sorted) {
    level.push_back({e.key, e.key, crypto::EntryDigest(e.key, e.value_hash)});
  }
  const size_t f = static_cast<size_t>(fanout);
  // Entries are always wrapped into at least one leaf node.
  do {
    std::vector<Node> up;
    for (size_t begin = 0; begin < level.size(); begin += f) {
      const size_t end = std::min(begin + f, level.size());
      std::vector<Hash> children;
      for (size_t i = begin; i < end; ++i) children.push_back(level[i].digest);
      const Key lo = level[begin].lo;
      const Key hi = level[end - 1].hi;
      up.push_back({lo, hi, crypto::WrapDigest(lo, hi, crypto::ContentDigest(children))});
    }
    level = std::move(up);
  } while (level.size() > 1);
  return level[0].digest;
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_REFERENCE_ROOT_H_
