/// \file reference_root.h
/// Independent test oracles:
/// - ReferenceRoot, for the canonical tree fold: the root of the F-ary tree
///   over a sorted run, computed node by node with the scalar
///   crypto::EntryDigest / ContentDigest / WrapDigest and no batching, level
///   layout or cache shared with the production builders (ads::StaticTree
///   and ads::CanonicalRootDigest);
/// - ReferenceStateRoot, for the block state root: one leaf per contract
///   over its whole digest list, folded pairwise with one-shot scalar
///   Keccak, sharing no code with chain::Environment or
///   crypto::BinaryMerkleTree.
#ifndef GEM2_TESTS_REFERENCE_ROOT_H_
#define GEM2_TESTS_REFERENCE_ROOT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ads/entry.h"
#include "chain/contract.h"
#include "crypto/digest.h"
#include "crypto/keccak.h"

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

/// One contract's committed state: its name and digest list in ledger order.
using ContractDigests = std::pair<std::string, std::vector<chain::DigestEntry>>;

/// The state root over `contracts` (any order; the root orders them by
/// name). A leaf is Keccak of len‖name ‖ n ‖ (len‖label ‖ digest) × n, every
/// length and n a big-endian u32; an inner node is Keccak(left ‖ right), and
/// an odd node is promoted unchanged.
inline Hash ReferenceStateRoot(std::vector<ContractDigests> contracts) {
  std::sort(contracts.begin(), contracts.end(),
            [](const ContractDigests& a, const ContractDigests& b) {
              return a.first < b.first;
            });
  auto put_u32 = [](Bytes* msg, size_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      msg->push_back(static_cast<uint8_t>(v >> shift));
    }
  };
  std::vector<Hash> level;
  for (const auto& [name, digests] : contracts) {
    Bytes msg;
    put_u32(&msg, name.size());
    msg.insert(msg.end(), name.begin(), name.end());
    put_u32(&msg, digests.size());
    for (const chain::DigestEntry& entry : digests) {
      put_u32(&msg, entry.label.size());
      msg.insert(msg.end(), entry.label.begin(), entry.label.end());
      msg.insert(msg.end(), entry.digest.begin(), entry.digest.end());
    }
    level.push_back(crypto::Keccak256(msg));
  }
  if (level.empty()) return crypto::EmptyTreeDigest();
  while (level.size() > 1) {
    std::vector<Hash> up;
    for (size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 == level.size()) {
        up.push_back(level[i]);
        continue;
      }
      Bytes pair(level[i].begin(), level[i].end());
      pair.insert(pair.end(), level[i + 1].begin(), level[i + 1].end());
      up.push_back(crypto::Keccak256(pair));
    }
    level = std::move(up);
  }
  return level[0];
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_REFERENCE_ROOT_H_
