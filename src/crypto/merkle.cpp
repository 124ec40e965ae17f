#include "crypto/merkle.h"

#include <cstring>
#include <stdexcept>

#include "crypto/digest.h"
#include "crypto/keccak.h"
#include "crypto/keccak_batch.h"

namespace gem2::crypto {

Hash MerkleParent(const Hash& left, const Hash& right) {
  Keccak256Hasher h;
  h.Update(left);
  h.Update(right);
  return h.Finalize();
}

BinaryMerkleTree::BinaryMerkleTree(std::vector<Hash> leaves)
    : num_leaves_(leaves.size()) {
  if (leaves.empty()) {
    root_ = EmptyTreeDigest();
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const std::vector<Hash>& prev = levels_.back();
    std::vector<Hash> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2) {
      next.push_back(MerkleParent(prev[i], prev[i + 1]));
    }
    if (prev.size() % 2 == 1) next.push_back(prev.back());
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

MerkleProof BinaryMerkleTree::Prove(size_t index) const {
  if (index >= num_leaves_) throw std::out_of_range("merkle proof index");
  MerkleProof proof;
  size_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Hash>& nodes = levels_[level];
    size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < nodes.size()) {
      proof.push_back({nodes[sibling], sibling < i});
    }
    i /= 2;
  }
  return proof;
}

Hash BinaryMerkleTree::RootFromProof(const Hash& leaf, const MerkleProof& proof) {
  Hash acc = leaf;
  for (const MerkleProofStep& step : proof) {
    acc = step.sibling_on_left ? MerkleParent(step.sibling, acc)
                               : MerkleParent(acc, step.sibling);
  }
  return acc;
}

Hash BinaryMerkleTree::RootOf(const std::vector<Hash>& leaves) {
  // Root-only fold: skips the tree's level storage, and each level's pair
  // hashes are independent so they go through the 8-way batcher. Shape is
  // the constructor's exactly (odd tail promoted), bits identical.
  if (leaves.empty()) return EmptyTreeDigest();
  std::vector<Hash> cur = leaves;
  Keccak256Batcher batcher;
  uint8_t msg[64];
  while (cur.size() > 1) {
    std::vector<Hash> next((cur.size() + 1) / 2);
    for (size_t i = 0; i + 1 < cur.size(); i += 2) {
      std::memcpy(msg, cur[i].data(), 32);
      std::memcpy(msg + 32, cur[i + 1].data(), 32);
      batcher.Add(msg, sizeof(msg), &next[i / 2]);
    }
    batcher.Flush();
    if (cur.size() % 2 == 1) next.back() = cur.back();
    cur = std::move(next);
  }
  return cur[0];
}

}  // namespace gem2::crypto
