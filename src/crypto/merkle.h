/// \file merkle.h
/// Plain binary Merkle hash tree (paper Section II-A, Fig. 2) over a list of
/// leaf digests. Used for transaction roots and the block state commitment,
/// and as the preliminary MHT structure in its own right. Supports standard
/// sibling-path inclusion proofs.
#ifndef GEM2_CRYPTO_MERKLE_H_
#define GEM2_CRYPTO_MERKLE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace gem2::crypto {

/// One step of an inclusion proof: the sibling digest and on which side it
/// sits relative to the running hash.
struct MerkleProofStep {
  Hash sibling;
  bool sibling_on_left = false;

  friend bool operator==(const MerkleProofStep&, const MerkleProofStep&) = default;
};

using MerkleProof = std::vector<MerkleProofStep>;

/// Binary MHT built bottom-up over `leaves`. An odd node at any level is
/// promoted unchanged (no duplication), which keeps proofs unambiguous.
class BinaryMerkleTree {
 public:
  explicit BinaryMerkleTree(std::vector<Hash> leaves);

  /// Root digest; the digest of an empty list is EmptyTreeDigest().
  const Hash& root() const { return root_; }
  size_t num_leaves() const { return num_leaves_; }

  /// Inclusion proof for leaf `index` (must be < num_leaves()).
  MerkleProof Prove(size_t index) const;

  /// Recomputes the root from a leaf digest and its proof.
  static Hash RootFromProof(const Hash& leaf, const MerkleProof& proof);

  /// Convenience: root over leaves without keeping the tree.
  static Hash RootOf(const std::vector<Hash>& leaves);

 private:
  // levels_[0] = leaves, levels_.back() = {root}.
  std::vector<std::vector<Hash>> levels_;
  Hash root_;
  size_t num_leaves_;
};

/// Digest of an internal MHT node: H(left || right).
Hash MerkleParent(const Hash& left, const Hash& right);

}  // namespace gem2::crypto

#endif  // GEM2_CRYPTO_MERKLE_H_
