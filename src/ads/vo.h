/// \file vo.h
/// Verification objects (VO_sp) as partial Merkle trees.
///
/// A range query against one authenticated tree yields a `TreeVo`: the tree
/// with every subtree irrelevant to the query *pruned* down to its boundary
/// interval plus content hash, every visited leaf *expanded* into its entries,
/// and result entries flagged so the client reconstructs their hashes from the
/// returned objects. Reconstructing the root digest from a TreeVo and
/// comparing against the on-chain digest establishes soundness; the interval /
/// ordering checks establish completeness (see ads/verify.h).
///
/// The tree is held flat, in preorder: an expanded node is one element
/// carrying its child count, followed by its children's subtrees in key order
/// — the v3 wire grammar (core/wire_v3.h) without the varint packing. A VO is
/// therefore a plain value: it copies and compares like a vector.
#ifndef GEM2_ADS_VO_H_
#define GEM2_ADS_VO_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace gem2::ads {

/// One preorder element of a VO.
struct VoElement {
  enum class Kind : uint8_t {
    /// An entry the SP returns: only the key is shipped, its value hash is
    /// the returned record's (the client recomputes it).
    kResult,
    /// An entry the SP does not return: key plus explicit value hash.
    kBoundary,
    /// A subtree the SP pruned: [lo, hi] plus the *preimage* of its node
    /// digest (content hash), so the client recomputes
    /// digest = H(lo || hi || content_hash) and thereby trusts the range.
    kPruned,
    /// An expanded node: the next `children` subtrees are its children.
    kNode,
  };

  Kind kind = Kind::kBoundary;
  /// kNode: number of child subtrees that follow (>= 1 in a valid VO).
  uint32_t children = 0;
  /// Entries: the key. kPruned: the low boundary.
  Key lo = 0;
  /// kPruned: the high boundary. Unused (0) otherwise.
  Key hi = 0;
  /// kBoundary: the value hash. kPruned: the content hash. Unused otherwise.
  Hash hash{};

  static VoElement Result(Key key) { return {Kind::kResult, 0, key, 0, {}}; }
  static VoElement Boundary(Key key, const Hash& value_hash) {
    return {Kind::kBoundary, 0, key, 0, value_hash};
  }
  static VoElement Pruned(Key lo, Key hi, const Hash& content_hash) {
    return {Kind::kPruned, 0, lo, hi, content_hash};
  }
  static VoElement Node(uint32_t children) { return {Kind::kNode, children, 0, 0, {}}; }

  bool is_entry() const { return kind == Kind::kResult || kind == Kind::kBoundary; }

  friend bool operator==(const VoElement&, const VoElement&) = default;
};

/// The VO for one whole tree.
struct TreeVo {
  /// True when the tree indexes no entries (digest must be EmptyTreeDigest).
  bool empty_tree = false;
  /// The partial tree in preorder, root first; empty when empty_tree. A
  /// single kPruned element when the whole tree was pruned.
  std::vector<VoElement> elements;

  friend bool operator==(const TreeVo&, const TreeVo&) = default;
};

/// The paper's fixed-width VO size in bytes (Figs. 9-10 accounting,
/// independent of the wire encoding): result entries ship 8-byte keys;
/// boundary entries 8 + 32; pruned subtrees 8 + 8 + 32; one tag byte per
/// element plus a 2-byte child count per expanded node.
uint64_t VoSizeBytes(const TreeVo& vo);

/// Deepest node nesting the wire parser (core/wire_v3.h) accepts: an element
/// read while more than this many expanded nodes are open is rejected. Real
/// trees are shallow (depth log_F(n)), but the codec parses adversarial
/// bytes, and an image of nested node tags would otherwise make it hold
/// arbitrarily many open nodes before verification ever runs.
inline constexpr uint32_t kMaxVoDepth = 512;

}  // namespace gem2::ads

#endif  // GEM2_ADS_VO_H_
