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
#ifndef GEM2_ADS_VO_H_
#define GEM2_ADS_VO_H_

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace gem2::ads {

/// An object exposed in the VO. For `is_result` entries the value hash is
/// implied by the returned object (the client recomputes it), so only the key
/// is shipped; boundary/non-result entries carry the hash explicitly.
struct VoEntry {
  Key key = 0;
  Hash value_hash{};
  bool is_result = false;
};

/// A subtree the SP pruned: its key range and the *preimage* of its node
/// digest (content hash), so the client can recompute
/// digest = H(lo || hi || content_hash) and thereby trust the claimed range.
struct VoPruned {
  Key lo = 0;
  Key hi = 0;
  Hash content_hash{};
};

struct VoNode;
using VoNodePtr = std::unique_ptr<VoNode>;
using VoChild = std::variant<VoEntry, VoPruned, VoNodePtr>;

/// An expanded node: all of its children, in key order, each either an entry
/// (leaf level), a pruned subtree, or a further expanded node.
struct VoNode {
  std::vector<VoChild> children;
};

/// The VO for one whole tree.
struct TreeVo {
  /// True when the tree indexes no entries (digest must be EmptyTreeDigest).
  bool empty_tree = false;
  /// Present unless empty_tree; a VoPruned when the whole tree was pruned.
  std::optional<VoChild> root;
};

/// Deep copies (VoNodePtr makes VOs move-only by default).
VoChild CloneChild(const VoChild& child);
TreeVo CloneVo(const TreeVo& vo);

/// The paper's fixed-width VO size in bytes (Figs. 9-10 accounting,
/// independent of the wire encoding): result entries ship 8-byte keys;
/// boundary entries 8 + 32; pruned subtrees 8 + 8 + 32; one tag byte per
/// element plus a 2-byte child count per expanded node.
uint64_t VoSizeBytes(const TreeVo& vo);

/// Deepest node nesting the wire parser (core/wire_v3.h) accepts. Real trees
/// are shallow (depth log_F(n)), but the codec parses adversarial bytes:
/// without a cap, a wire image of nested node tags drives the recursive
/// parser arbitrarily deep and can exhaust the stack before verification
/// ever runs.
inline constexpr uint32_t kMaxVoDepth = 512;

}  // namespace gem2::ads

#endif  // GEM2_ADS_VO_H_
