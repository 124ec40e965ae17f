/// \file verify.h
/// Client-side verification of a single tree's VO against its trusted root
/// digest (one invocation of "MBTreeVerify" in the paper's Algorithms 6/8).
///
/// Soundness: the root digest is reconstructed bottom-up from the returned
/// objects (re-hashed locally), the boundary entries, and the pruned-subtree
/// preimages; it must equal the digest retrieved from the blockchain. All
/// structural checks run first, then the digests are recomputed level by
/// level through crypto::Keccak256Batcher (8 independent hashes per pass).
///
/// Completeness: the VO's in-order traversal must be strictly increasing, a
/// pruned subtree's [lo, hi] must not intersect the query range, and every
/// exposed entry inside the range must be a returned result. Together these
/// guarantee no in-range key of the tree can be withheld.
#ifndef GEM2_ADS_VERIFY_H_
#define GEM2_ADS_VERIFY_H_

#include <string>
#include <vector>

#include "ads/entry.h"
#include "ads/vo.h"
#include "common/types.h"

namespace gem2::ads {

struct [[nodiscard]] VerifyOutcome {
  bool ok = true;
  std::string error;

  static VerifyOutcome Ok() { return {}; }
  static VerifyOutcome Fail(std::string msg) { return {false, std::move(msg)}; }
  explicit operator bool() const { return ok; }
};

/// Verifies one tree's VO.
///   [lb, ub]       — the query range (inclusive).
///   vo             — the SP-produced VO for this tree.
///   trusted_root   — this tree's digest obtained from VO_chain.
///   result         — the objects the SP claims this tree contributes, in
///                    VO order (ascending keys): the i-th result entry
///                    proves result[i].
VerifyOutcome VerifyTreeVo(Key lb, Key ub, const TreeVo& vo, const Hash& trusted_root,
                           const std::vector<Object>& result);

/// Boundary-mode verification, for server-computed aggregates: each in-range
/// entry appears either as a boundary entry carrying its explicit value hash
/// or as a result entry proving the next of `kept` (core::StripForAggregate
/// keeps the records no longer than a hash). Runs the same traversal — same
/// ordering, interval, result-matching and root-digest checks, so soundness
/// and completeness carry over verbatim — but instead of returning results,
/// it appends every in-range entry (ascending, the traversal order) to
/// `*in_range` with its value hash, a kept record's recomputed from the
/// record.
VerifyOutcome VerifyTreeVoBoundary(Key lb, Key ub, const TreeVo& vo,
                                   const Hash& trusted_root,
                                   const std::vector<Object>& kept,
                                   std::vector<Entry>* in_range);

}  // namespace gem2::ads

#endif  // GEM2_ADS_VERIFY_H_
