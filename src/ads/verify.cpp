#include "ads/verify.h"

#include "crypto/digest.h"
#include "crypto/keccak_batch.h"
#include "telemetry/telemetry.h"

namespace gem2::ads {
namespace {

/// Verification context threaded through the in-order traversal (pass 1).
struct Context {
  Key lb;
  Key ub;
  /// The claimed result set in VO order: the i-th result entry proves
  /// result[i].
  const std::vector<Object>& result;
  /// Boundary mode (VerifyTreeVoBoundary): every in-range entry is collected
  /// here with its value hash, result entries (kept records) included once
  /// matched to `result`; in-range boundary entries are accepted rather than
  /// rejected as withheld. nullptr = normal result-set verification.
  std::vector<Entry>* collect = nullptr;
  size_t consumed = 0;
  bool have_prev = false;
  Key prev_hi = 0;
  std::string error;

  bool Fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }

  bool InRange(Key k) const { return k >= lb && k <= ub; }

  /// Matches a result entry to the next unconsumed result object.
  const Object* NextResult(Key key) {
    if (consumed == result.size() || result[consumed].key > key) {
      Fail("VO marks a result entry missing from the result set");
      return nullptr;
    }
    if (result[consumed].key < key) {
      Fail("result set contains objects not proven by the VO");
      return nullptr;
    }
    return &result[consumed++];
  }

  /// Global in-order check: each element's range must start strictly after
  /// everything seen so far.
  bool Advance(Key lo, Key hi) {
    if (lo > hi) return Fail("element with inverted boundaries");
    if (have_prev && lo <= prev_hi) return Fail("VO elements out of order");
    have_prev = true;
    prev_hi = hi;
    return true;
  }
};

struct SubtreeDigest {
  Key lo = 0;
  Key hi = 0;
  size_t slot = 0;  // index into the plan's flat digest array
};

// ---------------------------------------------------------------------------
// Digest recomputation in two passes.
//
// Completeness checks and hashing are separable: every structural failure
// (ordering, range, withheld answer, empty node) is detected by the traversal
// alone, and a wrong hash is only observable at the final root comparison.
// So pass 1 walks the VO in order, running every check (the first failing
// check names the error) while recording a flat hash plan; pass 2 executes
// the plan bottom-up, eight independent Keccak messages per AVX-512 pass.
// Within one level every digest is independent, so the batches are: all
// result value hashes, then all entry digests + pruned wraps, then per node
// level (deepest first) the content digests followed by the wrap digests.

/// One VO element's pending digest, addressed by its slot in a flat array so
/// parent nodes can reference child digests before they are computed.
struct EntryJob {
  Key key = 0;
  const Object* obj = nullptr;      // result entries: hash this value
  const Hash* boundary = nullptr;   // boundary entries: shipped value hash
  size_t slot = 0;
  /// Boundary mode, result entries: index of the collected entry whose value
  /// hash is this value's (filled once batch 1 computes it).
  size_t collected = kNotCollected;

  static constexpr size_t kNotCollected = static_cast<size_t>(-1);
};

struct PrunedJob {
  Key lo = 0;
  Key hi = 0;
  const Hash* content = nullptr;
  size_t slot = 0;
};

struct NodeJob {
  Key lo = 0;
  Key hi = 0;
  size_t slot = 0;
  size_t child_begin = 0;  // range into HashPlan::child_slots
  size_t child_count = 0;
};

struct HashPlan {
  std::vector<EntryJob> entries;
  std::vector<PrunedJob> pruned;
  std::vector<std::vector<NodeJob>> nodes_by_depth;
  std::vector<size_t> child_slots;
  size_t slot_count = 0;
};

/// Pass 1 over an entry or a pruned subtree: its checks, then its job.
bool CollectLeaf(const VoElement& e, Context* ctx, HashPlan* plan,
                 SubtreeDigest* out) {
  if (e.kind == VoElement::Kind::kPruned) {
    if (!ctx->Advance(e.lo, e.hi)) return false;
    if (e.lo <= ctx->ub && ctx->lb <= e.hi) {
      return ctx->Fail("pruned subtree overlaps the query range");
    }
    PrunedJob job;
    job.lo = e.lo;
    job.hi = e.hi;
    job.content = &e.hash;
    job.slot = plan->slot_count++;
    plan->pruned.push_back(job);
    *out = {e.lo, e.hi, job.slot};
    return true;
  }

  if (!ctx->Advance(e.lo, e.lo)) return false;
  EntryJob job;
  job.key = e.lo;
  if (e.kind == VoElement::Kind::kResult) {
    if (!ctx->InRange(e.lo)) {
      return ctx->Fail("result entry outside query range");
    }
    job.obj = ctx->NextResult(e.lo);
    if (job.obj == nullptr) return false;
    if (ctx->collect != nullptr) {
      job.collected = ctx->collect->size();
      ctx->collect->push_back(Entry{e.lo, Hash{}});
    }
  } else {
    if (ctx->InRange(e.lo)) {
      if (ctx->collect == nullptr) {
        return ctx->Fail("in-range entry not returned as a result (withheld answer)");
      }
      ctx->collect->push_back(Entry{e.lo, e.hash});
    }
    job.boundary = &e.hash;
  }
  job.slot = plan->slot_count++;
  plan->entries.push_back(job);
  *out = {e.lo, e.lo, job.slot};
  return true;
}

/// An expanded node pass 1 has entered but not yet closed.
struct OpenNode {
  uint32_t left = 0;         // children not yet completed
  Key lo = 0;                // first child's lo, once one completed
  Key hi = 0;                // last completed child's hi
  size_t pending_begin = 0;  // its completed children's slots start here
};

/// Pass 1: the in-order traversal's checks plus plan recording, one loop
/// over the preorder elements with the open nodes on an explicit stack. A
/// node's job is recorded when its last child completes (post-order, so
/// the root's slot is allocated last), at its depth: the number of nodes
/// open around it.
bool CollectElements(const std::vector<VoElement>& elements, Context* ctx,
                     HashPlan* plan) {
  std::vector<OpenNode> open;
  std::vector<size_t> pending;  // completed children's slots, per open node
  size_t i = 0;
  for (;;) {
    if (i == elements.size()) return ctx->Fail("VO ends inside an expanded node");
    const VoElement& e = elements[i++];
    if (e.kind == VoElement::Kind::kNode) {
      if (e.children == 0) return ctx->Fail("expanded node with no children");
      open.push_back({e.children, 0, 0, pending.size()});
      continue;
    }
    SubtreeDigest done;
    if (!CollectLeaf(e, ctx, plan, &done)) return false;
    // Hand the completed subtree to its parent, closing every node whose
    // last child it completes.
    for (;;) {
      if (open.empty()) {
        if (i != elements.size()) {
          return ctx->Fail("VO elements after the root's subtree");
        }
        return true;
      }
      OpenNode& node = open.back();
      if (pending.size() == node.pending_begin) node.lo = done.lo;
      node.hi = done.hi;
      pending.push_back(done.slot);
      if (--node.left != 0) break;
      NodeJob job;
      job.lo = node.lo;
      job.hi = node.hi;
      job.slot = plan->slot_count++;
      job.child_begin = plan->child_slots.size();
      job.child_count = pending.size() - node.pending_begin;
      plan->child_slots.insert(plan->child_slots.end(),
                               pending.begin() + static_cast<long>(node.pending_begin),
                               pending.end());
      pending.resize(node.pending_begin);
      const size_t depth = open.size() - 1;
      if (plan->nodes_by_depth.size() <= depth) plan->nodes_by_depth.resize(depth + 1);
      plan->nodes_by_depth[depth].push_back(job);
      done = {job.lo, job.hi, job.slot};
      open.pop_back();
    }
  }
}

/// Pass 2: executes the plan, writing every slot's digest, and each kept
/// record's value hash into its entry of `*collect` (boundary mode; may be
/// null otherwise); returns the root slot's digest (the last slot allocated —
/// post-order, so the root is last).
Hash ExecutePlan(const HashPlan& plan, std::vector<Entry>* collect) {
  std::vector<Hash> digests(plan.slot_count);
  std::vector<Hash> value_hashes(plan.entries.size());
  crypto::Keccak256Batcher batcher;

  // Batch 1: value hashes of the returned objects (arbitrary length; the
  // batcher falls back to scalar past one rate block).
  for (size_t i = 0; i < plan.entries.size(); ++i) {
    const EntryJob& job = plan.entries[i];
    if (job.obj != nullptr) {
      batcher.Add(reinterpret_cast<const uint8_t*>(job.obj->value.data()),
                  job.obj->value.size(), &value_hashes[i]);
    }
  }
  batcher.Flush();

  // Batch 2: every leaf-level digest — entries and pruned-subtree wraps.
  uint8_t preimage[48];
  for (size_t i = 0; i < plan.entries.size(); ++i) {
    const EntryJob& job = plan.entries[i];
    const Hash& value_hash =
        job.obj != nullptr ? value_hashes[i] : *job.boundary;
    if (job.collected != EntryJob::kNotCollected) {
      (*collect)[job.collected].value_hash = value_hash;
    }
    crypto::EncodeEntryPreimage(job.key, value_hash, preimage);
    batcher.Add(preimage, 40, &digests[job.slot]);
  }
  for (const PrunedJob& job : plan.pruned) {
    crypto::EncodeWrapPreimage(job.lo, job.hi, *job.content, preimage);
    batcher.Add(preimage, 48, &digests[job.slot]);
  }
  batcher.Flush();

  // Node levels, deepest first: children's digests are complete, so each
  // level needs one content batch and one wrap batch.
  std::vector<Hash> contents;
  std::vector<const Hash*> parts;
  for (size_t depth = plan.nodes_by_depth.size(); depth-- > 0;) {
    const std::vector<NodeJob>& level = plan.nodes_by_depth[depth];
    if (level.empty()) continue;
    contents.resize(level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      const NodeJob& job = level[i];
      parts.resize(job.child_count);
      for (size_t c = 0; c < job.child_count; ++c) {
        parts[c] = &digests[plan.child_slots[job.child_begin + c]];
      }
      batcher.AddConcat(parts.data(), parts.size(), &contents[i]);
    }
    batcher.Flush();
    for (size_t i = 0; i < level.size(); ++i) {
      const NodeJob& job = level[i];
      crypto::EncodeWrapPreimage(job.lo, job.hi, contents[i], preimage);
      batcher.Add(preimage, 48, &digests[job.slot]);
    }
    batcher.Flush();
  }
  return digests[plan.slot_count - 1];
}

/// Shared implementation of both verification modes. `collect == nullptr` is
/// the normal result-set mode; non-null is boundary mode (`result` holds the
/// kept records, in-range entries are collected).
VerifyOutcome VerifyTree(Key lb, Key ub, const TreeVo& vo, const Hash& trusted_root,
                         const std::vector<Object>& result,
                         std::vector<Entry>* collect) {
  if (lb > ub) return VerifyOutcome::Fail("invalid query range");

  // Result entries come in strictly ascending key order, so the result set
  // must too: the traversal then matches the two in one pass.
  for (size_t i = 1; i < result.size(); ++i) {
    if (result[i].key == result[i - 1].key) {
      return VerifyOutcome::Fail("duplicate key in result set");
    }
    if (result[i].key < result[i - 1].key) {
      return VerifyOutcome::Fail("result set out of VO order");
    }
  }

  if (vo.empty_tree) {
    if (trusted_root != crypto::EmptyTreeDigest()) {
      return VerifyOutcome::Fail("VO claims empty tree but on-chain digest disagrees");
    }
    if (!result.empty()) {
      return VerifyOutcome::Fail("results claimed from an empty tree");
    }
    return VerifyOutcome::Ok();
  }

  if (vo.elements.empty()) return VerifyOutcome::Fail("missing VO root");
  if (vo.elements[0].is_entry()) {
    return VerifyOutcome::Fail("bare entry cannot be a tree root");
  }

  Context ctx{lb, ub, result, collect, 0, false, 0, {}};
  HashPlan plan;
  {
    TELEMETRY_SPAN("client.completeness");
    if (!CollectElements(vo.elements, &ctx, &plan)) {
      return VerifyOutcome::Fail(ctx.error);
    }
  }
  Hash root_digest;
  {
    TELEMETRY_SPAN("client.hash_recompute");
    root_digest = ExecutePlan(plan, collect);
  }
  if (root_digest != trusted_root) {
    return VerifyOutcome::Fail("reconstructed root digest does not match VO_chain");
  }
  if (ctx.consumed != result.size()) {
    return VerifyOutcome::Fail("result set contains objects not proven by the VO");
  }
  return VerifyOutcome::Ok();
}

}  // namespace

VerifyOutcome VerifyTreeVo(Key lb, Key ub, const TreeVo& vo, const Hash& trusted_root,
                           const std::vector<Object>& result) {
  return VerifyTree(lb, ub, vo, trusted_root, result, nullptr);
}

VerifyOutcome VerifyTreeVoBoundary(Key lb, Key ub, const TreeVo& vo,
                                   const Hash& trusted_root,
                                   const std::vector<Object>& kept,
                                   std::vector<Entry>* in_range) {
  const size_t collected_before = in_range->size();
  VerifyOutcome outcome =
      VerifyTree(lb, ub, vo, trusted_root, kept, in_range);
  // Failed traversals may have collected a prefix; never expose it.
  if (!outcome.ok) in_range->resize(collected_before);
  return outcome;
}

}  // namespace gem2::ads
