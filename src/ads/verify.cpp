#include "ads/verify.h"

#include "crypto/digest.h"
#include "crypto/keccak_batch.h"
#include "telemetry/telemetry.h"

namespace gem2::ads {
namespace {

/// Verification context threaded through the recursive digest reconstruction.
struct Context {
  Key lb;
  Key ub;
  /// The claimed result set in VO order: the i-th result entry proves
  /// result[i].
  const std::vector<Object>& result;
  /// Boundary mode (VerifyTreeVoBoundary): every in-range entry is collected
  /// here as a boundary entry, result entries (kept records) included once
  /// matched to `result`; in-range boundary entries are accepted rather than
  /// rejected as withheld. nullptr = normal result-set verification.
  std::vector<VoEntry>* collect = nullptr;
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
  Hash digest{};
  Key lo = 0;
  Key hi = 0;
  size_t slot = 0;  // batched path only: index into the flat digest array
};

bool ReconstructChild(const VoChild& child, Context* ctx, SubtreeDigest* out) {
  if (const auto* entry = std::get_if<VoEntry>(&child)) {
    if (!ctx->Advance(entry->key, entry->key)) return false;
    Hash value_hash;
    if (entry->is_result) {
      if (!ctx->InRange(entry->key)) {
        return ctx->Fail("result entry outside query range");
      }
      const Object* obj = ctx->NextResult(entry->key);
      if (obj == nullptr) return false;
      value_hash = crypto::ValueHash(obj->value);
      if (ctx->collect != nullptr) {
        ctx->collect->push_back(VoEntry{entry->key, value_hash, false});
      }
    } else {
      if (ctx->InRange(entry->key)) {
        if (ctx->collect == nullptr) {
          return ctx->Fail("in-range entry not returned as a result (withheld answer)");
        }
        ctx->collect->push_back(*entry);
      }
      value_hash = entry->value_hash;
    }
    out->digest = crypto::EntryDigest(entry->key, value_hash);
    out->lo = out->hi = entry->key;
    return true;
  }

  if (const auto* pruned = std::get_if<VoPruned>(&child)) {
    if (!ctx->Advance(pruned->lo, pruned->hi)) return false;
    if (pruned->lo <= ctx->ub && ctx->lb <= pruned->hi) {
      return ctx->Fail("pruned subtree overlaps the query range");
    }
    out->digest = crypto::WrapDigest(pruned->lo, pruned->hi, pruned->content_hash);
    out->lo = pruned->lo;
    out->hi = pruned->hi;
    return true;
  }

  const VoNode& node = *std::get<VoNodePtr>(child);
  if (node.children.empty()) return ctx->Fail("expanded node with no children");
  std::vector<Hash> digests;
  digests.reserve(node.children.size());
  Key lo = 0;
  Key hi = 0;
  for (size_t i = 0; i < node.children.size(); ++i) {
    SubtreeDigest sub;
    if (!ReconstructChild(node.children[i], ctx, &sub)) return false;
    if (i == 0) lo = sub.lo;
    hi = sub.hi;
    digests.push_back(sub.digest);
  }
  Hash content = crypto::ContentDigest(digests);
  out->digest = crypto::WrapDigest(lo, hi, content);
  out->lo = lo;
  out->hi = hi;
  return true;
}

// ---------------------------------------------------------------------------
// Batched digest recomputation.
//
// The serial path above interleaves completeness checks with hashing, but the
// two are separable: every structural failure (ordering, range, withheld
// answer, empty node) is detected by the traversal alone, and a wrong hash is
// only observable at the final root comparison. The batched path exploits
// this: pass 1 repeats the serial traversal checks in the identical order
// (hence the identical first error) while recording a flat hash plan; pass 2
// executes the plan bottom-up, eight independent Keccak messages per AVX-512
// pass. Within one level every digest is independent, so the batches are:
// all result value hashes, then all entry digests + pruned wraps, then per
// node level (deepest first) the content digests followed by the wrap
// digests.

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

/// Pass 1: the serial traversal's checks, verbatim, plus plan recording.
/// Mirrors ReconstructChild line for line — any edit there must land here.
bool CollectChild(const VoChild& child, uint32_t depth, Context* ctx,
                  HashPlan* plan, SubtreeDigest* out) {
  if (const auto* entry = std::get_if<VoEntry>(&child)) {
    if (!ctx->Advance(entry->key, entry->key)) return false;
    EntryJob job;
    job.key = entry->key;
    if (entry->is_result) {
      if (!ctx->InRange(entry->key)) {
        return ctx->Fail("result entry outside query range");
      }
      job.obj = ctx->NextResult(entry->key);
      if (job.obj == nullptr) return false;
      if (ctx->collect != nullptr) {
        job.collected = ctx->collect->size();
        ctx->collect->push_back(VoEntry{entry->key, Hash{}, false});
      }
    } else {
      if (ctx->InRange(entry->key)) {
        if (ctx->collect == nullptr) {
          return ctx->Fail("in-range entry not returned as a result (withheld answer)");
        }
        ctx->collect->push_back(*entry);
      }
      job.boundary = &entry->value_hash;
    }
    job.slot = plan->slot_count++;
    plan->entries.push_back(job);
    out->lo = out->hi = entry->key;
    out->slot = job.slot;
    return true;
  }

  if (const auto* pruned = std::get_if<VoPruned>(&child)) {
    if (!ctx->Advance(pruned->lo, pruned->hi)) return false;
    if (pruned->lo <= ctx->ub && ctx->lb <= pruned->hi) {
      return ctx->Fail("pruned subtree overlaps the query range");
    }
    PrunedJob job;
    job.lo = pruned->lo;
    job.hi = pruned->hi;
    job.content = &pruned->content_hash;
    job.slot = plan->slot_count++;
    plan->pruned.push_back(job);
    out->lo = pruned->lo;
    out->hi = pruned->hi;
    out->slot = job.slot;
    return true;
  }

  const VoNode& node = *std::get<VoNodePtr>(child);
  if (node.children.empty()) return ctx->Fail("expanded node with no children");
  std::vector<size_t> child_slots;
  child_slots.reserve(node.children.size());
  Key lo = 0;
  Key hi = 0;
  for (size_t i = 0; i < node.children.size(); ++i) {
    SubtreeDigest sub;
    if (!CollectChild(node.children[i], depth + 1, ctx, plan, &sub)) return false;
    if (i == 0) lo = sub.lo;
    hi = sub.hi;
    child_slots.push_back(sub.slot);
  }
  NodeJob job;
  job.lo = lo;
  job.hi = hi;
  job.slot = plan->slot_count++;
  job.child_begin = plan->child_slots.size();
  job.child_count = child_slots.size();
  plan->child_slots.insert(plan->child_slots.end(), child_slots.begin(),
                           child_slots.end());
  if (plan->nodes_by_depth.size() <= depth) plan->nodes_by_depth.resize(depth + 1);
  plan->nodes_by_depth[depth].push_back(job);
  out->lo = lo;
  out->hi = hi;
  out->slot = job.slot;
  return true;
}

/// Pass 2: executes the plan, writing every slot's digest, and each kept
/// record's value hash into its entry of `*collect` (boundary mode; may be
/// null otherwise); returns the root slot's digest (the last slot allocated —
/// post-order, so the root is last).
Hash ExecutePlan(const HashPlan& plan, std::vector<VoEntry>* collect) {
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
                         std::vector<VoEntry>* collect, HashStrategy strategy) {
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

  if (!vo.root) return VerifyOutcome::Fail("missing VO root");
  if (std::holds_alternative<VoEntry>(*vo.root)) {
    return VerifyOutcome::Fail("bare entry cannot be a tree root");
  }

  Context ctx{lb, ub, result, collect, 0, false, 0, {}};
  SubtreeDigest root;
  if (strategy == HashStrategy::kBatched) {
    HashPlan plan;
    {
      TELEMETRY_SPAN("client.completeness");
      if (!CollectChild(*vo.root, 0, &ctx, &plan, &root)) {
        return VerifyOutcome::Fail(ctx.error);
      }
    }
    TELEMETRY_SPAN("client.hash_recompute");
    root.digest = ExecutePlan(plan, collect);
  } else {
    if (!ReconstructChild(*vo.root, &ctx, &root)) {
      return VerifyOutcome::Fail(ctx.error);
    }
  }
  if (root.digest != trusted_root) {
    return VerifyOutcome::Fail("reconstructed root digest does not match VO_chain");
  }
  if (ctx.consumed != result.size()) {
    return VerifyOutcome::Fail("result set contains objects not proven by the VO");
  }
  return VerifyOutcome::Ok();
}

}  // namespace

VerifyOutcome VerifyTreeVo(Key lb, Key ub, const TreeVo& vo, const Hash& trusted_root,
                           const std::vector<Object>& result,
                           HashStrategy strategy) {
  return VerifyTree(lb, ub, vo, trusted_root, result, nullptr, strategy);
}

VerifyOutcome VerifyTreeVoBoundary(Key lb, Key ub, const TreeVo& vo,
                                   const Hash& trusted_root,
                                   const std::vector<Object>& kept,
                                   std::vector<VoEntry>* in_range,
                                   HashStrategy strategy) {
  const size_t collected_before = in_range->size();
  VerifyOutcome outcome =
      VerifyTree(lb, ub, vo, trusted_root, kept, in_range, strategy);
  // Failed traversals may have collected a prefix; never expose it.
  if (!outcome.ok) in_range->resize(collected_before);
  return outcome;
}

}  // namespace gem2::ads
