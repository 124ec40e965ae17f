/// \file response.h
/// Wire types of the authenticated-query protocol between the service
/// provider and the client (paper Fig. 1: R + VO_sp).
#ifndef GEM2_CORE_RESPONSE_H_
#define GEM2_CORE_RESPONSE_H_

#include <optional>
#include <string>
#include <vector>

#include "ads/vo.h"
#include "common/types.h"
#include "core/query_spec.h"
#include "telemetry/trace.h"

namespace gem2::core {

/// One tree's contribution to a query answer: the objects it holds inside the
/// range (raw values — the SP keeps them off-chain) plus its VO.
struct TreeResultSet {
  std::string label;  // matches a VO_chain digest label
  std::vector<Object> objects;
  ads::TreeVo vo;
};

struct ShardSlice;

/// VO_sp + R, as produced by ServiceProvider::Query.
///
/// Two shapes share this type, distinguished on the wire by a kind tag:
///   - a *single* response (`slices` empty): one ADS answered [lb, ub] with
///     its trees, exactly the paper's protocol;
///   - a *composite* response (`slices` non-empty, `trees`/`upper_splits`
///     empty): a sharded SP scattered [lb, ub] across the owning shard
///     contracts and gathered one sub-response per shard. Each slice's
///     sub-range abuts the next (seam completeness), which the client checks
///     against its own partition bounds — see docs/SHARDING.md.
struct QueryResponse {
  Key lb = 0;
  Key ub = 0;
  std::vector<TreeResultSet> trees;
  /// GEM2*-tree only: the upper-level split points, authenticated against
  /// VO_chain's "upper" digest (Algorithm 8 line 2).
  std::vector<Key> upper_splits;
  /// Composite (sharded) responses only: per-shard sub-responses in ascending
  /// shard order. Sub-responses are always single (no nesting).
  std::vector<ShardSlice> slices;
  /// Telemetry-only trace identity riding *alongside* the protocol: the SP
  /// stamps its query span's context here so the client's Verify* joins the
  /// same trace. Never serialized into the authenticated wire image (see
  /// Wrap/UnwrapTracedWire for the framed envelope) and never verified —
  /// gas and VO bytes are bit-identical whether or not it is set.
  telemetry::TraceContext trace;
};

/// One shard's contribution to a composite response: the shard index it
/// claims to answer for, plus that shard's full single response over the
/// clamped sub-range (response.lb/ub are the slice's bounds).
struct ShardSlice {
  uint32_t shard = 0;
  QueryResponse response;
};

/// Serialized size of the VO_sp portion (boundary hashes, pruned subtrees,
/// tree framing — not the raw result payloads).
uint64_t VoSpBytes(const QueryResponse& response);

/// Deep copy (TreeVo is move-only, so QueryResponse is too; the fault
/// mutators clone a response before altering it).
QueryResponse CloneResponse(const QueryResponse& response);

/// Outcome of full client-side verification (Algorithms 6 / 8).
struct VerifiedResult {
  bool ok = false;
  std::string error;
  /// The verified result set, in ascending key order. Tombstoned (deleted)
  /// objects have already been filtered out — see core/tombstone.h.
  std::vector<Object> objects;
  uint64_t tombstones_filtered = 0;
  uint64_t vo_sp_bytes = 0;
  uint64_t vo_chain_bytes = 0;
};

/// Authenticated aggregates over a range. Client-side they derive from a
/// verified result set (core/aggregates.h); server-computed they derive from
/// VO boundary entries with the values decoded from tree keys.
struct RangeAggregates {
  /// Number of live (non-tombstoned) objects in the range.
  uint64_t count = 0;
  /// Smallest / largest key (attribute value, for the server-computed path)
  /// in the range. Unset when count == 0.
  std::optional<Key> min_key;
  std::optional<Key> max_key;
  /// Client-side: sum over payloads that parse fully as decimal integers
  /// (unset when any payload is non-numeric). Server-computed: sum of the
  /// attribute values, two's-complement wraparound.
  std::optional<long long> sum;
};

/// True for the specs answered from one conjunct: a boolean AND of two or
/// more predicates (no aggregate). Every other spec is answered with one
/// conjunct per predicate.
inline bool AnsweredByOneConjunct(const QuerySpec& spec) {
  return spec.op == BoolOp::kAnd && spec.aggregate == AggregateKind::kNone &&
         spec.predicates.size() >= 2;
}

/// Answer to a QuerySpec: the spec the SP claims to have executed (the
/// client pins it against the one it issued) plus
/// its conjuncts. An AND of several predicates (AnsweredByOneConjunct) ships
/// one conjunct, the range of predicate `answering`, and the client filters
/// its records by the other predicates; every other spec ships one response
/// per predicate, in predicate order. For aggregate specs the conjunct ships
/// boundary structure plus the records no longer than a hash — every other
/// result entry demoted to an explicit-hash boundary entry, its record
/// dropped (see StripForAggregate in core/aggregates.h).
struct SpecResponse {
  QuerySpec spec;
  std::vector<QueryResponse> conjuncts;
  /// AnsweredByOneConjunct specs only: the index of the predicate whose
  /// range conjuncts[0] answers. Zero, and not on the wire, otherwise.
  uint32_t answering = 0;
  /// Telemetry-only, exactly as QueryResponse::trace.
  telemetry::TraceContext trace;
};

uint64_t VoSpBytes(const SpecResponse& response);
SpecResponse CloneSpecResponse(const SpecResponse& response);

/// Outcome of client-side verification of a SpecResponse.
struct VerifiedSpecResult {
  bool ok = false;
  std::string error;
  /// Boolean specs: the composed result set (the answering conjunct's
  /// records that satisfy every predicate for AND, the union for OR) in
  /// ascending canonical-key order; multi-attribute backends canonicalize
  /// each conjunct's objects to (record id, payload) before composing.
  /// Aggregate specs: always empty — the point is not shipping the set.
  std::vector<Object> objects;
  uint64_t tombstones_filtered = 0;
  uint64_t vo_sp_bytes = 0;
  uint64_t vo_chain_bytes = 0;
  /// Set for aggregate specs only, computed from verified boundary entries.
  std::optional<RangeAggregates> aggregates;
};

}  // namespace gem2::core

#endif  // GEM2_CORE_RESPONSE_H_
