/// \file aggregates.h
/// Authenticated aggregates — client-side and server-computed.
///
/// The paper's conclusion flags authenticated aggregation as future work.
/// Two flavours fall out of the range-verification machinery:
///
///   - *client-side*: once a range result is proven sound and complete, any
///     function of it (COUNT, MIN, MAX, SUM over numeric payloads) inherits
///     the guarantee — Aggregate(VerifiedSpecResult) below;
///   - *server-computed*: the SP strips a response down to its VO boundary
///     structure — every result entry demoted to a boundary entry carrying
///     its explicit value hash, result payloads dropped — and the VO alone
///     then proves the exact in-range key set (soundness via root digest,
///     completeness via the interval/ordering checks). COUNT/SUM/MIN/MAX
///     over the indexed attribute values follow from the verified entries
///     without shipping the result set; tombstones are recognized by value
///     hash (core/tombstone.h). Digests and gas are untouched: the demotion
///     is a post-processing of the normal VO, not a different ADS.
#ifndef GEM2_CORE_AGGREGATES_H_
#define GEM2_CORE_AGGREGATES_H_

#include <functional>
#include <optional>

#include "core/response.h"

namespace gem2::core {

/// Derives aggregates from a verified result. Returns std::nullopt when the
/// result did not verify (aggregates over unverified data are meaningless).
std::optional<RangeAggregates> Aggregate(const VerifiedSpecResult& result);

/// SP side: demotes every result entry in every tree VO (including composite
/// slices, recursively) to an explicit-hash boundary entry — the hash
/// recomputed from the result object exactly as a verifying client would —
/// and drops the result objects. The response then ships boundary structure
/// only; reconstructed digests are bit-identical to the unstripped VO's.
void StripForAggregate(QueryResponse* response);

/// Client side: folds verified boundary entries (ads::VerifyTreeVoBoundary
/// output, ascending keys) into aggregates. `decode_value` maps a tree key
/// to the attribute value it encodes (identity for single-attribute stores);
/// entries whose value hash equals the tombstone hash are skipped and
/// counted into `*tombstones_filtered` when non-null.
RangeAggregates AggregateBoundary(const std::vector<ads::VoEntry>& entries,
                                  const std::function<Key(Key)>& decode_value,
                                  uint64_t* tombstones_filtered);

}  // namespace gem2::core

#endif  // GEM2_CORE_AGGREGATES_H_
