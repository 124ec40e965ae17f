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
///     structure — every result entry whose record is longer on the wire
///     than a hash demoted to a boundary entry carrying its explicit value
///     hash, that record dropped — and the VO alone then proves the exact
///     in-range key set (soundness via root digest, completeness via the
///     interval/ordering checks). Records no longer than a hash stay: the
///     client hashes them and folds them like boundary entries, so an
///     aggregate answer is never larger than the full answer, entry by
///     entry. COUNT/SUM/MIN/MAX over the indexed attribute values follow
///     from the verified entries; tombstones are recognized by value hash
///     (core/tombstone.h). Digests and gas are untouched: the demotion is a
///     post-processing of the normal VO, not a different ADS.
#ifndef GEM2_CORE_AGGREGATES_H_
#define GEM2_CORE_AGGREGATES_H_

#include <functional>
#include <optional>
#include <string>

#include "ads/entry.h"
#include "core/response.h"

namespace gem2::core {

/// Derives aggregates from a verified result. Returns std::nullopt when the
/// result did not verify (aggregates over unverified data are meaningless).
std::optional<RangeAggregates> Aggregate(const VerifiedSpecResult& result);

/// The one shape rule of an aggregate answer: true when `value` ships as its
/// record, because its wire form varint(|value|) + value is no longer than
/// the 32-byte value hash; false when the hash is strictly shorter and the
/// entry is demoted. StripForAggregate applies it, and ParseSpecResponse and
/// VerifyResponse reject an aggregate answer that keeps a record it fails.
bool KeepsRecordInAggregate(const std::string& value);

/// SP side: demotes each result entry in every tree VO (including composite
/// slices, recursively) whose record fails KeepsRecordInAggregate to an
/// explicit-hash boundary entry — the hash recomputed from the result object
/// exactly as a verifying client would — and drops that record; the other
/// result entries keep theirs. Reconstructed digests are bit-identical to
/// the unstripped VO's.
void StripForAggregate(QueryResponse* response);

/// Client side: folds verified boundary entries (ads::VerifyTreeVoBoundary
/// output, ascending keys, kept records already hashed) into aggregates. `decode_value` maps a tree key
/// to the attribute value it encodes (identity for single-attribute stores);
/// entries whose value hash equals the tombstone hash are skipped and
/// counted into `*tombstones_filtered` when non-null.
RangeAggregates AggregateBoundary(const std::vector<ads::Entry>& entries,
                                  const std::function<Key(Key)>& decode_value,
                                  uint64_t* tombstones_filtered);

}  // namespace gem2::core

#endif  // GEM2_CORE_AGGREGATES_H_
