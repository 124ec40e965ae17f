/// \file query_spec.h
/// Typed query descriptor — the one surface every query enters the system
/// through. A QuerySpec names, per predicate, the attribute it ranges over
/// and the inclusive bounds, how the predicates compose (AND / OR), and an
/// optional aggregate to answer from VO boundary structure instead of a
/// shipped result set.
///
/// The paper's range query [lb, ub] is `QuerySpec::Range(lb, ub)`: a single
/// predicate on attribute 0, answered by one conjunct whose embedded image
/// is the plain single-response wire image (pinned by golden digests in
/// tests), so gas and the fig7-fig10 outputs are untouched by this surface.
///
/// The codec is canonical and fail-closed: exactly one byte string encodes a
/// given spec, Parse rejects unknown predicate kinds, unknown aggregate or
/// composition tags, structural violations, and trailing bytes with
/// std::nullopt — never a throw. Forward compatibility is deliberate
/// rejection: a decoder that meets a predicate kind it does not implement
/// must refuse the whole spec rather than silently answer a weaker query.
#ifndef GEM2_CORE_QUERY_SPEC_H_
#define GEM2_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace gem2::core {

/// How a multi-predicate spec composes its per-predicate result sets.
enum class BoolOp : uint8_t {
  kAnd = 0,
  kOr = 1,
};

/// Aggregate requested over the (single) predicate's range. Aggregates are
/// answered from VO boundary entries — the SP ships proof structure only,
/// never the result payloads (see docs/API.md).
enum class AggregateKind : uint8_t {
  kNone = 0,
  kCount = 1,
  kSum = 2,
  kMin = 3,
  kMax = 4,
};

/// Predicate kinds. Only inclusive attribute ranges exist today; the tag is
/// on the wire so future kinds extend the grammar and old decoders reject
/// them fail-closed instead of mis-answering.
enum class PredicateKind : uint8_t {
  kRange = 1,
};

/// One conjunct: attribute `attr` constrained to [lb, ub] (inclusive, in the
/// attribute's value domain — backends map it to their tree-key domain).
struct Predicate {
  PredicateKind kind = PredicateKind::kRange;
  uint32_t attr = 0;
  Key lb = 0;
  Key ub = 0;

  friend bool operator==(const Predicate& a, const Predicate& b) = default;
};

/// Upper bound on predicates per spec: enough for any realistic boolean
/// query, small enough that a hostile spec cannot make the SP or the parser
/// allocate unboundedly.
inline constexpr size_t kMaxSpecPredicates = 64;

struct QuerySpec {
  BoolOp op = BoolOp::kAnd;
  std::vector<Predicate> predicates;
  AggregateKind aggregate = AggregateKind::kNone;

  /// The paper's one-dimensional range query: one range predicate over
  /// attribute `attr` (0 = the primary key for single-attribute backends).
  static QuerySpec Range(Key lb, Key ub, uint32_t attr = 0);

  /// Structural validity. Empty on success, else a human-readable reason:
  /// at least one predicate, at most kMaxSpecPredicates, every bound pair
  /// ordered (lb <= ub), and an aggregate only over exactly one predicate.
  std::string Check() const;

  friend bool operator==(const QuerySpec& a, const QuerySpec& b) = default;
};

/// Short human-readable rendering for traces and error messages, e.g.
/// "AND(a0:[3,9], a1:[-5,5])" or "COUNT(a0:[0,100])".
std::string ToString(const QuerySpec& spec);

/// Canonical serialization:
///   [op u8][aggregate u8][npred u64]
///   npred x ( [kind u8][attr u64][lb i64][ub i64] )
/// Fixed-width big-endian fields throughout (common/bytes.h), so the image
/// is unique per spec.
Bytes SerializeQuerySpec(const QuerySpec& spec);
void AppendQuerySpec(const QuerySpec& spec, Bytes* out);

/// Fail-closed parse of a full buffer: unknown tags, structural violations
/// (Check() failures), or trailing bytes come back as std::nullopt.
std::optional<QuerySpec> ParseQuerySpec(const Bytes& data);
std::optional<QuerySpec> ParseQuerySpec(const uint8_t* data, size_t size);

}  // namespace gem2::core

#endif  // GEM2_CORE_QUERY_SPEC_H_
