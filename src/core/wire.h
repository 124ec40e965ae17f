/// \file wire.h
/// Wire codec for the SP -> client protocol: a QueryResponse (result objects,
/// per-tree VOs, and — for the GEM2*-tree — the upper-level split points)
/// serializes to a compact byte string. This is what would travel over the
/// network in a deployment. The one encoding is the canonical, compressed v3
/// format of wire_v3.h; VoSpBytes(response) keeps the paper's fixed-width
/// accounting of the proof portion, independent of the wire.
#ifndef GEM2_CORE_WIRE_H_
#define GEM2_CORE_WIRE_H_

#include <optional>

#include "core/response.h"

namespace gem2::core {

/// The wire format version, carried in every image's first byte. v3
/// (wire_v3.h) is the only format: images with any other version byte —
/// including the retired fixed-width v2 — are malformed.
enum class WireVersion : uint8_t {
  kV3 = 3,
};

/// Serializes a full query response in the requested wire version.
Bytes SerializeResponse(const QueryResponse& response, WireVersion version);

/// Appends the serialized response to `*out` — byte-identical to
/// SerializeResponse(response, version) but without the intermediate Bytes,
/// so a server can encode the image straight into a connection's outbound
/// buffer (after any framing prefix it has already written).
void SerializeResponseInto(const QueryResponse& response, WireVersion version,
                           Bytes* out);

/// Parses a serialized response; std::nullopt on malformed input. A parsed
/// response carries exactly the same verification guarantees: the client
/// verifies it against VO_chain as usual, so a corrupted or tampered wire
/// image is rejected at verification (or here, if structurally invalid).
/// Unknown versions are malformed, never a throw.
std::optional<QueryResponse> ParseResponse(const Bytes& data);

/// Serializes a SpecResponse:
///   [version][kind=2][u64 |spec|][spec][u64 nconj][index]
///   [nconj x (u64 len + image)]
/// where `spec` is the canonical QuerySpec image (query_spec.h) and each
/// embedded image is a complete single/composite response — byte-identical
/// to SerializeResponse(conjunct, version), so the per-conjunct bytes (and VO
/// sizes) match the range protocol exactly. `index` is present only for an
/// AND of several predicates (AnsweredByOneConjunct): a u64 naming the
/// predicate its one conjunct answers. Single-predicate, OR and aggregate
/// images carry no index and one conjunct per predicate. ParseResponse
/// rejects kind 2 fail-closed, and ParseSpecResponse rejects embedded spec
/// envelopes: the nesting is one level by construction.
Bytes SerializeSpecResponse(const SpecResponse& response, WireVersion version);
void SerializeSpecResponseInto(const SpecResponse& response,
                               WireVersion version, Bytes* out);

/// Fail-closed parse of a spec envelope: unknown versions or kinds,
/// malformed specs, an AND of several predicates without exactly one
/// conjunct and an index below the predicate count, any other spec whose
/// conjunct count disagrees with its predicate count, embedded images of
/// another version, or trailing bytes all come back as std::nullopt, never
/// a throw.
std::optional<SpecResponse> ParseSpecResponse(const Bytes& data);

/// Frames `image` with a telemetry trace context: a fixed-size envelope
/// [magic "GTW1"][trace_hi][trace_lo][parent_span] *around* the untouched
/// wire image. The envelope is observability transport only — the image
/// inside is byte-identical to SerializeResponse output, so VO sizes, gas,
/// and fail-closed parsing are unaffected. An invalid context returns the
/// image unframed.
Bytes WrapTracedWire(const telemetry::TraceContext& trace, const Bytes& image);

/// Appends just the GTW1 envelope header for `trace` to `*out` (nothing when
/// the context is invalid). Appending the wire image immediately after yields
/// bytes identical to WrapTracedWire(trace, image) — the buffer-reuse spelling
/// of the same envelope.
void WrapTracedWireHeaderInto(const telemetry::TraceContext& trace, Bytes* out);

struct TracedWire {
  telemetry::TraceContext trace;
  Bytes image;
};

/// Splits an envelope produced by WrapTracedWire. Bytes without the envelope
/// magic pass through unchanged with an empty context, so every consumer of
/// bare wire images keeps working.
TracedWire UnwrapTracedWire(const Bytes& data);

}  // namespace gem2::core

#endif  // GEM2_CORE_WIRE_H_
