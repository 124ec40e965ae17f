#include "core/wire.h"

#include <algorithm>

#include "core/aggregates.h"
#include "core/wire_v3.h"

namespace gem2::core {
namespace {

/// Kind tag of the spec envelope in the image namespace. wirev3::Parse knows
/// only kinds 0/1 and rejects 2 fail-closed, so a client expecting a range
/// answer can never misread a spec answer.
constexpr uint8_t kKindSpec = 2;

/// Reads a big-endian u64 at `*pos`, advancing it; false when fewer than 8
/// bytes remain.
bool ReadU64(const Bytes& data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v = (*v << 8) | data[(*pos)++];
  return true;
}

/// Reads a u64 length prefix at `*pos` and skips that many bytes, which
/// start at `*start`; false when the blob overruns the data.
bool SkipBlob(const Bytes& data, size_t* pos, size_t* start, uint64_t* size) {
  if (!ReadU64(data, pos, size) || *size > data.size() - *pos) return false;
  *start = *pos;
  *pos += *size;
  return true;
}

/// True when any tree of `r`, composite slices included, carries a result
/// record that an aggregate answer must ship as its hash.
bool ShipsDemotableRecord(const QueryResponse& r) {
  for (const TreeResultSet& tree : r.trees) {
    for (const Object& obj : tree.objects) {
      if (!KeepsRecordInAggregate(obj.value)) return true;
    }
  }
  for (const ShardSlice& slice : r.slices) {
    if (ShipsDemotableRecord(slice.response)) return true;
  }
  return false;
}

}  // namespace

Bytes SerializeResponse(const QueryResponse& response, WireVersion version) {
  Bytes out;
  SerializeResponseInto(response, version, &out);
  return out;
}

void SerializeResponseInto(const QueryResponse& response,
                           WireVersion /*version*/, Bytes* out) {
  wirev3::SerializeInto(response, out);
}

std::optional<QueryResponse> ParseResponse(const Bytes& data) {
  return wirev3::Parse(data);
}

Bytes SerializeSpecResponse(const SpecResponse& response, WireVersion version) {
  Bytes out;
  SerializeSpecResponseInto(response, version, &out);
  return out;
}

void SerializeSpecResponseInto(const SpecResponse& response,
                               WireVersion version, Bytes* out) {
  out->push_back(static_cast<uint8_t>(version));
  out->push_back(kKindSpec);
  Bytes spec = SerializeQuerySpec(response.spec);
  AppendUint64(out, spec.size());
  out->insert(out->end(), spec.begin(), spec.end());
  AppendUint64(out, response.conjuncts.size());
  if (AnsweredByOneConjunct(response.spec)) {
    AppendUint64(out, response.answering);
  }
  for (const QueryResponse& conjunct : response.conjuncts) {
    // Reserve the length prefix, encode in place, then patch the prefix: no
    // intermediate copy of the conjunct image.
    const size_t prefix = out->size();
    AppendUint64(out, 0);
    SerializeResponseInto(conjunct, version, out);
    const uint64_t len = out->size() - prefix - 8;
    for (int i = 0; i < 8; ++i) {
      (*out)[prefix + i] = static_cast<uint8_t>(len >> (56 - 8 * i));
    }
  }
}

std::optional<SpecResponse> ParseSpecResponse(const Bytes& data) {
  if (data.size() < 2 || data[0] != wirev3::kVersion || data[1] != kKindSpec) {
    return std::nullopt;
  }
  size_t pos = 2, start = 0;
  uint64_t size = 0;
  if (!SkipBlob(data, &pos, &start, &size)) return std::nullopt;
  auto spec = ParseQuerySpec(Bytes(data.begin() + static_cast<long>(start),
                                   data.begin() + static_cast<long>(start + size)));
  if (!spec.has_value()) return std::nullopt;
  SpecResponse response;
  response.spec = std::move(*spec);
  uint64_t num_conjuncts = 0;
  if (!ReadU64(data, &pos, &num_conjuncts)) return std::nullopt;
  // Structural: an AND of several predicates ships exactly one conjunct and
  // the index of the predicate it answers; every other spec ships one
  // conjunct per predicate, in predicate order, and no index. Anything else
  // (the all-conjuncts AND shape included) is malformed, not merely
  // unverifiable.
  if (AnsweredByOneConjunct(response.spec)) {
    uint64_t answering = 0;
    if (num_conjuncts != 1 || !ReadU64(data, &pos, &answering) ||
        answering >= response.spec.predicates.size()) {
      return std::nullopt;
    }
    response.answering = static_cast<uint32_t>(answering);
  } else if (num_conjuncts != response.spec.predicates.size()) {
    return std::nullopt;
  }
  response.conjuncts.reserve(num_conjuncts);
  for (uint64_t i = 0; i < num_conjuncts; ++i) {
    // Each conjunct parses in place. wirev3::Parse only yields single or
    // composite shapes, so spec envelopes cannot nest.
    if (!SkipBlob(data, &pos, &start, &size)) return std::nullopt;
    auto sub = wirev3::Parse(data.data() + start, size);
    if (!sub.has_value()) return std::nullopt;
    // An aggregate answer keeps a record only when it is no longer than its
    // hash (KeepsRecordInAggregate): a longer kept record is malformed.
    if (response.spec.aggregate != AggregateKind::kNone &&
        ShipsDemotableRecord(*sub)) {
      return std::nullopt;
    }
    response.conjuncts.push_back(std::move(*sub));
  }
  if (pos != data.size()) return std::nullopt;
  return response;
}

namespace {

// Traced-wire envelope magic. A bare wire image starts with its version
// byte (wirev3::kVersion), so the magic's first byte can never collide with
// one.
constexpr uint8_t kTracedWireMagic[4] = {'G', 'T', 'W', '1'};
constexpr size_t kTracedWireHeader = 4 + 3 * 8;

}  // namespace

Bytes WrapTracedWire(const telemetry::TraceContext& trace, const Bytes& image) {
  if (!trace.valid()) return image;
  Bytes out;
  out.reserve(kTracedWireHeader + image.size());
  WrapTracedWireHeaderInto(trace, &out);
  out.insert(out.end(), image.begin(), image.end());
  return out;
}

void WrapTracedWireHeaderInto(const telemetry::TraceContext& trace,
                              Bytes* out) {
  if (!trace.valid()) return;
  out->insert(out->end(), kTracedWireMagic, kTracedWireMagic + 4);
  AppendUint64(out, trace.trace_hi);
  AppendUint64(out, trace.trace_lo);
  AppendUint64(out, trace.parent_span);
}

TracedWire UnwrapTracedWire(const Bytes& data) {
  TracedWire result;
  if (data.size() < kTracedWireHeader ||
      !std::equal(kTracedWireMagic, kTracedWireMagic + 4, data.begin())) {
    result.image = data;
    return result;
  }
  size_t pos = 4;
  ReadU64(data, &pos, &result.trace.trace_hi);
  ReadU64(data, &pos, &result.trace.trace_lo);
  ReadU64(data, &pos, &result.trace.parent_span);
  result.image.assign(data.begin() + kTracedWireHeader, data.end());
  return result;
}

}  // namespace gem2::core
