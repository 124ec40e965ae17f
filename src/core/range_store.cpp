#include "core/range_store.h"

#include <algorithm>
#include <stdexcept>

#include "core/aggregates.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace gem2::core {
namespace {

/// The trace a client verify runs under: the one the SP stamped on the
/// response, or the thread's current trace for hand-built responses.
telemetry::TraceContext VerifyTrace(const telemetry::TraceContext& stamped) {
  return stamped.valid() ? stamped : telemetry::CurrentTrace();
}

/// How many VO-carrying wire bytes this client decoded:
/// "client.vo_bytes.v3", or "client.vo_bytes.unknown" for images of any
/// other version (rejected as malformed).
void CountWireBytes(const Bytes& image) {
  if (!telemetry::Tracer::Global().enabled()) return;
  const bool v3 = !image.empty() && image[0] == wirev3::kVersion;
  telemetry::MetricsRegistry::Global()
      .counter(v3 ? "client.vo_bytes.v3" : "client.vo_bytes.unknown")
      .Add(image.size());
}

/// Block header fields a VO_chain ships once per response: four hashes and
/// three integers.
constexpr uint64_t kVoChainHeaderBytes = 4 * 32 + 24;

/// Result payload bytes a response ships, composite slices included.
uint64_t PayloadBytes(const QueryResponse& response) {
  uint64_t total = 0;
  for (const TreeResultSet& tree : response.trees) {
    for (const Object& obj : tree.objects) total += obj.value.size();
  }
  for (const ShardSlice& slice : response.slices) {
    total += PayloadBytes(slice.response);
  }
  return total;
}

}  // namespace

// --- Typed spec surface ------------------------------------------------------

SpecResponse RangeStore::ExecuteSpec(const QuerySpec& spec) const {
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span("sp.spec_query");
  SpecResponse response;
  response.trace = span.context();
  response.spec = spec;
  const bool one_conjunct = AnsweredByOneConjunct(spec);
  response.conjuncts.reserve(one_conjunct ? 1 : spec.predicates.size());
  uint64_t answer_bytes = 0;
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    const Predicate& p = spec.predicates[i];
    Key tree_lb = 0;
    Key tree_ub = 0;
    MapPredicateRange(p.attr, p.lb, p.ub, &tree_lb, &tree_ub);
    QueryResponse conjunct = QueryPredicate(p.attr, tree_lb, tree_ub);
    // Aggregates ship boundary structure: each result entry whose hash is
    // shorter than its record becomes an explicit-hash boundary entry.
    if (spec.aggregate != AggregateKind::kNone) StripForAggregate(&conjunct);
    if (one_conjunct) {
      // An AND ships only its smallest conjunct, sized as proof plus payload
      // bytes (a proxy for the wire image that needs no serialization). Ties
      // keep the lowest predicate index.
      const uint64_t bytes = VoSpBytes(conjunct) + PayloadBytes(conjunct);
      if (!response.conjuncts.empty() && bytes >= answer_bytes) continue;
      answer_bytes = bytes;
      response.answering = static_cast<uint32_t>(i);
      response.conjuncts.clear();
    }
    response.conjuncts.push_back(std::move(conjunct));
  }
  if (telemetry::Tracer::Global().enabled()) {
    telemetry::MetricsRegistry::Global().counter("spec_query.count").Add(1);
  }
  return response;
}

Bytes RangeStore::SpecWire(const QuerySpec& spec) const {
  Bytes out;
  SpecWireInto(spec, &out);
  return out;
}

void RangeStore::SpecWireInto(const QuerySpec& spec, Bytes* out) const {
  SpecResponse response = ExecuteSpec(spec);
  WrapTracedWireHeaderInto(response.trace, out);
  SerializeSpecResponseInto(response, wire_version(), out);
}

VerifiedSpecResult RangeStore::ComposeSpecVerification(
    const std::vector<chain::AuthenticatedState>& states, const QuerySpec& spec,
    const SpecResponse& response) const {
  TELEMETRY_SPAN("client.verify_spec");
  VerifiedSpecResult out;
  auto fail = [&](std::string msg) {
    out.ok = false;
    out.error = std::move(msg);
    out.objects.clear();
    out.aggregates.reset();
    return out;
  };

  const std::string spec_error = spec.Check();
  if (!spec_error.empty()) return fail("invalid query spec: " + spec_error);
  // Pin the echoed spec: an answer to any other spec — widened range,
  // flipped operator, different aggregate — is rejected before any
  // per-conjunct work.
  if (!(response.spec == spec)) {
    return fail("response spec does not match the issued query");
  }
  const bool one_conjunct = AnsweredByOneConjunct(spec);
  if (response.conjuncts.size() !=
      (one_conjunct ? 1 : spec.predicates.size())) {
    return fail("conjunct count does not match the spec");
  }
  if (one_conjunct && response.answering >= spec.predicates.size()) {
    return fail("answering predicate outside the spec");
  }
  for (const Predicate& p : spec.predicates) {
    if (p.attr >= num_attributes()) {
      return fail("predicate over unknown attribute");
    }
  }
  for (const QueryResponse& conjunct : response.conjuncts) {
    out.vo_sp_bytes += VoSpBytes(conjunct);
  }
  // Every state must commit into one header: states sealed at different
  // heights cannot be checked against one chain tip.
  for (const chain::AuthenticatedState& state : states) {
    if (state.header != states.front().header) {
      return fail("VO_chain states are not anchored at one header");
    }
  }
  if (!states.empty()) out.vo_chain_bytes = kVoChainHeaderBytes;

  if (spec.aggregate != AggregateKind::kNone) {
    const Predicate& p = spec.predicates[0];
    Key tree_lb = 0;
    Key tree_ub = 0;
    MapPredicateRange(p.attr, p.lb, p.ub, &tree_lb, &tree_ub);
    const QueryResponse& conjunct = response.conjuncts[0];
    if (conjunct.lb != tree_lb || conjunct.ub != tree_ub) {
      return fail("conjunct range does not match its predicate");
    }
    std::vector<ads::Entry> entries;
    VerifiedResult r = VerifyPredicateAgainst(states, p.attr, tree_lb, tree_ub,
                                              conjunct, &entries);
    out.vo_chain_bytes += r.vo_chain_bytes;
    if (!r.ok) return fail("conjunct 0: " + r.error);
    const uint32_t attr = p.attr;
    out.aggregates = AggregateBoundary(
        entries, [this, attr](Key k) { return DecodeAttrValue(attr, k); },
        &out.tombstones_filtered);
    out.ok = true;
    return out;
  }

  // Boolean composition. A conjunct is verified sound AND complete over its
  // own predicate's range before any filter or set operation, so no record
  // can be smuggled in or withheld by playing conjuncts against each other.
  // Fills `*records` with the conjunct's canonical records in ascending
  // record order; returns the reason on failure.
  auto verify_conjunct = [&](size_t i, const QueryResponse& conjunct,
                             std::vector<SpecRecord>* records) {
    const Predicate& p = spec.predicates[i];
    const std::string where = "conjunct " + std::to_string(i);
    Key tree_lb = 0;
    Key tree_ub = 0;
    MapPredicateRange(p.attr, p.lb, p.ub, &tree_lb, &tree_ub);
    if (conjunct.lb != tree_lb || conjunct.ub != tree_ub) {
      return where + " range does not match its predicate";
    }
    VerifiedResult r = VerifyPredicateAgainst(states, p.attr, tree_lb, tree_ub,
                                              conjunct, nullptr);
    out.vo_chain_bytes += r.vo_chain_bytes;
    if (!r.ok) return where + ": " + r.error;
    out.tombstones_filtered += r.tombstones_filtered;
    records->reserve(r.objects.size());
    for (Object& obj : r.objects) {
      SpecRecord record;
      std::string error;
      if (!CanonicalizeSpecObject(p.attr, std::move(obj), &record, &error)) {
        return where + ": " + error;
      }
      records->push_back(std::move(record));
    }
    // A key-indexed conjunct verifies in record order already; a
    // multi-attribute index orders by (value, record id).
    auto by_record = [](const SpecRecord& a, const SpecRecord& b) {
      return a.object.key < b.object.key;
    };
    if (!std::is_sorted(records->begin(), records->end(), by_record)) {
      std::sort(records->begin(), records->end(), by_record);
    }
    auto same_record = [](const SpecRecord& a, const SpecRecord& b) {
      return a.object.key == b.object.key;
    };
    if (std::adjacent_find(records->begin(), records->end(), same_record) !=
        records->end()) {
      return where + ": duplicate record in conjunct";
    }
    return std::string();
  };

  if (one_conjunct) {
    // AND from one conjunct: every index stores the whole record, so the
    // answering predicate's verified range holds every match, each carrying
    // its other attribute values under the same state root. Keep the
    // records that satisfy every predicate.
    std::vector<SpecRecord> records;
    const std::string error =
        verify_conjunct(response.answering, response.conjuncts[0], &records);
    if (!error.empty()) return fail(error);
    for (SpecRecord& record : records) {
      const bool match = std::all_of(
          spec.predicates.begin(), spec.predicates.end(),
          [&record](const Predicate& p) {
            const Key v = record.AttrValue(p.attr);
            return v >= p.lb && v <= p.ub;
          });
      if (match) out.objects.push_back(std::move(record.object));
    }
    out.ok = true;
    return out;
  }

  // OR (or a single predicate): the union of the conjuncts, by record — a
  // merge of ascending runs.
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    std::vector<SpecRecord> records;
    const std::string error =
        verify_conjunct(i, response.conjuncts[i], &records);
    if (!error.empty()) return fail(error);
    std::vector<Object> merged;
    merged.reserve(out.objects.size() + records.size());
    auto a = out.objects.begin();
    auto b = records.begin();
    while (a != out.objects.end() || b != records.end()) {
      if (b == records.end() ||
          (a != out.objects.end() && a->key < b->object.key)) {
        merged.push_back(std::move(*a++));
      } else if (a == out.objects.end() || b->object.key < a->key) {
        merged.push_back(std::move((b++)->object));
      } else {
        // Defense in depth: every conjunct that returns a record must agree
        // on its payload — an SP cannot present two views of one record.
        if (a->value != b->object.value) {
          return fail("conjuncts disagree on a record payload");
        }
        merged.push_back(std::move(*a++));
        ++b;
      }
    }
    out.objects = std::move(merged);
  }
  out.ok = true;
  return out;
}

VerifiedSpecResult RangeStore::VerifyFromChain(const QuerySpec& spec,
                                               const SpecResponse& response) {
  const std::vector<chain::AuthenticatedState> states = ReadChainState();
  // SPV-style client: follow headers (PoW + linkage) and require VO_chain to
  // be anchored at the tip, instead of revalidating the whole chain per
  // query. ComposeSpecVerification requires every state to share the first
  // one's header; VerifyResponse checks the leaf proof and the header's PoW
  // of each state a conjunct uses.
  const chain::Blockchain& chain = environment().blockchain();
  if (light_client_ == nullptr) {
    light_client_ =
        std::make_unique<chain::LightClient>(chain.headers().front());
  }
  light_client_->Sync(chain.headers());
  if (!states.empty() && states.front().header != light_client_->tip()) {
    VerifiedSpecResult out;
    out.error = "blockchain failed validation";
    return out;
  }
  return ComposeSpecVerification(states, spec, response);
}

void RangeStore::RecordVerify(const VerifiedSpecResult& result,
                              uint64_t t0_ns) const {
  if (telemetry::Tracer::Global().enabled()) {
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.histogram("client.verify_ns")
        .Observe(telemetry::Tracer::NowNs() - t0_ns);
    metrics.counter("verify.count").Add(1);
    if (!result.ok) metrics.counter("verify.failed").Add(1);
    metrics.histogram("verify.vo_chain_bytes").Observe(result.vo_chain_bytes);
  }
  // The audit log is independent of span capture: one line per rejection
  // whenever it is open, stamped with the installed trace and event fields.
  telemetry::EventLog& log = telemetry::EventLog::Global();
  if (result.ok || !log.enabled()) return;
  log.Emit(std::move(telemetry::Event("verify.reject")
                         .Str("backend", BackendName())
                         .Str("reason", result.error)));
}

VerifiedSpecResult RangeStore::VerifySpecFor(const QuerySpec& spec,
                                             const SpecResponse& response) {
  telemetry::TraceScope trace_scope(VerifyTrace(response.trace));
  const uint64_t t0 =
      telemetry::Tracer::Global().enabled() ? telemetry::Tracer::NowNs() : 0;
  VerifiedSpecResult result = VerifyFromChain(spec, response);
  RecordVerify(result, t0);
  return result;
}

VerifiedSpecResult RangeStore::VerifySpecAgainst(
    const std::vector<chain::AuthenticatedState>& states, const QuerySpec& spec,
    const SpecResponse& response) const {
  telemetry::TraceScope trace_scope(VerifyTrace(response.trace));
  const uint64_t t0 =
      telemetry::Tracer::Global().enabled() ? telemetry::Tracer::NowNs() : 0;
  VerifiedSpecResult result = ComposeSpecVerification(states, spec, response);
  RecordVerify(result, t0);
  return result;
}

VerifiedSpecResult RangeStore::VerifySpecWire(const QuerySpec& spec,
                                              const Bytes& wire) {
  TracedWire traced = UnwrapTracedWire(wire);
  telemetry::TraceScope trace_scope(VerifyTrace(traced.trace));
  const uint64_t t0 =
      telemetry::Tracer::Global().enabled() ? telemetry::Tracer::NowNs() : 0;
  CountWireBytes(traced.image);
  std::optional<SpecResponse> parsed;
  {
    TELEMETRY_SPAN("client.decode");
    parsed = ParseSpecResponse(traced.image);
  }
  VerifiedSpecResult result;
  if (parsed.has_value()) {
    parsed->trace = traced.trace;
    result = VerifyFromChain(spec, *parsed);
  } else {
    result.error = "malformed wire image";
  }
  RecordVerify(result, t0);
  return result;
}

VerifiedSpecResult RangeStore::AuthenticatedSpec(const QuerySpec& spec) {
  return VerifySpecFor(spec, ExecuteSpec(spec));
}

}  // namespace gem2::core
