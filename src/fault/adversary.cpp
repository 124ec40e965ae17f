#include "fault/adversary.h"

#include <algorithm>

#include "core/wire_v3.h"
#include "fault/fault.h"
#include "multiattr/multiattr_db.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::fault {
namespace {

void Count(const char* name, uint64_t delta = 1) {
  if (telemetry::kCompiledIn) {
    telemetry::MetricsRegistry::Global().counter(name).Add(delta);
  }
}

}  // namespace

AdversaryReport RunAdversarialSweep(core::RangeStore& db,
                                    const AdversaryOptions& options) {
  AdversaryReport report;
  report.seed = options.seed;
  Rng query_rng(DeriveSeed(options.seed, 0x71));
  ResponseMutator mutator(DeriveSeed(options.seed, 0x4d));

  for (int i = 0; i < options.mutations; ++i) {
    // Fresh query each round so forgeries hit many response shapes (empty
    // results, single tree, many trees, wide and narrow ranges).
    const uint64_t span = static_cast<uint64_t>(options.domain_hi) -
                          static_cast<uint64_t>(options.domain_lo);
    Key lb = options.domain_lo + static_cast<Key>(query_rng.Uniform(0, span));
    Key ub = options.domain_lo + static_cast<Key>(query_rng.Uniform(0, span));
    if (ub < lb) std::swap(lb, ub);

    // A range is the one-predicate spec; its single conjunct is the
    // QueryResponse the catalogue mutates.
    const core::QuerySpec spec = core::QuerySpec::Range(lb, ub);
    const core::SpecResponse answer = db.ExecuteSpec(spec);
    const core::QueryResponse& response = answer.conjuncts[0];
    std::string op_name;
    Bytes wire;
    bool byte_level = false;
    // Even rounds draw from the structured catalogue, odd rounds from the
    // surgical wire operators, so both the semantic and the format-level
    // attack surfaces see hundreds of seeded rounds.
    if (i % 2 == 1) {
      WireV3Mutation mutation = mutator.MutateWireV3(response);
      op_name = WireV3MutationOpName(mutation.op);
      wire = std::move(mutation.wire);
    } else {
      Mutation mutation = mutator.Mutate(response);
      op_name = MutationOpName(mutation.op);
      wire = std::move(mutation.wire);
      byte_level = mutation.byte_level;
    }
    ++report.attempted;
    ++report.attempts_by_op[op_name];
    Count("fault.mutation.attempted");

    // Every audit event below — parse rejection here, verify rejection
    // emitted inside the client's Verify path — carries the forgery's
    // operator, seed, and round via the thread's annotation stack, plus the
    // query's trace id via the installed trace scope.
    telemetry::ScopedEventFields audit_fields(
        {{"op", op_name},
         {"seed", std::to_string(options.seed)},
         {"round", std::to_string(i)}});
    telemetry::TraceScope trace_scope(response.trace.valid()
                                          ? response.trace
                                          : telemetry::CurrentTrace());

    std::optional<core::QueryResponse> parsed = core::ParseResponse(wire);
    if (!parsed.has_value()) {
      ++report.rejected_parse;
      Count("fault.mutation.rejected_parse");
      if (telemetry::EventLog::Global().enabled()) {
        telemetry::EventLog::Global().Emit(
            std::move(telemetry::Event("verify.reject")
                          .Str("backend", db.BackendName())
                          .Str("reason", "malformed wire image")));
      }
      continue;
    }
    // The trace context never survives the (bare) wire image — re-attach the
    // original query's identity so the verify path logs under it.
    parsed->trace = response.trace;
    core::SpecResponse forged;
    forged.spec = spec;
    forged.trace = answer.trace;
    forged.conjuncts.push_back(std::move(*parsed));
    core::VerifiedSpecResult vr = db.VerifySpecFor(spec, forged);
    if (!vr.ok) {
      ++report.rejected_verify;
      Count("fault.mutation.rejected_verify");
      continue;
    }
    // The client accepted. For blind byte flips this is legitimate only when
    // the flip hit redundant framing and the canonical re-serialization is
    // the unmutated image; anything else is a successful forgery.
    if (byte_level && core::wirev3::Serialize(forged.conjuncts[0]) ==
                          core::wirev3::Serialize(response)) {
      ++report.canonical_noop;
      Count("fault.mutation.canonical_noop");
      continue;
    }
    report.forgeries.push_back("accepted " + op_name +
                               " (seed " + std::to_string(options.seed) +
                               ", round " + std::to_string(i) + ", range [" +
                               std::to_string(lb) + ", " + std::to_string(ub) +
                               "])");
    Count("fault.mutation.forged");
    if (telemetry::EventLog::Global().enabled()) {
      telemetry::EventLog::Global().Emit(
          std::move(telemetry::Event("forgery.accepted")
                        .Str("backend", db.BackendName())
                        .Num("lb", static_cast<uint64_t>(lb))
                        .Num("ub", static_cast<uint64_t>(ub))));
    }
  }
  return report;
}

AdversaryReport RunSpecAdversarialSweep(core::RangeStore& db,
                                        const SpecAdversaryOptions& options) {
  AdversaryReport report;
  report.seed = options.seed;
  if (options.specs.empty()) return report;
  // A distinct stream tag keeps these draws independent of the range sweep's,
  // so running both against one seed never correlates their forgeries.
  ResponseMutator mutator(DeriveSeed(options.seed, 0x5c));
  const ValueShape shape = dynamic_cast<const multiattr::MultiAttrDb*>(&db)
                               ? ValueShape::kRecord
                               : ValueShape::kPayload;

  for (int i = 0; i < options.mutations; ++i) {
    const core::QuerySpec& spec =
        options.specs[static_cast<size_t>(i) % options.specs.size()];
    const core::SpecResponse response = db.ExecuteSpec(spec);
    SpecMutation mutation = mutator.MutateSpec(response, shape);
    const std::string op_name = SpecMutationOpName(mutation.op);
    ++report.attempted;
    ++report.attempts_by_op[op_name];
    Count("fault.mutation.attempted");

    telemetry::ScopedEventFields audit_fields(
        {{"op", op_name},
         {"seed", std::to_string(options.seed)},
         {"round", std::to_string(i)}});
    telemetry::TraceScope trace_scope(response.trace.valid()
                                          ? response.trace
                                          : telemetry::CurrentTrace());

    std::optional<core::SpecResponse> parsed =
        core::ParseSpecResponse(mutation.wire);
    if (!parsed.has_value()) {
      ++report.rejected_parse;
      Count("fault.mutation.rejected_parse");
      if (telemetry::EventLog::Global().enabled()) {
        telemetry::EventLog::Global().Emit(
            std::move(telemetry::Event("verify.reject")
                          .Str("backend", db.BackendName())
                          .Str("reason", "malformed wire image")));
      }
      continue;
    }
    parsed->trace = response.trace;
    core::VerifiedSpecResult vr = db.VerifySpecFor(spec, *parsed);
    if (!vr.ok) {
      ++report.rejected_verify;
      Count("fault.mutation.rejected_verify");
      continue;
    }
    // Every spec operator is semantic — acceptance is a broken property.
    report.forgeries.push_back("accepted " + op_name + " (seed " +
                               std::to_string(options.seed) + ", round " +
                               std::to_string(i) + ", spec " +
                               core::ToString(spec) + ")");
    Count("fault.mutation.forged");
    if (telemetry::EventLog::Global().enabled()) {
      telemetry::EventLog::Global().Emit(
          std::move(telemetry::Event("forgery.accepted")
                        .Str("backend", db.BackendName())
                        .Str("spec", core::ToString(spec))));
    }
  }
  return report;
}

bool StaleReplayRejected(core::RangeStore& db, Key lb, Key ub,
                         int extra_inserts, uint64_t seed, std::string* why) {
  // SpecWire keeps the capture's trace context framed around the image, so
  // the replay's rejection event is attributable to the original query.
  const core::QuerySpec spec = core::QuerySpec::Range(lb, ub);
  const Bytes stale = db.SpecWire(spec);
  telemetry::ScopedEventFields audit_fields(
      {{"op", "stale_replay"}, {"seed", std::to_string(seed)}});

  // Advance the chain: fresh keys inside the queried range, so the stale
  // response is both incomplete and anchored to superseded digests.
  Rng rng(DeriveSeed(seed, 0x57));
  const uint64_t span =
      static_cast<uint64_t>(ub) - static_cast<uint64_t>(lb);
  for (int i = 0; i < extra_inserts; ++i) {
    Key key;
    do {
      key = lb + static_cast<Key>(rng.Uniform(0, span));
    } while (db.Contains(key));
    db.Insert({key, "post-capture-" + std::to_string(i)});
  }

  core::VerifiedSpecResult vr = db.VerifySpecWire(spec, stale);
  if (why != nullptr) *why = vr.ok ? "stale response verified" : vr.error;
  if (telemetry::kCompiledIn) {
    telemetry::MetricsRegistry::Global()
        .counter(vr.ok ? "fault.replay.accepted" : "fault.replay.rejected")
        .Add(1);
  }
  return !vr.ok;
}

}  // namespace gem2::fault
