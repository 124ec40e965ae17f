#include "fault/adversary.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "chain/light_client.h"
#include "core/wire.h"
#include "core/wire_v3.h"
#include "fault/fault.h"
#include "multiattr/multiattr_db.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::fault {
namespace {

void Count(const char* name, uint64_t delta = 1) {
  telemetry::MetricsRegistry::Global().counter(name).Add(delta);
}

void Emit(telemetry::Event event) {
  if (telemetry::EventLog::Global().enabled()) {
    telemetry::EventLog::Global().Emit(std::move(event));
  }
}

/// Forges `honest` with an operator of `family` drawn uniformly, retrying
/// until one applies and forges. Every family holds an operator that always
/// applies to an answer of its shape, so this terminates.
const Operator& Draw(Family family, const Forgery& honest, const Target& target,
                     Rng& rng, Forgery* forged) {
  const std::span<const Operator> ops = Operators(family);
  for (;;) {
    const Operator& op = ops[rng.Uniform(0, ops.size() - 1)];
    if (!op.applies(honest, target)) continue;
    *forged = honest;
    if (op.forge(*forged, target, rng)) return op;
  }
}

/// The answer the client decodes from a forged image: a spec envelope for
/// the spec family, else the range answer's one conjunct.
std::optional<core::SpecResponse> Parse(Family family, const core::QuerySpec& spec,
                                        const Bytes& image) {
  if (family == Family::kSpec) return core::ParseSpecResponse(image);
  std::optional<core::QueryResponse> conjunct = core::ParseResponse(image);
  if (!conjunct.has_value()) return std::nullopt;
  core::SpecResponse answer;
  answer.spec = spec;
  answer.conjuncts.push_back(std::move(*conjunct));
  return answer;
}

/// The image `answer` serializes to in `family`'s grammar.
Bytes Image(Family family, const core::SpecResponse& answer) {
  return family == Family::kSpec
             ? core::SerializeSpecResponse(answer, core::WireVersion::kV3)
             : core::wirev3::Serialize(answer.conjuncts[0]);
}

class Sweep {
 public:
  Sweep(core::RangeStore& db, const SweepOptions& options,
        const std::function<void(const Round&)>& observe)
      : db_(db), options_(options), observe_(observe) {
    report_.seed = options.seed;
    target_.records = dynamic_cast<const multiattr::MultiAttrDb*>(&db) != nullptr;
    target_.attributes = db.num_attributes();
    target_.earlier = options.earlier;
  }

  SweepReport Run() {
    std::vector<Family> drawn;
    bool chain_state = false;
    for (Family family : options_.families) {
      if (family == Family::kChainState) {
        chain_state = true;
      } else {
        drawn.push_back(family);
      }
    }
    if (!drawn.empty()) {
      for (int i = 0; i < options_.rounds; ++i) DrawRound(drawn[i % drawn.size()]);
    }
    if (chain_state) {
      for (const core::QuerySpec& spec : options_.specs) EnumerateChainState(spec);
    }
    return std::move(report_);
  }

 private:
  core::QuerySpec NextSpec() {
    const size_t round = static_cast<size_t>(report_.attempted);
    if (!options_.specs.empty()) return options_.specs[round % options_.specs.size()];
    // A fresh range each round, so forgeries hit many answer shapes (empty
    // results, single tree, many trees, wide and narrow ranges).
    const uint64_t span = static_cast<uint64_t>(options_.domain_hi) -
                          static_cast<uint64_t>(options_.domain_lo);
    Key lb = options_.domain_lo + static_cast<Key>(query_rng_.Uniform(0, span));
    Key ub = options_.domain_lo + static_cast<Key>(query_rng_.Uniform(0, span));
    if (ub < lb) std::swap(lb, ub);
    return core::QuerySpec::Range(lb, ub);
  }

  /// Counts one attempt and opens its audit scope: every event below —
  /// parse rejection here, verify rejection inside the client's entry
  /// point — carries the operator, seed and round, plus the query's trace.
  telemetry::ScopedEventFields Attempt(const Operator& op) {
    const int round = report_.attempted++;
    ++report_.attempts_by_op[std::string(op.name)];
    Count("fault.mutation.attempted");
    return telemetry::ScopedEventFields({{"op", std::string(op.name)},
                                         {"seed", std::to_string(options_.seed)},
                                         {"round", std::to_string(round)}});
  }

  void Accepted(const Operator& op, const std::string& what) {
    report_.forgeries.push_back("accepted " + std::string(op.name) + " (seed " +
                                std::to_string(options_.seed) + ", round " +
                                std::to_string(report_.attempted - 1) + ", " + what +
                                ")");
    Count("fault.mutation.forged");
  }

  void Rejected() {
    ++report_.rejected_verify;
    Count("fault.mutation.rejected_verify");
  }

  void DrawRound(Family family) {
    const core::QuerySpec spec = NextSpec();
    Forgery honest;
    honest.answer = db_.ExecuteSpec(spec);
    Forgery forged;
    const Operator& op = Draw(family, honest, target_,
                              family == Family::kSpec ? spec_rng_ : forge_rng_, &forged);
    const telemetry::ScopedEventFields audit_fields = Attempt(op);
    telemetry::TraceScope trace_scope(honest.answer.trace.valid()
                                          ? honest.answer.trace
                                          : telemetry::CurrentTrace());

    std::optional<core::SpecResponse> parsed = Parse(family, spec, forged.image);
    if (!parsed.has_value()) {
      ++report_.rejected_parse;
      Count("fault.mutation.rejected_parse");
      Emit(std::move(telemetry::Event("verify.reject")
                         .Str("backend", db_.BackendName())
                         .Str("reason", "malformed wire image")));
      if (observe_) observe_({op, spec, forged, nullptr, nullptr});
      return;
    }
    // The trace context never survives the bare image: re-attach the
    // query's identity so the verify path logs under it.
    parsed->trace = honest.answer.trace;
    const core::VerifiedSpecResult verdict = db_.VerifySpecFor(spec, *parsed);
    if (!verdict.ok) {
      Rejected();
    } else if (op.attack == AttackClass::kMalformed &&
               Image(family, *parsed) == Image(family, honest.answer)) {
      // A blind flip in redundant framing: the client accepted the honest
      // answer.
      ++report_.canonical_noop;
      Count("fault.mutation.canonical_noop");
    } else {
      Accepted(op, "spec " + core::ToString(spec));
      Emit(std::move(telemetry::Event("forgery.accepted")
                         .Str("backend", db_.BackendName())
                         .Str("spec", core::ToString(spec))));
    }
    if (observe_) observe_({op, spec, forged, &*parsed, &verdict});
  }

  void EnumerateChainState(const core::QuerySpec& spec) {
    Forgery honest;
    honest.answer = db_.ExecuteSpec(spec);
    honest.states = db_.ReadChainState();
    honest.image = core::SerializeSpecResponse(honest.answer, core::WireVersion::kV3);
    if (target_.earlier.size() != honest.states.size()) {
      throw std::invalid_argument("chain-state sweep needs the earlier VO_chain");
    }
    const std::vector<chain::BlockHeader>& headers = db_.environment().blockchain().headers();
    chain::LightClient light_client(headers.front());
    light_client.Sync(headers);
    for (target_.state = 0; target_.state < honest.states.size(); ++target_.state) {
      const size_t digests = honest.states[target_.state].digests.size();
      for (target_.digest = 0; target_.digest <= digests; ++target_.digest) {
        for (const Operator& op : Operators(Family::kChainState)) {
          if (!op.applies(honest, target_)) continue;
          Forgery forged = honest;
          op.forge(forged, target_, forge_rng_);
          CheckChainState(op, spec, honest, forged, light_client);
        }
      }
    }
  }

  void CheckChainState(const Operator& op, const core::QuerySpec& spec,
                       const Forgery& honest, const Forgery& forged,
                       const chain::LightClient& light_client) {
    const telemetry::ScopedEventFields audit_fields = Attempt(op);
    std::vector<std::string> passed;
    for (size_t j = 0; j < forged.states.size(); ++j) {
      const chain::AuthenticatedState& state = forged.states[j];
      if (state == honest.states[j]) continue;
      if (light_client.VerifyStateAtTip(state)) passed.push_back("VerifyStateAtTip");
      // A state the chain really sealed verifies on its own by design.
      if (state != target_.earlier[j] &&
          chain::Environment::VerifyAuthenticatedState(state)) {
        passed.push_back("VerifyAuthenticatedState");
      }
    }
    const core::VerifiedSpecResult verdict =
        db_.VerifySpecAgainst(forged.states, spec, forged.answer);
    if (verdict.ok) passed.push_back("VerifySpecAgainst");
    if (passed.empty()) {
      Rejected();
    } else {
      std::string by;
      for (const std::string& check : passed) by += (by.empty() ? "by " : ", ") + check;
      Accepted(op, by + " at " + honest.states[target_.state].contract + " digest " +
                       std::to_string(target_.digest));
    }
    if (observe_) observe_({op, spec, forged, &forged.answer, &verdict});
  }

  core::RangeStore& db_;
  const SweepOptions& options_;
  const std::function<void(const Round&)>& observe_;
  SweepReport report_;
  Target target_;
  Rng query_rng_{DeriveSeed(options_.seed, 0x71)};
  Rng forge_rng_{DeriveSeed(options_.seed, 0x4d)};
  Rng spec_rng_{DeriveSeed(options_.seed, 0x5c)};
};

}  // namespace

SweepReport RunForgerySweep(core::RangeStore& db, const SweepOptions& options,
                            const std::function<void(const Round&)>& observe) {
  return Sweep(db, options, observe).Run();
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
  Count(vr.ok ? "fault.replay.accepted" : "fault.replay.rejected");
  return !vr.ok;
}

}  // namespace gem2::fault
