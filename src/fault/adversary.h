/// \file adversary.h
/// Seeded adversarial sweep: a malicious SP mounts hundreds of structured
/// forgeries and byte-level corruptions against a live database, and the
/// harness measures the client's rejection rate. The paper's tamper-evidence
/// claim holds iff that rate is 100%.
#ifndef GEM2_FAULT_ADVERSARY_H_
#define GEM2_FAULT_ADVERSARY_H_

#include <map>
#include <string>
#include <vector>

#include "core/range_store.h"
#include "fault/mutator.h"

namespace gem2::fault {

struct AdversaryOptions {
  uint64_t seed = 1;
  /// Forgeries to mount. Each draws a fresh query, mutates its response, and
  /// pushes the forged image through parse + full client verification.
  int mutations = 500;
  /// Query ranges are drawn uniformly inside [domain_lo, domain_hi].
  Key domain_lo = 0;
  Key domain_hi = 1'000'000;
};

struct AdversaryReport {
  uint64_t seed = 0;
  int attempted = 0;
  int rejected_parse = 0;   // forged image failed ParseResponse
  int rejected_verify = 0;  // parsed, but failed client verification
  /// Byte-level flips that decoded back to the canonical original image
  /// (redundant framing touched; semantically not a forgery).
  int canonical_noop = 0;
  /// Semantic forgeries the client accepted. Any entry here is a broken
  /// security property.
  std::vector<std::string> forgeries;
  std::map<std::string, int> attempts_by_op;

  int forged() const { return static_cast<int>(forgeries.size()); }
  bool AllRejected() const { return attempted > 0 && forgeries.empty(); }

  friend bool operator==(const AdversaryReport&, const AdversaryReport&) = default;
};

/// Runs the sweep against `db` (which already holds data). Deterministic:
/// identical (db state, options) pairs produce identical reports. Counters
/// land in the telemetry registry under fault.mutation.*.
AdversaryReport RunAdversarialSweep(core::RangeStore& db,
                                    const AdversaryOptions& options);

/// Sweep options for typed-spec answers. Queries are not drawn from a key
/// domain — the caller supplies the specs to attack (boolean shapes,
/// aggregates, cross-attribute predicates) and the sweep cycles through
/// them, executing each fresh every round.
struct SpecAdversaryOptions {
  uint64_t seed = 1;
  int mutations = 500;
  std::vector<core::QuerySpec> specs;
};

/// The typed-spec analogue of RunAdversarialSweep: mounts SpecMutationOp
/// forgeries (conjunct swapping/dropping, aggregate-boundary tampering, spec
/// echo rewrites, ...) against `db` and pushes each forged image through
/// ParseSpecResponse + VerifySpecFor. Every operator is semantic, so
/// AllRejected() must hold on a correct implementation. Deterministic per
/// (db state, options); returns an empty report when `specs` is empty.
AdversaryReport RunSpecAdversarialSweep(core::RangeStore& db,
                                        const SpecAdversaryOptions& options);

/// Stale-response replay: serializes a response for [lb, ub], advances the
/// chain by `extra_inserts` fresh in-range inserts (so the on-chain digests
/// move past the captured response), then replays the stale image. Returns
/// true when the client rejects it; `why` receives the rejection error.
bool StaleReplayRejected(core::RangeStore& db, Key lb, Key ub,
                         int extra_inserts, uint64_t seed,
                         std::string* why = nullptr);

}  // namespace gem2::fault

#endif  // GEM2_FAULT_ADVERSARY_H_
