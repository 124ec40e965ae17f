/// \file adversary.h
/// The seeded forgery sweep: a malicious SP mounts hundreds of forgeries from
/// the catalogue (fault/catalogue.h) against a live store, and the harness
/// measures the client's rejection rate. The paper's tamper-evidence claim
/// holds iff that rate is 100%.
#ifndef GEM2_FAULT_ADVERSARY_H_
#define GEM2_FAULT_ADVERSARY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/range_store.h"
#include "fault/catalogue.h"

namespace gem2::fault {

struct SweepOptions {
  uint64_t seed = 1;
  /// The families drawn from: round i forges with an operator drawn
  /// uniformly from families[i % size], retrying until one applies. The
  /// chain-state family is not drawn but enumerated: each of its operators
  /// at every state and digest, against each spec once.
  std::vector<Family> families;
  /// Drawn forgeries to mount. Each executes its query fresh, forges the
  /// answer and pushes the forged image through parse + VerifySpecFor.
  int rounds = 500;
  /// The queries, cycled in order. When empty, each round draws a range
  /// uniformly inside [domain_lo, domain_hi] instead.
  std::vector<core::QuerySpec> specs;
  Key domain_lo = 0;
  Key domain_hi = 1'000'000;
  /// The chain-state family's stale states: the store's VO_chain read one
  /// write before the sweep.
  std::vector<chain::AuthenticatedState> earlier;
};

struct SweepReport {
  uint64_t seed = 0;
  int attempted = 0;
  int rejected_parse = 0;   // forged image failed the codec
  int rejected_verify = 0;  // parsed, but every client check rejected it
  /// Malformed-class images that decoded back to the honest answer
  /// (redundant framing touched; semantically not a forgery).
  int canonical_noop = 0;
  /// Forgeries the client accepted. Any entry here is a broken security
  /// property.
  std::vector<std::string> forgeries;
  std::map<std::string, int> attempts_by_op;

  int forged() const { return static_cast<int>(forgeries.size()); }
  bool AllRejected() const { return attempted > 0 && forgeries.empty(); }

  friend bool operator==(const SweepReport&, const SweepReport&) = default;
};

/// One forgery as the client saw it.
struct Round {
  const Operator& op;
  const core::QuerySpec& spec;
  const Forgery& forged;
  /// The answer the client decoded from the forged image (the forged answer
  /// itself for the chain-state family), or null when the codec refused it.
  const core::SpecResponse* parsed;
  /// VerifySpecFor's verdict on `parsed` (VerifySpecAgainst's on the forged
  /// states for the chain-state family), or null when the codec refused it.
  const core::VerifiedSpecResult* verdict;
};

/// Runs the sweep against `db` (which already holds data), calling `observe`
/// on every forgery after the client's checks. Deterministic: identical (db
/// state, options) pairs produce identical reports and forgeries. Queries
/// draw from DeriveSeed(seed, 0x71); the spec family's forgeries from
/// DeriveSeed(seed, 0x5c) and every other family's from DeriveSeed(seed,
/// 0x4d), so a sweep drawing both keeps their streams independent. A
/// chain-state forgery is rejected when VerifySpecAgainst rejects the forged
/// list and answer, VerifyStateAtTip every state that is not the tip's, and
/// VerifyAuthenticatedState every state that is neither the tip's nor the
/// earlier one (which is sound on its own by design). Counters land
/// in the telemetry registry under fault.mutation.*, and every rejection's
/// audit event carries the forgery's operator, seed and round.
SweepReport RunForgerySweep(core::RangeStore& db, const SweepOptions& options,
                            const std::function<void(const Round&)>& observe = {});

/// Stale-response replay: serializes a response for [lb, ub], advances the
/// chain by `extra_inserts` fresh in-range inserts (so the on-chain digests
/// move past the captured response), then replays the stale image. Returns
/// true when the client rejects it; `why` receives the rejection error.
bool StaleReplayRejected(core::RangeStore& db, Key lb, Key ub,
                         int extra_inserts, uint64_t seed,
                         std::string* why = nullptr);

}  // namespace gem2::fault

#endif  // GEM2_FAULT_ADVERSARY_H_
