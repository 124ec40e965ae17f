/// \file range_conjunct.h
/// The paper's range query [lb, ub] is core::QuerySpec::Range(lb, ub), whose
/// answer ships exactly one conjunct: a plain QueryResponse. Codec and
/// tamper tests work on that conjunct — serialize it, parse it, mutate it —
/// and then hand it back to the client through the spec surface.
#ifndef GEM2_TESTS_RANGE_CONJUNCT_H_
#define GEM2_TESTS_RANGE_CONJUNCT_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/range_store.h"
#include "core/response.h"
#include "core/wire.h"

namespace gem2::testutil {

/// The one conjunct `db` answers QuerySpec::Range(lb, ub) with.
inline core::QueryResponse RangeConjunct(const core::RangeStore& db, Key lb,
                                         Key ub) {
  return std::move(
      db.ExecuteSpec(core::QuerySpec::Range(lb, ub)).conjuncts[0]);
}

/// A copy of `conjunct` wrapped as the answer to QuerySpec::Range(lb, ub).
inline core::SpecResponse RangeAnswer(Key lb, Key ub,
                                      const core::QueryResponse& conjunct) {
  core::SpecResponse answer;
  answer.spec = core::QuerySpec::Range(lb, ub);
  answer.trace = conjunct.trace;
  answer.conjuncts.push_back(conjunct);
  return answer;
}

/// Full (chain-reading) client verification of `conjunct` as the answer to
/// the range [lb, ub] the client issued.
inline core::VerifiedSpecResult VerifyConjunct(
    core::RangeStore& db, Key lb, Key ub, const core::QueryResponse& conjunct) {
  return db.VerifySpecFor(core::QuerySpec::Range(lb, ub),
                          RangeAnswer(lb, ub, conjunct));
}

/// Client verification of a conjunct *image* (SerializeResponse bytes, as
/// the fault mutators emit them): ParseResponse, then VerifyConjunct. An
/// image that does not parse fails closed with "malformed wire image".
inline core::VerifiedSpecResult VerifyConjunctImage(core::RangeStore& db,
                                                    Key lb, Key ub,
                                                    const Bytes& image) {
  std::optional<core::QueryResponse> parsed = core::ParseResponse(image);
  if (!parsed.has_value()) {
    core::VerifiedSpecResult out;
    out.error = "malformed wire image";
    return out;
  }
  return VerifyConjunct(db, lb, ub, *parsed);
}

/// As VerifyConjunct, against already-retrieved chain state.
inline core::VerifiedSpecResult VerifyConjunctAgainst(
    const core::RangeStore& db,
    const std::vector<chain::AuthenticatedState>& states, Key lb, Key ub,
    const core::QueryResponse& conjunct) {
  return db.VerifySpecAgainst(states, core::QuerySpec::Range(lb, ub),
                              RangeAnswer(lb, ub, conjunct));
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_RANGE_CONJUNCT_H_
