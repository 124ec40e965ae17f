/// \file observe.h
/// Shared audit-event emission for the verification paths. A client-side
/// verify may nest (a spec verify enters each conjunct's verifier, a sharded
/// conjunct re-enters each shard's, a wire verify re-enters the in-memory
/// verify): VerifyObservation tracks the per-thread nesting depth so exactly
/// one "verify.reject" event is emitted per top-level rejection, carrying the
/// active trace id plus any ScopedEventFields context (the fault sweep's
/// operator and seed).
#ifndef GEM2_CORE_OBSERVE_H_
#define GEM2_CORE_OBSERVE_H_

#include <string_view>

namespace gem2::core {

/// RAII nesting guard for one Verify*/CheckPlan scope.
class VerifyObservation {
 public:
  VerifyObservation();
  ~VerifyObservation();

  VerifyObservation(const VerifyObservation&) = delete;
  VerifyObservation& operator=(const VerifyObservation&) = delete;

  /// True when this scope is the thread's outermost verification.
  bool outermost() const { return outermost_; }

  /// Emits a structured "verify.reject" audit event — backend name and
  /// rejection reason, stamped with trace id and thread context — when this
  /// is the outermost scope and the event log is open. No-op otherwise.
  void RecordRejection(std::string_view backend, std::string_view reason) const;

 private:
  bool outermost_ = false;
};

}  // namespace gem2::core

#endif  // GEM2_CORE_OBSERVE_H_
