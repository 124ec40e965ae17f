/// \file introspect.h
/// Registers the cross-layer fact providers that the telemetry introspection
/// surface (telemetry/introspect.h) cannot reach itself: the Keccak
/// permutation counter (crypto) and — via counters maintained by
/// chain::Environment — state-commitment work.
///
/// Registration is idempotent and cheap; every RangeStore backend constructor
/// calls it, so any process that builds a store exposes the full surface.
#ifndef GEM2_CORE_INTROSPECT_H_
#define GEM2_CORE_INTROSPECT_H_

namespace gem2::core {

/// Installs the "keccak" provider into
/// telemetry::Introspection::Global(). Safe to call repeatedly.
void RegisterCoreIntrospection();

}  // namespace gem2::core

#endif  // GEM2_CORE_INTROSPECT_H_
