/// \file catalogue.h
/// The adversarial SP's forgery catalogue: one table of operators over one
/// forged value.
///
/// The paper's security argument (Section V-B) is that an untrusted SP cannot
/// make a client accept a wrong or incomplete answer: every forgery must fail
/// either the wire codec or client verification against the on-chain digests.
/// The catalogue enumerates the forgeries a malicious SP, or whoever relays
/// VO_chain, could actually attempt: dropping or altering result records,
/// rewriting VO hashes, shifting the claimed range, attacking a sharded
/// scatter plan, the v3 framing, a typed-spec answer's composition, or the
/// chain states themselves, plus blind byte-level corruption of the image.
///
/// Every operator but the blind byte flip is targeted: applied to a
/// well-formed answer it produces a *different* answer (never a canonical
/// no-op), so a sweep asserts a strict 100% rejection rate for them.
#ifndef GEM2_FAULT_CATALOGUE_H_
#define GEM2_FAULT_CATALOGUE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "chain/environment.h"
#include "common/random.h"
#include "core/response.h"

namespace gem2::fault {

/// What every operator forges: the answer a client receives, the VO_chain
/// states it verifies that answer against, and the answer's wire image.
struct Forgery {
  core::SpecResponse answer;
  std::vector<chain::AuthenticatedState> states;
  /// The single, composite and wire families forge a range answer, whose
  /// image is its one conjunct's (core::wirev3::Serialize); the spec and
  /// chain-state families' image is the spec envelope
  /// (core::SerializeSpecResponse).
  Bytes image;
};

/// Which part of the answer an operator attacks.
enum class Family : uint8_t {
  kSingle,      // the records, VO entries and split points of a response and
                // of every slice of a composite one, and its claimed range
  kComposite,   // a sharded response's scatter plan
  kWire,        // the v3 image's varint framing and version byte
  kSpec,        // a typed-spec answer's composition, aggregate and spec echo
  kChainState,  // the VO_chain states the answer is verified against
};

/// What a client that accepted the forgery would get wrong (vChain's
/// soundness/completeness split), or an image the codec must refuse.
enum class AttackClass : uint8_t {
  kSoundness,     // a record, proof or state that is not the chain's
  kCompleteness,  // an answer missing records the query covers
  kMalformed,     // an image outside the grammar; a blind one may land in
                  // redundant framing and decode back to the honest answer
};

/// What an operator reads of the attacked store besides the forged value.
struct Target {
  /// True when the store's values are multiattr::EncodeRecord records
  /// carrying every attribute; false when the key is a value's only
  /// attribute. Decided by the store, never by whether a value happens to
  /// decode as a record.
  bool records = false;
  /// The store's num_attributes(). VO_chain lists each attribute's
  /// contracts in turn, one per shard.
  uint32_t attributes = 1;
  /// The chain-state family's site: digest `digest` of state `state`, or the
  /// state as a whole when `digest` is its digest count.
  size_t state = 0;
  size_t digest = 0;
  /// The store's VO_chain as sealed one write before `Forgery::states`.
  std::vector<chain::AuthenticatedState> earlier;
};

/// One forgery operator.
struct Operator {
  std::string_view name;
  Family family;
  AttackClass attack;
  /// True when `value` holds what the operator forges. Draws nothing.
  bool (*applies)(const Forgery& value, const Target& target);
  /// Forges `value` in place, drawing from `rng`, and rewrites its image.
  /// Call only when `applies`. False, with `value` untouched, when the draws
  /// land on nothing to forge: swap_vo_hashes between equal hashes,
  /// tamper_aggregate_boundary in a conjunct without a hash site; or, without
  /// drawing, on records the operator cannot use: prefilter_conjunct when
  /// every record passes the filter, rewrite_other_attr when none carries a
  /// second attribute.
  bool (*forge)(Forgery& value, const Target& target, Rng& rng);
};

/// Every operator, family by family in Family order.
std::span<const Operator> Catalogue();

/// One family's operators, in catalogue order.
std::span<const Operator> Operators(Family family);

}  // namespace gem2::fault

#endif  // GEM2_FAULT_CATALOGUE_H_
