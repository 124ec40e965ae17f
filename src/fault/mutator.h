/// \file mutator.h
/// The adversarial SP: structured mutation operators over a QueryResponse.
///
/// The paper's security argument (Section V-B) is that an untrusted SP cannot
/// make a client accept a wrong or incomplete answer: every forgery must fail
/// either the wire codec or client verification against the on-chain digests.
/// This catalogue enumerates the forgeries a malicious SP could actually
/// attempt — dropping or altering result objects, rewriting VO sibling
/// hashes, shifting the claimed range, forging the GEM2* upper-level split
/// points — plus blind byte-level corruption of the serialized image.
///
/// Every operator is semantic: applied to a well-formed response it produces
/// a *different* answer (never a canonical no-op), so the harness can assert
/// a strict 100% rejection rate for structured mutations. Byte-level
/// corruption may hit redundant framing; the harness treats a flip whose
/// parse re-serializes to the original image as benign.
#ifndef GEM2_FAULT_MUTATOR_H_
#define GEM2_FAULT_MUTATOR_H_

#include <array>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/response.h"
#include "core/wire.h"

namespace gem2::fault {

enum class MutationOp : uint8_t {
  kDropObject,        // withhold one result: its entry becomes a boundary
                      // entry carrying its value hash (completeness attack)
  kAlterObjectValue,  // tamper with a returned payload (soundness attack)
  kAlterObjectKey,    // move a result, record and entry, to a different key
  kDuplicateObject,   // repeat one result entry, with its record
  kSwapVoHashes,      // swap two sibling/boundary hashes inside the VOs
  kFlipVoHashBit,     // flip one bit of a boundary or pruned-subtree hash
  kShiftRangeBounds,  // claim a different query range than the client issued
  kDropTree,          // withhold one tree's entire answer
  kDuplicateTree,     // answer the same tree twice
  kForgeUpperSplits,  // rewrite the GEM2* upper-level split points
  kCorruptWireBytes,  // blind byte flips on the serialized image
};

inline constexpr std::array<MutationOp, 11> kAllMutationOps = {
    MutationOp::kDropObject,       MutationOp::kAlterObjectValue,
    MutationOp::kAlterObjectKey,   MutationOp::kDuplicateObject,
    MutationOp::kSwapVoHashes,     MutationOp::kFlipVoHashBit,
    MutationOp::kShiftRangeBounds, MutationOp::kDropTree,
    MutationOp::kDuplicateTree,    MutationOp::kForgeUpperSplits,
    MutationOp::kCorruptWireBytes,
};

std::string MutationOpName(MutationOp op);

/// Forgeries specific to a sharded SP's composite response (see
/// shard/sharded_db.h): attacks on the scatter plan itself, plus tampering
/// inside a single shard's sub-response.
enum class CompositeMutationOp : uint8_t {
  kDropSlice,         // withhold one shard's entire sub-response
  kDuplicateSlice,    // answer the same shard twice
  kSwapSlices,        // reorder two slices (plan-order violation)
  kShiftSeam,         // move a shard seam: neighbors still abut, but at the
                      // wrong key — disagrees with the client's bounds
  kMutateInnerSlice,  // apply a semantic single-response operator inside one
                      // slice's sub-response
};

inline constexpr std::array<CompositeMutationOp, 5> kAllCompositeMutationOps = {
    CompositeMutationOp::kDropSlice,  CompositeMutationOp::kDuplicateSlice,
    CompositeMutationOp::kSwapSlices, CompositeMutationOp::kShiftSeam,
    CompositeMutationOp::kMutateInnerSlice,
};

std::string CompositeMutationOpName(CompositeMutationOp op);

/// Forgeries specific to the v3 wire format (core/wire_v3.h): surgical edits
/// on the serialized image that target its varint framing — the
/// delta-encoded VO key chains and the length-prefixed result records — and
/// the leading version byte. Each either fails the codec outright
/// ("malformed wire image") or parses into a semantically different response
/// that client verification must reject; none can be a canonical no-op.
enum class WireV3MutationOp : uint8_t {
  kDeltaKeyCorrupt,       // splice a different delta into the first tree's
                          // VO key chain: the image stays canonical but
                          // every later key in the chain (result records'
                          // keys included) shifts with it
  kValueLengthSkew,       // rewrite one result record's value length so the
                          // value swallows the next child's bytes or strands
                          // its own tail for the parser to misread
  kVersionByteConfusion,  // relabel the image with a version byte other than
                          // v3's (the retired v2, or one never assigned)
};

inline constexpr std::array<WireV3MutationOp, 3> kAllWireV3MutationOps = {
    WireV3MutationOp::kDeltaKeyCorrupt,
    WireV3MutationOp::kValueLengthSkew,
    WireV3MutationOp::kVersionByteConfusion,
};

std::string WireV3MutationOpName(WireV3MutationOp op);

/// Forgeries specific to a typed-spec answer (core::SpecResponse): attacks
/// on the boolean composition itself — playing the per-attribute conjunct
/// answers against each other, or steering an AND's client-side filter —
/// plus tampering with the aggregate boundary structure and the echoed spec.
/// Each must die either in ParseSpecResponse (structural: an AND of several
/// predicates carries one conjunct and an index inside the spec, every other
/// spec one conjunct per predicate) or in VerifySpecFor (the spec echo and
/// every conjunct's range are pinned, and each conjunct's VO is verified
/// against its own attribute's digests); none can be a canonical no-op.
enum class SpecMutationOp : uint8_t {
  kSwapConjunctVos,    // swap two conjuncts' per-attribute answers: each VO
                       // now claims the *other* predicate's range
  kDropConjunct,       // withhold one conjunct's slice of the answer
  kDuplicateConjunct,  // answer one predicate with a copy of another's
                       // response (count stays right, range pin does not)
  kShiftConjunctRange, // claim a different mapped range for one conjunct
  kTamperAggregateBoundary,  // flip one bit of a boundary-entry hash in an
                             // aggregate answer: COUNT/SUM/MIN/MAX fold over
                             // exactly these entries
  kSpecEchoTamper,     // tamper the echoed spec (bound, AND<->OR, aggregate)
  kMutateInnerConjunct,  // semantic single-response operator inside one
                         // conjunct's sub-response
  // The AND-from-one-conjunct operators (core::AnsweredByOneConjunct):
  kAnswerOutsideSpec,  // name an answering predicate the spec does not have
  kRetargetAnswer,     // name another predicate as the answering one while
                       // the conjunct stays: its range or its attribute's
                       // digests no longer match
  kPrefilterConjunct,  // drop the conjunct's records that fail the other
                       // predicates: the filtered answer is unchanged, but
                       // the conjunct is no longer complete
  kRewriteOtherAttr,   // rewrite a shipped record's value of an attribute
                       // other than the answering one, steering the filter:
                       // the record no longer hashes to its VO entry
  kAllConjunctsAnd,    // the retired AND shape: one conjunct per predicate
                       // and no answering index
};

inline constexpr std::array<SpecMutationOp, 12> kAllSpecMutationOps = {
    SpecMutationOp::kSwapConjunctVos,
    SpecMutationOp::kDropConjunct,
    SpecMutationOp::kDuplicateConjunct,
    SpecMutationOp::kShiftConjunctRange,
    SpecMutationOp::kTamperAggregateBoundary,
    SpecMutationOp::kSpecEchoTamper,
    SpecMutationOp::kMutateInnerConjunct,
    SpecMutationOp::kAnswerOutsideSpec,
    SpecMutationOp::kRetargetAnswer,
    SpecMutationOp::kPrefilterConjunct,
    SpecMutationOp::kRewriteOtherAttr,
    SpecMutationOp::kAllConjunctsAnd,
};

std::string SpecMutationOpName(SpecMutationOp op);

/// What the answered store's object values are, for the spec operators that
/// read a shipped record's attributes. Decided by the store, never by
/// whether a value happens to decode as a record.
enum class ValueShape : uint8_t {
  kPayload,  // opaque payloads of a single-attribute store: the key is the
             // one attribute
  kRecord,   // multiattr::EncodeRecord records carrying every attribute
};

/// One applied v3 wire mutation. Always a targeted, semantically meaningful
/// edit (never a blind flip), so the harness asserts strict 100% rejection.
struct WireV3Mutation {
  WireV3MutationOp op = WireV3MutationOp::kVersionByteConfusion;
  Bytes wire;
};

/// One applied mutation: the operator and the serialized forged image.
struct Mutation {
  MutationOp op = MutationOp::kCorruptWireBytes;
  Bytes wire;
  /// True for kCorruptWireBytes: the only operator whose output may decode
  /// back to the canonical original (flip in redundant framing).
  bool byte_level = false;
};

/// One applied composite mutation. Always semantic (never byte-level), so
/// the harness asserts strict 100% rejection.
struct CompositeMutation {
  CompositeMutationOp op = CompositeMutationOp::kDropSlice;
  /// The single-response operator used when op == kMutateInnerSlice.
  std::optional<MutationOp> inner;
  Bytes wire;
};

/// One applied spec mutation. Always semantic (never byte-level), so the
/// harness asserts strict 100% rejection.
struct SpecMutation {
  SpecMutationOp op = SpecMutationOp::kDropConjunct;
  /// The single-response operator used when op == kMutateInnerConjunct.
  std::optional<MutationOp> inner;
  Bytes wire;
};

/// Deterministic forgery generator. All draws come from the constructor seed;
/// forged images are v3 wire images.
class ResponseMutator {
 public:
  explicit ResponseMutator(uint64_t seed) : rng_(seed) {}

  /// Applies `op` to `response`; std::nullopt when the operator does not
  /// apply (e.g. kDropObject on an empty result set, kForgeUpperSplits on a
  /// non-GEM2* response).
  std::optional<Mutation> Apply(MutationOp op, const core::QueryResponse& response);

  /// Applies one applicable operator chosen uniformly. Never fails on a
  /// well-formed response: kShiftRangeBounds and kCorruptWireBytes always
  /// apply.
  Mutation Mutate(const core::QueryResponse& response);

  /// Applies `op` to a composite (sharded) response; std::nullopt when the
  /// operator does not apply (e.g. kSwapSlices with fewer than two slices).
  /// Kept separate from Apply so existing seeded single-response draw
  /// sequences are untouched.
  std::optional<CompositeMutation> ApplyComposite(
      CompositeMutationOp op, const core::QueryResponse& response);

  /// Applies one applicable composite operator chosen uniformly. Never fails
  /// on a well-formed composite with at least one slice: kDropSlice,
  /// kDuplicateSlice, and kMutateInnerSlice always apply.
  CompositeMutation MutateComposite(const core::QueryResponse& response);

  /// Applies a v3-specific wire operator; std::nullopt when it does not apply
  /// (kDeltaKeyCorrupt needs a single response with a non-empty VO,
  /// kValueLengthSkew a single response returning a record). Kept separate
  /// from Apply/ApplyComposite so their seeded draw sequences are untouched.
  std::optional<WireV3Mutation> ApplyWireV3(WireV3MutationOp op,
                                            const core::QueryResponse& response);

  /// Applies one applicable v3 operator chosen uniformly. Never fails:
  /// kVersionByteConfusion always applies.
  WireV3Mutation MutateWireV3(const core::QueryResponse& response);

  /// Applies `op` to a typed-spec answer; std::nullopt when the operator
  /// does not apply (the conjunct-pair operators need two conjuncts over
  /// *different* mapped ranges — swapping identical ranges would not forge
  /// anything — kTamperAggregateBoundary needs an aggregate spec with at
  /// least one hash site, and the AND-from-one-conjunct operators need that
  /// shape: kRetargetAnswer a second, different predicate, kPrefilterConjunct
  /// a shipped record some predicate rejects, kRewriteOtherAttr a shipped
  /// record of a kRecord store). `shape` is the answered store's. Kept
  /// separate from the other Apply families so their seeded draw sequences
  /// are untouched.
  std::optional<SpecMutation> ApplySpec(SpecMutationOp op,
                                        const core::SpecResponse& response,
                                        ValueShape shape);

  /// Applies one applicable spec operator chosen uniformly. Never fails on a
  /// well-formed spec answer: kDropConjunct, kShiftConjunctRange,
  /// kSpecEchoTamper, and kMutateInnerConjunct always apply.
  SpecMutation MutateSpec(const core::SpecResponse& response, ValueShape shape);

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

}  // namespace gem2::fault

#endif  // GEM2_FAULT_MUTATOR_H_
