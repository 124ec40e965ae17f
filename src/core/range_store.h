/// \file range_store.h
/// The library's role-separated public interface. A RangeStore is an
/// authenticated key/value store serving verified queries; the methods are
/// grouped by the paper's four parties (Fig. 1), so call sites state which
/// role they play and never need to know which backend they drive:
///
///   - data owner:  Insert / Update / Delete / InsertBatch
///   - service provider (SP):  ExecuteSpec / SpecWire
///   - client:  VerifySpecFor / VerifySpecWire / VerifySpecAgainst
///   - blockchain:  environment(), ReadChainState()
///
/// Every query is a typed core::QuerySpec (query_spec.h). The paper's range
/// query [lb, ub] is QuerySpec::Range(lb, ub): one predicate on attribute 0,
/// answered by one conjunct whose image is the plain single-response wire
/// image. The spec machinery (execution, pinning, composition, aggregate
/// folding) is written once here against two per-attribute primitives a
/// backend implements: QueryPredicate and VerifyPredicateAgainst.
///
/// Implementations: core::AuthenticatedDb (one ADS contract, the paper's
/// system model), shard::ShardedDb (a range-partitioned keyspace over many
/// ADS contracts with scatter-gather composite queries), and
/// multiattr::MultiAttrDb (K-attribute records indexed by per-attribute
/// GEM2-trees under one state commitment, serving boolean AND/OR specs and
/// server-computed aggregates). Benches, the SpQueryEngine, the fault
/// harnesses, and the examples all work against this interface.
#ifndef GEM2_CORE_RANGE_STORE_H_
#define GEM2_CORE_RANGE_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ads/entry.h"
#include "chain/environment.h"
#include "chain/light_client.h"
#include "core/query_spec.h"
#include "core/response.h"
#include "core/wire.h"

namespace gem2::core {

class RangeStore {
 public:
  virtual ~RangeStore() = default;

  // --- Data-owner facet ----------------------------------------------------

  /// Inserts a fresh object: metered transaction(s) on-chain plus the SP
  /// mirror update.
  virtual chain::TxReceipt Insert(const Object& object) = 0;

  /// Updates an existing object's value.
  virtual chain::TxReceipt Update(const Object& object) = 0;

  /// Deletes a key (tombstone semantics, paper Section V-B).
  virtual chain::TxReceipt Delete(Key key) = 0;

  /// Inserts many fresh objects under one gasLimit budget. A sharded backend
  /// issues one transaction per owning shard; the returned receipt is the
  /// last one (all must succeed or the store is poisoned).
  virtual chain::TxReceipt InsertBatch(const std::vector<Object>& objects) = 0;

  /// True when the key is present and not deleted.
  virtual bool Contains(Key key) const = 0;
  /// Live (non-deleted) objects.
  virtual uint64_t size() const = 0;

  // --- Service-provider facet ----------------------------------------------

  /// Number of attributes a record carries (the valid Predicate::attr range
  /// is [0, num_attributes())). Single-attribute backends report 1: their
  /// only attribute is the key itself.
  virtual uint32_t num_attributes() const { return 1; }

  /// Executes a typed query: answers every predicate against its attribute's
  /// index and echoes the spec for the client to pin. An AND of several
  /// predicates (AnsweredByOneConjunct) ships only the conjunct with the
  /// fewest VO_sp plus payload bytes (ties to the lowest predicate index)
  /// and names it in SpecResponse::answering; every other spec ships one
  /// QueryResponse per predicate, in predicate order. Aggregate specs ship
  /// boundary structure — each conjunct is stripped with
  /// core::StripForAggregate, so only records no longer than their hash
  /// travel. Structural spec
  /// validity (QuerySpec::Check) is the caller's duty; an unknown attribute
  /// throws std::invalid_argument.
  SpecResponse ExecuteSpec(const QuerySpec& spec) const;

  /// ExecuteSpec + wire serialization (SerializeSpecResponse): what the SP
  /// actually ships to a client, the trace context framed around the image.
  Bytes SpecWire(const QuerySpec& spec) const;

  /// As SpecWire, but appends the (traced-envelope + image) bytes to `*out`
  /// instead of returning a fresh buffer: a serving front-end writes the
  /// response straight into a connection's outbound buffer, after the frame
  /// header it has already encoded, with no per-response image copy. The
  /// appended bytes are bit-identical to SpecWire's return value.
  void SpecWireInto(const QuerySpec& spec, Bytes* out) const;

  /// Wire format SpecWire serializes responses as: v3, the only one.
  WireVersion wire_version() const { return WireVersion::kV3; }

  // --- Client facet --------------------------------------------------------

  /// Full client-side verification of a spec answer against the on-chain
  /// digests: reads VO_chain once (ReadChainState), syncs this store's light
  /// client and requires the states' header to be its tip ("blockchain
  /// failed validation" otherwise), then runs exactly what VerifySpecAgainst
  /// runs: pins the echoed spec against the one the client issued, verifies
  /// each shipped conjunct's soundness and completeness over its own
  /// predicate range, and only then composes — filtering an AND's one
  /// answering conjunct by every predicate, uniting an OR's canonicalized
  /// per-conjunct result sets, or folding an aggregate spec's verified
  /// boundary entries into COUNT/SUM/MIN/MAX. Use this whenever the response
  /// crossed a trust boundary: an answer to any other spec or range is
  /// rejected outright.
  VerifiedSpecResult VerifySpecFor(const QuerySpec& spec,
                                   const SpecResponse& response);

  /// Parses a serialized spec answer and verifies it as VerifySpecFor does:
  /// the single entry point for bytes received over a network. Malformed
  /// images fail closed ("malformed wire image"), never throw.
  VerifiedSpecResult VerifySpecWire(const QuerySpec& spec, const Bytes& wire);

  /// Spec verification against already-retrieved chain state, with its
  /// header assumed validated by the caller. Every state must carry that
  /// one header ("VO_chain states are not anchored at one header"
  /// otherwise). This is the hot verification path of Figs. 9-10: no chain
  /// reads, pure CPU.
  ///
  /// Each of the three client entry points records itself once: one
  /// client.verify_ns sample, one verify.count (plus verify.failed on
  /// rejection), one verify.vo_chain_bytes sample, and at most one
  /// verify.reject audit event.
  VerifiedSpecResult VerifySpecAgainst(
      const std::vector<chain::AuthenticatedState>& states,
      const QuerySpec& spec, const SpecResponse& response) const;

  /// Convenience: ExecuteSpec + VerifySpecFor in one call.
  VerifiedSpecResult AuthenticatedSpec(const QuerySpec& spec);

  // --- Blockchain facet ----------------------------------------------------

  /// The chain hosting this store's contract(s).
  virtual chain::Environment& environment() = 0;

  /// VO_chain for every contract backing this store (one AuthenticatedState
  /// per contract, all anchored at the same sealed header). Measurement
  /// harnesses retrieve this once and verify many responses against it with
  /// VerifySpecAgainst.
  virtual std::vector<chain::AuthenticatedState> ReadChainState() = 0;

  // --- Introspection -------------------------------------------------------

  /// True once a transaction ran out of gas (store no longer usable).
  virtual bool poisoned() const = 0;

  /// Human-readable backend description, e.g. "GEM2-tree" or
  /// "sharded(4)/GEM2-tree".
  virtual std::string BackendName() const = 0;

  /// Cross-checks contract and SP mirrors (tests): digests must agree and
  /// structural invariants must hold.
  virtual void CheckConsistency() const = 0;

 protected:
  // --- Per-attribute primitives (the seam backends implement) --------------
  //
  // The generic spec machinery above (ExecuteSpec, VerifySpec*, the boolean
  // composition, the aggregate fold) is implemented once in
  // RangeStore against these small per-attribute virtuals. A backend
  // supplies the primitives; composition, pinning, and completeness
  // discipline come for free and stay identical across backends.

  /// SP: answers one predicate's range against attribute `attr`'s index, in
  /// that index's *tree-key* domain (see MapPredicateRange), returning the
  /// result objects and VO_sp. A sharded backend returns a composite
  /// response (QueryResponse::slices) gathered from every overlapping shard.
  /// Throws std::invalid_argument for an unknown attribute.
  virtual QueryResponse QueryPredicate(uint32_t attr, Key lb, Key ub) const = 0;

  /// Client: verifies one conjunct against attribute `attr`'s digests in
  /// `states` (ReadChainState's output, header(s) already validated),
  /// pinning [lb, ub] (tree-key domain): a response claiming any other range
  /// is rejected outright. With `boundary == nullptr` this is result-set
  /// verification; non-null selects boundary mode for aggregates — the
  /// response may ship only records no longer than a hash
  /// (core::KeepsRecordInAggregate), and every verified in-range entry, kept
  /// records hashed, is appended to `*boundary` in ascending key order.
  virtual VerifiedResult VerifyPredicateAgainst(
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const QueryResponse& response,
      std::vector<ads::Entry>* boundary) const = 0;

  /// Maps a predicate's [lb, ub] (attribute-value domain) to the tree-key
  /// domain attribute `attr` is indexed in. Identity by default; a
  /// multi-attribute backend packs (value, record id) into composite tree
  /// keys and widens the range accordingly.
  virtual void MapPredicateRange(uint32_t /*attr*/, Key lb, Key ub,
                                 Key* tree_lb, Key* tree_ub) const {
    *tree_lb = lb;
    *tree_ub = ub;
  }

  /// Inverse of the value half of MapPredicateRange: the attribute value a
  /// tree key encodes (used by the aggregate fold). Identity by default.
  virtual Key DecodeAttrValue(uint32_t /*attr*/, Key tree_key) const {
    return tree_key;
  }

  /// One verified object, canonicalized for composition.
  struct SpecRecord {
    /// Key identifies the *record* (identical across attributes), value is
    /// its payload.
    Object object;
    /// The record's value of every attribute, indexed by attribute; empty
    /// when the key is the record's only attribute.
    std::vector<Key> attrs;

    /// The record's value of attribute `attr`: what an AND's answering
    /// conjunct is filtered on.
    Key AttrValue(uint32_t attr) const {
      return attrs.empty() ? object.key : attrs[attr];
    }
  };

  /// Canonicalizes one verified object of attribute `attr`'s index before
  /// composition. By default the key is the record and its only attribute;
  /// a multi-attribute backend decodes the record once, cross-checks the
  /// composite key, and fills `attrs` with the record's own num_attributes()
  /// values. False (with `*error`) rejects the whole response.
  virtual bool CanonicalizeSpecObject(uint32_t /*attr*/, Object in,
                                      SpecRecord* out,
                                      std::string* /*error*/) const {
    out->object = std::move(in);
    return true;
  }

  /// Shared composition under one client.verify_spec span, recording no
  /// metric or audit event (the public entry points do): pins the spec echo,
  /// the conjunct count (one for an AnsweredByOneConjunct spec, whose
  /// answering index must name one of its predicates; one per predicate
  /// otherwise), each conjunct's range to its predicate's mapped range, and
  /// one header shared by every state (counted once in vo_chain_bytes);
  /// verifies every shipped conjunct against `states`
  /// (VerifyPredicateAgainst), so its completeness is established *before*
  /// any filter or set operation; then keeps an AND's answering records that
  /// satisfy every predicate, unites an OR's by canonical record
  /// (cross-checking payload agreement), or folds boundary entries into
  /// aggregates. Results come out in ascending canonical-key order.
  VerifiedSpecResult ComposeSpecVerification(
      const std::vector<chain::AuthenticatedState>& states,
      const QuerySpec& spec, const SpecResponse& response) const;

  /// Lets a composite store (sharded, multi-attribute) delegate a conjunct
  /// to one of the stores it owns without the per-attribute primitives
  /// becoming public API.
  static QueryResponse QueryPredicateOn(const RangeStore& store, uint32_t attr,
                                        Key lb, Key ub) {
    return store.QueryPredicate(attr, lb, ub);
  }
  static VerifiedResult VerifyPredicateAgainstOn(
      const RangeStore& store,
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const QueryResponse& response,
      std::vector<ads::Entry>* boundary) {
    return store.VerifyPredicateAgainst(states, attr, lb, ub, response,
                                        boundary);
  }

 private:
  /// VerifySpecFor without metrics or audit events.
  VerifiedSpecResult VerifyFromChain(const QuerySpec& spec,
                                     const SpecResponse& response);

  /// Records one public verify call that started at `t0_ns` (0 when
  /// telemetry was off): the client.verify_ns, verify.count, verify.failed
  /// and verify.vo_chain_bytes metrics, and a verify.reject audit event when
  /// `result` is a rejection.
  void RecordVerify(const VerifiedSpecResult& result, uint64_t t0_ns) const;

  /// Header-following client for VerifySpecFor, anchored at the genesis
  /// header of environment() on first use.
  std::unique_ptr<chain::LightClient> light_client_;
};

}  // namespace gem2::core

#endif  // GEM2_CORE_RANGE_STORE_H_
