/// \file multiattr_db.h
/// Multi-attribute RangeStore: records carrying K indexed attributes, each
/// attribute served by its own GEM2-tree (or any other ADS) under ONE shared
/// chain::Environment — every attribute index commits into the same state
/// root, so one block header anchors the whole deployment and a boolean
/// QuerySpec (AND/OR over per-attribute ranges) verifies end-to-end against
/// that single commitment.
///
/// Key packing: attribute k of record r indexes under the composite tree key
///
///     tree_key = r.attrs[k] * 2^id_bits + r.id
///
/// (addition, not OR: the product stays sign-correct for negative attribute
/// values, so composite keys order primarily by attribute value and secondarily
/// by record id). A predicate [lb, ub] over attribute values therefore maps to
/// the tree range [lb * 2^id_bits, ub * 2^id_bits + 2^id_bits - 1], which the
/// unmodified single-attribute query/verify machinery answers with its usual
/// soundness and completeness guarantees. Record ids live in
/// [0, 2^id_bits - 2]; the top id slot (2^id_bits - 1) is reserved so a
/// provably-recordless singleton range exists for predicates that miss the
/// attribute domain entirely.
///
/// The stored object value of every attribute index is the SAME canonical
/// record encoding (id, all attributes, payload). So one conjunct's verified
/// range is a sound and complete superset of an AND answer whose records
/// carry their other attribute values under the same state root: the SP
/// ships only the smallest conjunct, and the client filters its records by
/// the other predicates. An OR still ships every conjunct, and the client
/// cross-checks that conjuncts agree on each record bit-for-bit before
/// uniting.
#ifndef GEM2_MULTIATTR_MULTIATTR_DB_H_
#define GEM2_MULTIATTR_MULTIATTR_DB_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "shard/sharded_db.h"

namespace gem2::multiattr {

/// One record: an application id, K indexed attribute values, and an opaque
/// payload. The id identifies the record across every attribute index.
struct MultiAttrRecord {
  int64_t id = 0;
  std::vector<Key> attrs;
  std::string value;

  bool operator==(const MultiAttrRecord&) const = default;
};

/// Canonical record codec (the object value stored in every attribute index):
///   varint(id) varint(nattrs) nattrs * zz(attr) varint(|payload|) payload
/// with the canonical LEB128 varints and zigzag mapping of the v3 wire
/// (core/wire_v3.h), so a record costs its information size: an id below
/// 2^20 and small attributes take a few bytes, not 36 fixed-width header
/// bytes. DecodeRecord is strictly canonical and fail-closed: an overlong
/// varint, an attribute count the remaining bytes cannot hold, or short or
/// trailing payload bytes return std::nullopt. Every accepted encoding
/// therefore re-encodes to the same bytes, which the OR cross-check (records
/// compared bit for bit across conjuncts) relies on.
std::string EncodeRecord(const MultiAttrRecord& record);
std::optional<MultiAttrRecord> DecodeRecord(const std::string& encoded);

struct MultiAttrOptions {
  /// Per-attribute-index ADS configuration (kind, GEM2/LSM parameters, the
  /// env options of the single shared chain). `base.contract_name` and
  /// `base.shared_env` are managed by MultiAttrDb and must stay defaulted.
  core::DbOptions base;
  /// Number of indexed attributes per record (>= 1).
  uint32_t num_attrs = 2;
  /// Bits of the composite key reserved for the record id. Ids live in
  /// [0, 2^id_bits - 2]; attribute values in
  /// [-2^(63 - id_bits), 2^(63 - id_bits) - 1].
  uint32_t id_bits = 20;
  /// Empty: each attribute index is one AuthenticatedDb contract ("attr<k>").
  /// Non-empty: each attribute index is a shard::ShardedDb partitioned at
  /// these ATTRIBUTE-VALUE bounds (strictly ascending, within the attribute
  /// domain), its shard contracts named "attr<k>.shard<i>" — all still in the
  /// one shared environment.
  std::vector<Key> shard_bounds;

  /// Rejects nonsensical configurations with std::invalid_argument.
  void Validate() const;
};

/// K-attribute records under one state commitment. The data-owner surface is
/// record-oriented (InsertRecord / UpdateRecord / DeleteRecord — the
/// Object-level RangeStore owner ops throw std::logic_error); the SP and
/// client surfaces are the RangeStore spec machinery: ExecuteSpec answers
/// AND/OR/aggregate specs over the attribute indexes, VerifySpecFor filters
/// an AND's answering conjunct or unites an OR's conjuncts by record id.
class MultiAttrDb : public core::RangeStore {
 public:
  /// Contract name attribute k's index registers under ("attr0", ...), or —
  /// sharded — the prefix its shard contracts are named from.
  static std::string AttrContractName(uint32_t attr);

  explicit MultiAttrDb(MultiAttrOptions options);
  ~MultiAttrDb() override;

  MultiAttrDb(const MultiAttrDb&) = delete;
  MultiAttrDb& operator=(const MultiAttrDb&) = delete;

  // --- Data-owner interface (record-oriented) ------------------------------

  /// Inserts a fresh record: one metered transaction per attribute index
  /// (per shard touched, when sharded). Returns the last receipt; a failing
  /// receipt returns immediately (that index is then poisoned). Throws
  /// std::invalid_argument for a duplicate id, an id outside
  /// [0, 2^id_bits - 2], a wrong attribute count, or an attribute value
  /// outside the domain.
  chain::TxReceipt InsertRecord(const MultiAttrRecord& record);

  /// Updates an existing record's payload (attribute values are immutable —
  /// delete and re-insert to move a record between index positions).
  chain::TxReceipt UpdateRecord(int64_t id, const std::string& value);

  /// Deletes a record: tombstones its entry in every attribute index.
  chain::TxReceipt DeleteRecord(int64_t id);

  /// Object-level owner ops are not meaningful on multi-attribute records;
  /// all four throw std::logic_error.
  chain::TxReceipt Insert(const Object& object) override;
  chain::TxReceipt Update(const Object& object) override;
  chain::TxReceipt Delete(Key key) override;
  chain::TxReceipt InsertBatch(const std::vector<Object>& objects) override;

  /// True when record id `key` is live.
  bool Contains(Key key) const override;
  /// Live records.
  uint64_t size() const override;

  /// The owner's copy of a live record (nullptr when absent/deleted).
  const MultiAttrRecord* FindRecord(int64_t id) const;

  // --- Blockchain interface ------------------------------------------------

  chain::Environment& environment() override { return *env_; }

  /// One AuthenticatedState per contract across ALL attribute indexes
  /// (attr-major, shard-minor order), all anchored at the same header.
  std::vector<chain::AuthenticatedState> ReadChainState() override;

  // --- Introspection -------------------------------------------------------

  const MultiAttrOptions& options() const { return options_; }
  uint32_t num_attributes() const override { return options_.num_attrs; }
  /// Smallest / largest indexable attribute value for this id_bits choice.
  Key AttrMin() const;
  Key AttrMax() const;
  /// The composite tree key (value, id) packs to (exposed for tests).
  Key CompositeKey(Key value, int64_t id) const;
  /// Attribute k's index (a core::AuthenticatedDb or shard::ShardedDb).
  core::RangeStore& attr_index(uint32_t attr) { return *stores_[attr]; }
  const core::RangeStore& attr_index(uint32_t attr) const {
    return *stores_[attr];
  }

  bool poisoned() const override;
  std::string BackendName() const override;
  void CheckConsistency() const override;

 protected:
  // --- Per-attribute primitives (RangeStore seam) --------------------------

  /// Answers one predicate against attribute `attr`'s index, in the
  /// composite tree-key domain. Throws std::invalid_argument for an unknown
  /// attribute.
  core::QueryResponse QueryPredicate(uint32_t attr, Key lb,
                                     Key ub) const override;

  core::VerifiedResult VerifyPredicateFor(
      uint32_t attr, Key lb, Key ub, const core::QueryResponse& response,
      std::vector<ads::VoEntry>* boundary) override;

  core::VerifiedResult VerifyPredicateAgainst(
      const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
      Key lb, Key ub, const core::QueryResponse& response,
      std::vector<ads::VoEntry>* boundary) const override;

  /// Maps an attribute-value range into the composite tree-key domain,
  /// clamping to the attribute domain; a range that misses the domain
  /// entirely maps to the reserved recordless singleton.
  void MapPredicateRange(uint32_t attr, Key lb, Key ub, Key* tree_lb,
                         Key* tree_ub) const override;

  /// Attribute value half of a composite key (floor(tree_key / 2^id_bits)).
  Key DecodeAttrValue(uint32_t attr, Key tree_key) const override;

  /// Decodes the canonical record, cross-checks the composite key against
  /// the record's own (attrs[attr], id), and emits {record id, encoded
  /// record} so conjuncts over different attributes compose by record, with
  /// the record's attribute values for the AND filter.
  bool CanonicalizeSpecObject(uint32_t attr, Object in,
                              SpecRecord* out,
                              std::string* error) const override;

  void ApplySpPool(common::ThreadPool* pool) override;

 private:
  /// States belonging to attribute `attr`'s contract(s), in index order.
  std::vector<chain::AuthenticatedState> SliceStates(
      uint32_t attr, const std::vector<chain::AuthenticatedState>& states) const;

  MultiAttrOptions options_;
  std::unique_ptr<chain::Environment> env_;
  /// Attribute k's index: AuthenticatedDb (unsharded) or ShardedDb.
  std::vector<std::unique_ptr<core::RangeStore>> stores_;
  /// Contract names backing attribute k (one, or one per shard).
  std::vector<std::vector<std::string>> contract_names_;
  /// Owner's record map (the SP raw store analogue for records).
  std::map<int64_t, MultiAttrRecord> records_;
};

}  // namespace gem2::multiattr

#endif  // GEM2_MULTIATTR_MULTIATTR_DB_H_
