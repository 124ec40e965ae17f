#include "multiattr/multiattr_db.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/wire_v3.h"

namespace gem2::multiattr {

namespace w3 = core::wirev3;

std::string EncodeRecord(const MultiAttrRecord& record) {
  std::string out;
  // A varint takes at most 10 bytes.
  out.reserve(30 + 10 * record.attrs.size() + record.value.size());
  w3::AppendVarint(&out, static_cast<uint64_t>(record.id));
  w3::AppendVarint(&out, record.attrs.size());
  for (Key a : record.attrs) w3::AppendVarint(&out, w3::ZigzagEncode(a));
  w3::AppendVarint(&out, record.value.size());
  out += record.value;
  return out;
}

std::optional<MultiAttrRecord> DecodeRecord(const std::string& encoded) {
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(encoded.data()), encoded.size());
  size_t pos = 0;
  MultiAttrRecord record;
  const std::optional<uint64_t> id = w3::ReadVarint(bytes, &pos);
  if (!id.has_value()) return std::nullopt;
  record.id = static_cast<int64_t>(*id);
  const std::optional<uint64_t> nattrs = w3::ReadVarint(bytes, &pos);
  // Every attribute takes at least one byte and the payload length one more:
  // a count the remaining bytes cannot hold is rejected before the reserve
  // (fail-closed against allocation bombs).
  if (!nattrs.has_value() || *nattrs >= bytes.size() - pos) return std::nullopt;
  record.attrs.reserve(*nattrs);
  for (uint64_t k = 0; k < *nattrs; ++k) {
    const std::optional<uint64_t> a = w3::ReadVarint(bytes, &pos);
    if (!a.has_value()) return std::nullopt;
    record.attrs.push_back(w3::ZigzagDecode(*a));
  }
  const std::optional<uint64_t> len = w3::ReadVarint(bytes, &pos);
  // Short or trailing payload bytes.
  if (!len.has_value() || *len != bytes.size() - pos) return std::nullopt;
  record.value = encoded.substr(pos);
  return record;
}

void MultiAttrOptions::Validate() const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("MultiAttrOptions: " + what);
  };
  if (base.shared_env != nullptr) {
    reject("base.shared_env must be null (the multi-attr db owns its chain)");
  }
  if (num_attrs == 0) reject("num_attrs must be >= 1");
  if (num_attrs > 256) reject("num_attrs must be <= 256");
  if (id_bits < 1 || id_bits > 40) reject("id_bits must be in [1, 40]");
  const Key lo = -(Key(1) << (63 - id_bits));
  const Key hi = (Key(1) << (63 - id_bits)) - 1;
  for (size_t i = 0; i < shard_bounds.size(); ++i) {
    if (shard_bounds[i] < lo || shard_bounds[i] > hi) {
      reject("shard bound outside the attribute domain");
    }
    if (i > 0 && shard_bounds[i] <= shard_bounds[i - 1]) {
      reject("shard bounds must be strictly ascending");
    }
  }
  base.Validate();
}

std::string MultiAttrDb::AttrContractName(uint32_t attr) {
  return "attr" + std::to_string(attr);
}

MultiAttrDb::MultiAttrDb(MultiAttrOptions options)
    : options_(std::move(options)) {
  options_.Validate();
  env_ = std::make_unique<chain::Environment>(options_.base.env);
  stores_.reserve(options_.num_attrs);
  contract_names_.resize(options_.num_attrs);
  const Key unit = Key(1) << options_.id_bits;
  for (uint32_t k = 0; k < options_.num_attrs; ++k) {
    if (options_.shard_bounds.empty()) {
      core::DbOptions per_attr = options_.base;
      per_attr.contract_name = AttrContractName(k);
      per_attr.shared_env = env_.get();
      contract_names_[k] = {per_attr.contract_name};
      stores_.push_back(
          std::make_unique<core::AuthenticatedDb>(std::move(per_attr)));
    } else {
      shard::ShardOptions per_attr;
      per_attr.base = options_.base;
      per_attr.bounds.reserve(options_.shard_bounds.size());
      // A partition bound at attribute value v cuts the composite keyspace at
      // v * 2^id_bits: every (v, id) pairing lands in the upper shard.
      for (Key b : options_.shard_bounds) per_attr.bounds.push_back(b * unit);
      per_attr.shared_env = env_.get();
      per_attr.contract_prefix = AttrContractName(k) + ".shard";
      for (size_t i = 0; i < per_attr.num_shards(); ++i) {
        contract_names_[k].push_back(per_attr.contract_prefix +
                                     std::to_string(i));
      }
      stores_.push_back(std::make_unique<shard::ShardedDb>(std::move(per_attr)));
    }
  }
}

MultiAttrDb::~MultiAttrDb() = default;

Key MultiAttrDb::AttrMin() const {
  return -(Key(1) << (63 - options_.id_bits));
}

Key MultiAttrDb::AttrMax() const {
  return (Key(1) << (63 - options_.id_bits)) - 1;
}

Key MultiAttrDb::CompositeKey(Key value, int64_t id) const {
  return value * (Key(1) << options_.id_bits) + id;
}

chain::TxReceipt MultiAttrDb::InsertRecord(const MultiAttrRecord& record) {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("MultiAttrDb: " + what);
  };
  const int64_t max_id = (int64_t(1) << options_.id_bits) - 2;
  if (record.id < 0 || record.id > max_id) reject("record id out of range");
  if (record.attrs.size() != options_.num_attrs) {
    reject("record attribute count does not match the schema");
  }
  for (Key a : record.attrs) {
    if (a < AttrMin() || a > AttrMax()) {
      reject("attribute value outside the indexable domain");
    }
  }
  if (records_.count(record.id) != 0) reject("duplicate record id");
  const std::string encoded = EncodeRecord(record);
  chain::TxReceipt last;
  for (uint32_t k = 0; k < options_.num_attrs; ++k) {
    last = stores_[k]->Insert({CompositeKey(record.attrs[k], record.id), encoded});
    if (!last.ok) return last;
  }
  records_[record.id] = record;
  return last;
}

chain::TxReceipt MultiAttrDb::UpdateRecord(int64_t id,
                                           const std::string& value) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    throw std::invalid_argument("MultiAttrDb: unknown record id");
  }
  MultiAttrRecord updated = it->second;
  updated.value = value;
  const std::string encoded = EncodeRecord(updated);
  chain::TxReceipt last;
  for (uint32_t k = 0; k < options_.num_attrs; ++k) {
    last = stores_[k]->Update({CompositeKey(updated.attrs[k], id), encoded});
    if (!last.ok) return last;
  }
  it->second = std::move(updated);
  return last;
}

chain::TxReceipt MultiAttrDb::DeleteRecord(int64_t id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    throw std::invalid_argument("MultiAttrDb: unknown record id");
  }
  chain::TxReceipt last;
  for (uint32_t k = 0; k < options_.num_attrs; ++k) {
    last = stores_[k]->Delete(CompositeKey(it->second.attrs[k], id));
    if (!last.ok) return last;
  }
  records_.erase(it);
  return last;
}

chain::TxReceipt MultiAttrDb::Insert(const Object&) {
  throw std::logic_error("MultiAttrDb: use InsertRecord");
}

chain::TxReceipt MultiAttrDb::Update(const Object&) {
  throw std::logic_error("MultiAttrDb: use UpdateRecord");
}

chain::TxReceipt MultiAttrDb::Delete(Key) {
  throw std::logic_error("MultiAttrDb: use DeleteRecord");
}

chain::TxReceipt MultiAttrDb::InsertBatch(const std::vector<Object>&) {
  throw std::logic_error("MultiAttrDb: use InsertRecord");
}

bool MultiAttrDb::Contains(Key key) const {
  return records_.count(key) != 0;
}

uint64_t MultiAttrDb::size() const { return records_.size(); }

const MultiAttrRecord* MultiAttrDb::FindRecord(int64_t id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

core::QueryResponse MultiAttrDb::QueryPredicate(uint32_t attr, Key lb,
                                                Key ub) const {
  if (attr >= options_.num_attrs) {
    throw std::invalid_argument("MultiAttrDb: unknown attribute");
  }
  return QueryPredicateOn(*stores_[attr], 0, lb, ub);
}

core::VerifiedResult MultiAttrDb::VerifyPredicateFor(
    uint32_t attr, Key lb, Key ub, const core::QueryResponse& response,
    std::vector<ads::VoEntry>* boundary) {
  if (attr >= options_.num_attrs) {
    core::VerifiedResult out;
    out.ok = false;
    out.error = "predicate over unknown attribute";
    return out;
  }
  return VerifyPredicateForOn(*stores_[attr], 0, lb, ub, response, boundary);
}

core::VerifiedResult MultiAttrDb::VerifyPredicateAgainst(
    const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
    Key lb, Key ub, const core::QueryResponse& response,
    std::vector<ads::VoEntry>* boundary) const {
  if (attr >= options_.num_attrs) {
    core::VerifiedResult out;
    out.ok = false;
    out.error = "predicate over unknown attribute";
    return out;
  }
  return VerifyPredicateAgainstOn(*stores_[attr], SliceStates(attr, states), 0,
                                  lb, ub, response, boundary);
}

void MultiAttrDb::MapPredicateRange(uint32_t /*attr*/, Key lb, Key ub,
                                    Key* tree_lb, Key* tree_ub) const {
  const Key lo = AttrMin();
  const Key hi = AttrMax();
  const Key unit = Key(1) << options_.id_bits;
  if (lb > hi || ub < lo) {
    // The predicate misses the attribute domain entirely. The reserved top id
    // slot is never inserted, so this singleton is provably recordless: the
    // query still yields a full completeness proof of an empty answer.
    *tree_lb = *tree_ub = lo * unit + (unit - 1);
    return;
  }
  const Key lb_c = lb < lo ? lo : lb;
  const Key ub_c = ub > hi ? hi : ub;
  *tree_lb = lb_c * unit;
  *tree_ub = ub_c * unit + (unit - 1);
}

Key MultiAttrDb::DecodeAttrValue(uint32_t /*attr*/, Key tree_key) const {
  // Arithmetic shift = floor division by 2^id_bits (C++20), undoing
  // value * 2^id_bits + id for 0 <= id < 2^id_bits at either sign.
  return tree_key >> options_.id_bits;
}

bool MultiAttrDb::CanonicalizeSpecObject(uint32_t attr, Object in,
                                         SpecRecord* out,
                                         std::string* error) const {
  std::optional<MultiAttrRecord> record = DecodeRecord(in.value);
  if (!record.has_value()) {
    *error = "undecodable record payload";
    return false;
  }
  if (record->attrs.size() != options_.num_attrs) {
    *error = "record attribute count does not match the schema";
    return false;
  }
  const int64_t max_id = (int64_t(1) << options_.id_bits) - 2;
  if (record->id < 0 || record->id > max_id) {
    *error = "record id out of range";
    return false;
  }
  // The index position must be the record's own claim: a payload swapped
  // under another composite key (or vice versa) dies here.
  if (in.key != CompositeKey(record->attrs[attr], record->id)) {
    *error = "composite key does not match the record";
    return false;
  }
  out->object = {record->id, std::move(in.value)};
  out->attrs = std::move(record->attrs);
  return true;
}

std::vector<chain::AuthenticatedState> MultiAttrDb::ReadChainState() {
  std::vector<std::string> names;
  for (const auto& per_attr : contract_names_) {
    names.insert(names.end(), per_attr.begin(), per_attr.end());
  }
  return env_->ReadAuthenticatedStates(names);
}

std::vector<chain::AuthenticatedState> MultiAttrDb::SliceStates(
    uint32_t attr, const std::vector<chain::AuthenticatedState>& states) const {
  const std::vector<std::string>& names = contract_names_[attr];
  std::vector<chain::AuthenticatedState> out;
  out.reserve(names.size());
  for (const chain::AuthenticatedState& s : states) {
    if (std::find(names.begin(), names.end(), s.contract) != names.end()) {
      out.push_back(s);
    }
  }
  return out;
}

void MultiAttrDb::ApplySpPool(common::ThreadPool* pool) {
  for (const auto& store : stores_) ApplySpPoolTo(*store, pool);
}

bool MultiAttrDb::poisoned() const {
  for (const auto& store : stores_) {
    if (store->poisoned()) return true;
  }
  return false;
}

std::string MultiAttrDb::BackendName() const {
  return "multiattr(" + std::to_string(options_.num_attrs) + ")/" +
         stores_[0]->BackendName();
}

void MultiAttrDb::CheckConsistency() const {
  for (const auto& store : stores_) store->CheckConsistency();
  for (const auto& [id, record] : records_) {
    for (uint32_t k = 0; k < options_.num_attrs; ++k) {
      if (!stores_[k]->Contains(CompositeKey(record.attrs[k], id))) {
        throw std::logic_error(
            "MultiAttrDb: record missing from an attribute index");
      }
    }
  }
}

}  // namespace gem2::multiattr
