#include "core/authenticated_db.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "ads/verify.h"
#include "core/aggregates.h"
#include "core/introspect.h"
#include "core/tombstone.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "gem2/engine.h"
#include "gem2star/gem2star.h"
#include "mbtree/contract.h"
#include "smbtree/smbtree.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::core {
namespace {

/// Converts one tree's entry list to raw objects via the SP value store.
std::vector<Object> ToObjects(const ads::EntryList& entries,
                              const PackedValueStore& values) {
  std::vector<Object> out;
  out.reserve(entries.size());
  for (const ads::Entry& e : entries) {
    const std::optional<std::string_view> value = values.Get(e.key);
    if (value.has_value()) {
      out.push_back({e.key, std::string(*value)});
    } else if (values.IsTombstoned(e.key)) {
      out.push_back({e.key, TombstoneValue()});
    } else {
      throw std::out_of_range("SP value store misses a tree key");
    }
  }
  return out;
}

/// Region index of `key` for split points (mirrors Gem2StarEngine::RegionOf).
size_t RegionOf(const std::vector<Key>& splits, Key key) {
  auto it = std::upper_bound(splits.begin(), splits.end(), key);
  return static_cast<size_t>(it - splits.begin());
}

VerifiedResult Rejected(std::string error) {
  VerifiedResult out;
  out.ok = false;
  out.error = std::move(error);
  return out;
}

bool HasRegionPrefix(const std::string& label, size_t region) {
  const std::string prefix = "R" + std::to_string(region) + ".";
  return label.rfind(prefix, 0) == 0;
}

}  // namespace

void DbOptions::Validate() const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("DbOptions: " + what);
  };
  if (contract_name.empty()) reject("empty contract_name");
  if (gem2.fanout < 2) reject("fanout must be at least 2");
  if (gem2.m == 0) reject("GEM2 m (index-merge slots) must be positive");
  if (gem2.smax == 0) reject("GEM2 smax (merge threshold) must be positive");
  if (kind == AdsKind::kGem2Star) {
    if (split_points.empty()) {
      reject("GEM2*-tree requires upper-level split points (zero regions)");
    }
    for (size_t i = 1; i < split_points.size(); ++i) {
      if (split_points[i] <= split_points[i - 1]) {
        reject("split_points must be strictly ascending");
      }
    }
  }
  if (shared_env == nullptr) {
    if (env.gas_limit == 0) reject("gas_limit of 0 cannot fund any transaction");
    if (env.txs_per_block == 0) reject("txs_per_block must be positive");
  }
}

std::string AdsKindName(AdsKind kind) {
  switch (kind) {
    case AdsKind::kMbTree:
      return "MB-tree";
    case AdsKind::kSmbTree:
      return "SMB-tree";
    case AdsKind::kLsm:
      return "LSM-tree";
    case AdsKind::kGem2:
      return "GEM2-tree";
    case AdsKind::kGem2Star:
      return "GEM2*-tree";
  }
  return "unknown";
}

AuthenticatedDb::AuthenticatedDb(DbOptions options)
    : options_(std::move(options)) {
  // Any process that builds a store gets the full introspection surface
  // (keccak provider); registration is once-only and cheap.
  RegisterCoreIntrospection();
  options_.Validate();
  if (options_.shared_env != nullptr) {
    env_ = options_.shared_env;
  } else {
    owned_env_ = std::make_unique<chain::Environment>(options_.env);
    env_ = owned_env_.get();
  }
  const std::string& name = options_.contract_name;
  const int fanout = options_.gem2.fanout;
  switch (options_.kind) {
    case AdsKind::kMbTree:
      contract_ = std::make_unique<mbtree::MbTreeContract>(name, fanout);
      mirror_ = std::make_unique<mbtree::MbTree>(fanout);
      break;
    case AdsKind::kSmbTree:
      contract_ = std::make_unique<smbtree::SmbTreeContract>(name, fanout);
      mirror_ = std::make_unique<smbtree::SmbTreeMirror>(fanout);
      break;
    case AdsKind::kLsm:
      contract_ = std::make_unique<lsm::LsmTreeContract>(name, options_.lsm);
      mirror_ = std::make_unique<lsm::LsmMirror>(options_.lsm);
      break;
    case AdsKind::kGem2:
      contract_ = std::make_unique<gem2tree::Gem2Contract>(name, options_.gem2);
      mirror_ = std::make_unique<gem2tree::Gem2Engine>(options_.gem2);
      break;
    case AdsKind::kGem2Star:
      contract_ = std::make_unique<gem2star::Gem2StarContract>(
          name, options_.gem2, options_.split_points);
      mirror_ = std::make_unique<gem2star::Gem2StarEngine>(
          options_.gem2, options_.split_points);
      break;
  }
  env_->Register(contract_.get());
}

AuthenticatedDb::~AuthenticatedDb() = default;

void AuthenticatedDb::RecordOp(JournalEntry::Op op, const Object& object) {
  JournalSink* sink = options_.journal_sink;
  if (sink != nullptr && !sink->Append({op, object})) {
    // The op committed on-chain but the durable log never saw it: an ack now
    // would be unrecoverable after a crash. Fail closed; the operator must
    // repair the log (gem2_fsck) or re-provision before continuing.
    throw std::runtime_error("durable journal append failed: " +
                             sink->last_error());
  }
}

chain::TxReceipt AuthenticatedDb::Insert(const Object& object) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  // Reviving a tombstoned key is an in-place update of the dummy object.
  const bool revive = values_.IsTombstoned(object.key);
  if (!revive && values_.Contains(object.key)) {
    throw std::invalid_argument("Insert: key already present");
  }
  const Hash vh = crypto::ValueHash(object.value);
  chain::TxReceipt receipt =
      env_->Execute(*contract_, revive ? "revive" : "insert", [&](gas::Meter& m) {
        revive ? contract_->Update(object.key, vh, m)
               : contract_->Insert(object.key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  revive ? mirror_->Update(object.key, vh) : mirror_->Insert(object.key, vh);
  values_.Put(object.key, object.value);
  RecordOp(JournalEntry::Op::kInsert, object);
  return receipt;
}

chain::TxReceipt AuthenticatedDb::Update(const Object& object) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  if (!Contains(object.key)) {
    throw std::invalid_argument("Update: unknown key");
  }
  const Hash vh = crypto::ValueHash(object.value);
  chain::TxReceipt receipt =
      env_->Execute(*contract_, "update", [&](gas::Meter& m) {
        contract_->Update(object.key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  mirror_->Update(object.key, vh);
  values_.Put(object.key, object.value);
  RecordOp(JournalEntry::Op::kUpdate, object);
  return receipt;
}

chain::TxReceipt AuthenticatedDb::Delete(Key key) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  if (!Contains(key)) {
    throw std::invalid_argument("Delete: unknown key");
  }
  const Hash vh = crypto::ValueHash(TombstoneValue());
  chain::TxReceipt receipt =
      env_->Execute(*contract_, "delete", [&](gas::Meter& m) {
        contract_->Update(key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  mirror_->Update(key, vh);
  values_.Tombstone(key);
  RecordOp(JournalEntry::Op::kDelete, {key, {}});
  return receipt;
}

chain::TxReceipt AuthenticatedDb::InsertBatch(const std::vector<Object>& objects) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  std::unordered_set<Key> batch_keys;
  for (const Object& obj : objects) {
    if (values_.Knows(obj.key) || !batch_keys.insert(obj.key).second) {
      throw std::invalid_argument("InsertBatch: duplicate or existing key");
    }
  }
  std::vector<Hash> hashes;
  hashes.reserve(objects.size());
  for (const Object& obj : objects) hashes.push_back(crypto::ValueHash(obj.value));
  chain::TxReceipt receipt =
      env_->Execute(*contract_, "insert_batch", [&](gas::Meter& m) {
        for (size_t i = 0; i < objects.size(); ++i) {
          contract_->Insert(objects[i].key, hashes[i], m);
        }
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    mirror_->Insert(objects[i].key, hashes[i]);
    values_.Put(objects[i].key, objects[i].value);
    RecordOp(JournalEntry::Op::kInsert, objects[i]);
  }
  return receipt;
}

bool AuthenticatedDb::Contains(Key key) const {
  return values_.Contains(key);
}

QueryResponse AuthenticatedDb::QueryPredicate(uint32_t attr, Key lb,
                                              Key ub) const {
  if (attr != 0) {
    throw std::invalid_argument("AuthenticatedDb: unknown attribute");
  }
  // Join the caller's trace (a sharded scatter, an engine batch) or start a
  // fresh one: this identity rides on the response so the client's Verify*
  // lands in the same trace.
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span("sp.query");
  QueryResponse response;
  response.trace = span.context();
  response.lb = lb;
  response.ub = ub;

  ads::RangeAnswer answer = mirror_->Query(lb, ub);
  response.upper_splits = std::move(answer.upper_splits);
  for (ads::TreeAnswer& a : answer.trees) {
    TreeResultSet set;
    set.label = std::move(a.label);
    set.objects = ToObjects(a.result, values_);
    set.vo = std::move(a.vo);
    response.trees.push_back(std::move(set));
  }
  if (telemetry::Tracer::Global().enabled()) {
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("query.count").Add(1);
    metrics.histogram("query.vo_sp_bytes").Observe(VoSpBytes(response));
    uint64_t objects = 0;
    for (const TreeResultSet& t : response.trees) objects += t.objects.size();
    metrics.histogram("query.result_objects").Observe(objects);
  }
  return response;
}

uint64_t VoSpBytes(const QueryResponse& response) {
  uint64_t total = 0;
  for (const TreeResultSet& t : response.trees) {
    total += t.label.size() + ads::VoSizeBytes(t.vo);
  }
  total += response.upper_splits.size() * sizeof(Key);
  // Composite responses: each slice contributes its own sub-VO plus the
  // shard tag that frames it on the wire.
  for (const ShardSlice& slice : response.slices) {
    total += sizeof(uint32_t) + VoSpBytes(slice.response);
  }
  return total;
}

uint64_t VoSpBytes(const SpecResponse& response) {
  uint64_t total = 0;
  for (const QueryResponse& conjunct : response.conjuncts) {
    total += VoSpBytes(conjunct);
  }
  return total;
}

VerifiedResult VerifyResponse(const chain::AuthenticatedState& state,
                              AdsKind kind,
                              const QueryResponse& response,
                              std::vector<ads::Entry>* boundary) {
  VerifiedResult out;
  out.vo_sp_bytes = VoSpBytes(response);
  // The header is shipped once per response; ComposeSpecVerification counts
  // it.
  for (const chain::DigestEntry& entry : state.digests) {
    out.vo_chain_bytes += entry.label.size() + 32;
  }
  out.vo_chain_bytes += state.proof.size() * 33;

  auto fail = [&](const std::string& msg) {
    out.ok = false;
    out.error = msg;
    out.objects.clear();
    return out;
  };

  if (!response.slices.empty()) {
    return fail("composite response for a single-contract store");
  }
  if (!chain::Environment::VerifyAuthenticatedState(state)) {
    return fail("VO_chain inclusion proofs do not match the block state root");
  }

  // The state leaf commits the contract's whole digest list, so the trees
  // below are every tree the contract has, none withheld.
  std::map<std::string, Hash> digest_by_label;
  for (const chain::DigestEntry& entry : state.digests) {
    if (!digest_by_label.emplace(entry.label, entry.digest).second) {
      return fail("duplicate digest label in VO_chain");
    }
  }

  // Which VO_chain trees must be answered?
  std::vector<std::string> required;
  if (kind == AdsKind::kGem2Star) {
    auto upper = digest_by_label.find("upper");
    if (upper == digest_by_label.end()) {
      return fail("VO_chain misses the upper-level digest");
    }
    if (upper->second != gem2star::UpperLevelDigest(response.upper_splits)) {
      return fail("upper-level split points do not match VO_chain");
    }
    const size_t li = RegionOf(response.upper_splits, response.lb);
    const size_t ui = RegionOf(response.upper_splits, response.ub);
    for (const auto& [label, digest] : digest_by_label) {
      if (label == "upper") continue;
      if (label == "P0") {
        required.push_back(label);
        continue;
      }
      for (size_t r = li; r <= ui; ++r) {
        if (HasRegionPrefix(label, r)) {
          required.push_back(label);
          break;
        }
      }
    }
  } else {
    for (const auto& [label, digest] : digest_by_label) required.push_back(label);
  }

  // Verify every answered tree against its on-chain digest.
  std::map<std::string, bool> answered;
  std::map<Key, Object> by_key;
  std::map<Key, ads::Entry> entries_by_key;  // boundary mode only
  for (const TreeResultSet& tree : response.trees) {
    auto digest = digest_by_label.find(tree.label);
    if (digest == digest_by_label.end()) {
      return fail("answer for unknown tree '" + tree.label + "'");
    }
    if (!answered.emplace(tree.label, true).second) {
      return fail("duplicate answer for tree '" + tree.label + "'");
    }
    if (boundary != nullptr) {
      // Aggregate answers ship proof structure plus the records no longer
      // than their hash; any other record is not what was asked for.
      for (const Object& obj : tree.objects) {
        if (!KeepsRecordInAggregate(obj.value)) {
          return fail("aggregate response ships a record longer than its hash");
        }
      }
      std::vector<ads::Entry> tree_entries;
      ads::VerifyOutcome outcome = ads::VerifyTreeVoBoundary(
          response.lb, response.ub, tree.vo, digest->second, tree.objects,
          &tree_entries);
      if (!outcome.ok) {
        return fail("tree '" + tree.label + "': " + outcome.error);
      }
      for (ads::Entry& entry : tree_entries) {
        const Key key = entry.key;
        if (!entries_by_key.emplace(key, std::move(entry)).second) {
          return fail("key appears in multiple trees");
        }
      }
      continue;
    }
    ads::VerifyOutcome outcome = ads::VerifyTreeVo(
        response.lb, response.ub, tree.vo, digest->second, tree.objects);
    if (!outcome.ok) {
      return fail("tree '" + tree.label + "': " + outcome.error);
    }
    for (const Object& obj : tree.objects) {
      if (!by_key.emplace(obj.key, obj).second) {
        return fail("key appears in multiple trees");
      }
    }
  }

  // Completeness across trees: every required tree must have been answered.
  for (const std::string& label : required) {
    if (answered.find(label) == answered.end()) {
      return fail("missing answer for tree '" + label + "'");
    }
  }

  out.ok = true;
  if (boundary != nullptr) {
    for (auto& [key, entry] : entries_by_key) {
      boundary->push_back(std::move(entry));
    }
    return out;
  }
  out.objects.reserve(by_key.size());
  for (auto& [key, obj] : by_key) {
    // Deleted objects carry the dummy tombstone payload (paper Section V-B):
    // they participate in all proofs but are dropped from the logical result.
    if (IsTombstone(obj.value)) {
      ++out.tombstones_filtered;
      continue;
    }
    out.objects.push_back(std::move(obj));
  }
  return out;
}

std::vector<chain::AuthenticatedState> AuthenticatedDb::ReadChainState() {
  std::vector<chain::AuthenticatedState> states;
  states.push_back(env_->ReadAuthenticatedState(options_.contract_name));
  return states;
}

VerifiedResult AuthenticatedDb::VerifyPredicateAgainst(
    const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
    Key lb, Key ub, const QueryResponse& response,
    std::vector<ads::Entry>* boundary) const {
  // Pins before any VO work: this db's only attribute is the key, and the
  // response must answer exactly the range the client asked for.
  if (attr != 0) return Rejected("predicate over unknown attribute");
  if (response.lb != lb || response.ub != ub) {
    return Rejected("response range does not match the issued query");
  }
  const auto state = std::find_if(
      states.begin(), states.end(), [this](const chain::AuthenticatedState& s) {
        return s.contract == options_.contract_name;
      });
  if (state == states.end()) {
    return Rejected("chain state does not cover this store's contract");
  }
  TELEMETRY_SPAN("client.verify");
  return VerifyResponse(*state, options_.kind, response, boundary);
}

std::unique_ptr<AuthenticatedDb> AuthenticatedDb::Replay(DbOptions options,
                                                         const Journal& journal) {
  // The replayed ops are already journaled: the sink is attached after the
  // last of them, so the db resumes appending to the journal it replays.
  JournalSink* sink = options.journal_sink;
  options.journal_sink = nullptr;
  auto db = std::make_unique<AuthenticatedDb>(std::move(options));
  for (const JournalEntry& e : journal.entries()) {
    chain::TxReceipt receipt;
    switch (e.op) {
      case JournalEntry::Op::kInsert:
        receipt = db->Insert(e.object);
        break;
      case JournalEntry::Op::kUpdate:
        receipt = db->Update(e.object);
        break;
      case JournalEntry::Op::kDelete:
        receipt = db->Delete(e.object.key);
        break;
    }
    if (!receipt.ok) {
      throw std::runtime_error("journal replay aborted: " + receipt.error);
    }
  }
  db->options_.journal_sink = sink;
  return db;
}

std::vector<chain::DigestEntry> AuthenticatedDb::ChainDigests() const {
  return contract_->CommittedDigests();
}

void AuthenticatedDb::CheckConsistency() const {
  if (contract_->AuthenticatedDigests() != mirror_->Digests()) {
    throw std::logic_error(AdsKindName(options_.kind) +
                           " contract/SP digests diverged");
  }
  contract_->CheckInvariants();
  mirror_->CheckInvariants();
}

}  // namespace gem2::core
