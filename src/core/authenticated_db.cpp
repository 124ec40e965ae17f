#include "core/authenticated_db.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "ads/verify.h"
#include "core/aggregates.h"
#include "core/introspect.h"
#include "core/observe.h"
#include "core/tombstone.h"
#include "core/wire.h"
#include "crypto/digest.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::core {
namespace {

/// Converts one tree's entry list to raw objects via the SP value store.
std::vector<Object> ToObjects(
    const ads::EntryList& entries,
    const std::unordered_map<Key, std::string>& values) {
  std::vector<Object> out;
  out.reserve(entries.size());
  for (const ads::Entry& e : entries) {
    out.push_back({e.key, values.at(e.key)});
  }
  return out;
}

/// Region index of `key` for split points (mirrors Gem2StarEngine::RegionOf).
size_t RegionOf(const std::vector<Key>& splits, Key key) {
  auto it = std::upper_bound(splits.begin(), splits.end(), key);
  return static_cast<size_t>(it - splits.begin());
}

/// The pins both per-conjunct verifiers apply before any VO work: this db's
/// only attribute is the key, and the response must answer exactly the range
/// the client asked for. Empty when the conjunct passes.
std::string PinConjunct(uint32_t attr, Key lb, Key ub,
                        const QueryResponse& response) {
  if (attr != 0) return "predicate over unknown attribute";
  if (response.lb != lb || response.ub != ub) {
    return "response range does not match the issued query";
  }
  return {};
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

struct AuthenticatedDb::Impl {
  std::unique_ptr<mbtree::MbTreeContract> mb_contract;
  std::unique_ptr<smbtree::SmbTreeContract> smb_contract;
  std::unique_ptr<lsm::LsmTreeContract> lsm_contract;
  std::unique_ptr<gem2tree::Gem2Contract> gem2_contract;
  std::unique_ptr<gem2star::Gem2StarContract> star_contract;

  std::unique_ptr<mbtree::MbTree> mb_sp;
  std::unique_ptr<smbtree::SmbTreeMirror> smb_sp;
  std::unique_ptr<lsm::LsmMirror> lsm_sp;
  std::unique_ptr<gem2tree::Gem2Engine> gem2_sp;
  std::unique_ptr<gem2star::Gem2StarEngine> star_sp;

  /// Dispatches one operation to the active contract.
  void ChainOp(AdsKind kind, bool insert, Key key, const Hash& vh,
               gas::Meter& meter) {
    switch (kind) {
      case AdsKind::kMbTree:
        insert ? mb_contract->Insert(key, vh, meter)
               : mb_contract->Update(key, vh, meter);
        break;
      case AdsKind::kSmbTree:
        insert ? smb_contract->Insert(key, vh, meter)
               : smb_contract->Update(key, vh, meter);
        break;
      case AdsKind::kLsm:
        insert ? lsm_contract->Insert(key, vh, meter)
               : lsm_contract->Update(key, vh, meter);
        break;
      case AdsKind::kGem2:
        insert ? gem2_contract->Insert(key, vh, meter)
               : gem2_contract->Update(key, vh, meter);
        break;
      case AdsKind::kGem2Star:
        insert ? star_contract->Insert(key, vh, meter)
               : star_contract->Update(key, vh, meter);
        break;
    }
  }

  /// Applies the same operation to the SP mirror.
  void SpOp(AdsKind kind, bool insert, Key key, const Hash& vh) {
    switch (kind) {
      case AdsKind::kMbTree:
        insert ? mb_sp->Insert(key, vh) : void(mb_sp->Update(key, vh));
        break;
      case AdsKind::kSmbTree:
        insert ? smb_sp->Insert(key, vh) : smb_sp->Update(key, vh);
        break;
      case AdsKind::kLsm:
        insert ? lsm_sp->Insert(key, vh) : lsm_sp->Update(key, vh);
        break;
      case AdsKind::kGem2:
        insert ? gem2_sp->Insert(key, vh) : gem2_sp->Update(key, vh);
        break;
      case AdsKind::kGem2Star:
        insert ? star_sp->Insert(key, vh) : star_sp->Update(key, vh);
        break;
    }
  }
};

AuthenticatedDb::AuthenticatedDb(DbOptions options)
    : options_(std::move(options)), impl_(new Impl) {
  // Any process that builds a store gets the full introspection surface
  // (keccak/arena providers); registration is once-only and cheap.
  RegisterCoreIntrospection();
  options_.Validate();
  if (options_.shared_env != nullptr) {
    env_ = options_.shared_env;
  } else {
    owned_env_ = std::make_unique<chain::Environment>(options_.env);
    env_ = owned_env_.get();
  }
  const std::string& kContractName = options_.contract_name;
  const int fanout = options_.gem2.fanout;
  switch (options_.kind) {
    case AdsKind::kMbTree:
      impl_->mb_contract =
          std::make_unique<mbtree::MbTreeContract>(kContractName, fanout);
      impl_->mb_sp = std::make_unique<mbtree::MbTree>(fanout);
      break;
    case AdsKind::kSmbTree:
      impl_->smb_contract =
          std::make_unique<smbtree::SmbTreeContract>(kContractName, fanout);
      impl_->smb_sp = std::make_unique<smbtree::SmbTreeMirror>(fanout);
      break;
    case AdsKind::kLsm:
      impl_->lsm_contract =
          std::make_unique<lsm::LsmTreeContract>(kContractName, options_.lsm);
      impl_->lsm_sp = std::make_unique<lsm::LsmMirror>(options_.lsm);
      break;
    case AdsKind::kGem2:
      impl_->gem2_contract =
          std::make_unique<gem2tree::Gem2Contract>(kContractName, options_.gem2);
      impl_->gem2_sp = std::make_unique<gem2tree::Gem2Engine>(options_.gem2);
      break;
    case AdsKind::kGem2Star:
      impl_->star_contract = std::make_unique<gem2star::Gem2StarContract>(
          kContractName, options_.gem2, options_.split_points);
      impl_->star_sp = std::make_unique<gem2star::Gem2StarEngine>(
          options_.gem2, options_.split_points);
      break;
  }
  if (options_.sp_pool != nullptr) ApplySpPool(options_.sp_pool);
  env_->Register(&contract());
  light_client_ = std::make_unique<chain::LightClient>(
      env_->blockchain().blocks().front().header);
}

AuthenticatedDb::~AuthenticatedDb() = default;

void AuthenticatedDb::ApplySpPool(common::ThreadPool* pool) {
  if (pool == nullptr) pool = options_.sp_pool;
  if (impl_->smb_sp != nullptr) impl_->smb_sp->set_thread_pool(pool);
  if (impl_->gem2_sp != nullptr) impl_->gem2_sp->set_thread_pool(pool);
  if (impl_->star_sp != nullptr) impl_->star_sp->set_thread_pool(pool);
  // The MB-tree mirror refreshes serially at its first digest read
  // (MbTree::EnsureFresh). The LSM mirror keeps serial builds: its levels are
  // small and its cost is merge-dominated, so a pool would add overhead
  // without a win.
}

chain::Contract& AuthenticatedDb::contract() {
  switch (options_.kind) {
    case AdsKind::kMbTree:
      return *impl_->mb_contract;
    case AdsKind::kSmbTree:
      return *impl_->smb_contract;
    case AdsKind::kLsm:
      return *impl_->lsm_contract;
    case AdsKind::kGem2:
      return *impl_->gem2_contract;
    case AdsKind::kGem2Star:
      return *impl_->star_contract;
  }
  throw std::logic_error("unreachable");
}

const chain::Contract& AuthenticatedDb::contract() const {
  return const_cast<AuthenticatedDb*>(this)->contract();
}

void AuthenticatedDb::ApplyToSp(bool insert, Key key, const std::string& value,
                                const Hash& vh) {
  impl_->SpOp(options_.kind, insert, key, vh);
  sp_values_[key] = value;
}

void AuthenticatedDb::RecordOp(JournalEntry entry) {
  if (options_.journal_sink != nullptr &&
      !options_.journal_sink->Append(entry)) {
    // The op committed on-chain but the durable log never saw it: an ack now
    // would be unrecoverable after a crash. Fail closed; the operator must
    // repair the log (gem2_fsck) or re-provision before continuing.
    throw std::runtime_error("durable journal append failed: " +
                             options_.journal_sink->last_error());
  }
  journal_.Record(std::move(entry));
}

chain::TxReceipt AuthenticatedDb::Insert(const Object& object) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  // Reviving a tombstoned key is an in-place update of the dummy object.
  const bool revive = deleted_.count(object.key) != 0;
  if (!revive && sp_values_.count(object.key) != 0) {
    throw std::invalid_argument("Insert: key already present");
  }
  const Hash vh = crypto::ValueHash(object.value);
  chain::TxReceipt receipt =
      env_->Execute(contract(), revive ? "revive" : "insert", [&](gas::Meter& m) {
        impl_->ChainOp(options_.kind, /*insert=*/!revive, object.key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  ApplyToSp(/*insert=*/!revive, object.key, object.value, vh);
  deleted_.erase(object.key);
  ++size_;
  RecordOp({JournalEntry::Op::kInsert, object});
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
      env_->Execute(contract(), "update", [&](gas::Meter& m) {
        impl_->ChainOp(options_.kind, /*insert=*/false, object.key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  ApplyToSp(/*insert=*/false, object.key, object.value, vh);
  RecordOp({JournalEntry::Op::kUpdate, object});
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
      env_->Execute(contract(), "delete", [&](gas::Meter& m) {
        impl_->ChainOp(options_.kind, /*insert=*/false, key, vh, m);
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  ApplyToSp(/*insert=*/false, key, TombstoneValue(), vh);
  deleted_.insert(key);
  --size_;
  RecordOp({JournalEntry::Op::kDelete, {key, {}}});
  return receipt;
}

chain::TxReceipt AuthenticatedDb::InsertBatch(const std::vector<Object>& objects) {
  if (poisoned_) {
    throw std::logic_error("AuthenticatedDb poisoned by an out-of-gas transaction");
  }
  std::unordered_set<Key> batch_keys;
  for (const Object& obj : objects) {
    if (sp_values_.count(obj.key) != 0 || !batch_keys.insert(obj.key).second) {
      throw std::invalid_argument("InsertBatch: duplicate or existing key");
    }
  }
  chain::TxReceipt receipt =
      env_->Execute(contract(), "insert_batch", [&](gas::Meter& m) {
        for (const Object& obj : objects) {
          impl_->ChainOp(options_.kind, /*insert=*/true, obj.key,
                         crypto::ValueHash(obj.value), m);
        }
      });
  if (!receipt.ok) {
    poisoned_ = true;
    return receipt;
  }
  for (const Object& obj : objects) {
    ApplyToSp(/*insert=*/true, obj.key, obj.value, crypto::ValueHash(obj.value));
    ++size_;
    RecordOp({JournalEntry::Op::kInsert, obj});
  }
  return receipt;
}

bool AuthenticatedDb::Contains(Key key) const {
  return sp_values_.count(key) != 0 && deleted_.count(key) == 0;
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

  std::vector<ads::TreeAnswer> answers;
  switch (options_.kind) {
    case AdsKind::kMbTree: {
      ads::TreeAnswer a;
      a.label = "mbtree.root";
      a.vo = impl_->mb_sp->RangeQuery(lb, ub, &a.result);
      answers.push_back(std::move(a));
      break;
    }
    case AdsKind::kSmbTree: {
      ads::TreeAnswer a;
      a.label = "smbtree.root";
      a.vo = impl_->smb_sp->RangeQuery(lb, ub, &a.result);
      answers.push_back(std::move(a));
      break;
    }
    case AdsKind::kLsm: {
      for (size_t i = 0; i < impl_->lsm_sp->num_levels(); ++i) {
        ads::TreeAnswer a;
        a.label = "lsm.L" + std::to_string(i);
        a.vo = impl_->lsm_sp->RangeQuery(i, lb, ub, &a.result);
        answers.push_back(std::move(a));
      }
      break;
    }
    case AdsKind::kGem2:
      answers = impl_->gem2_sp->Query(lb, ub);
      break;
    case AdsKind::kGem2Star:
      answers = impl_->star_sp->Query(lb, ub);
      response.upper_splits = impl_->star_sp->split_points();
      break;
  }

  for (ads::TreeAnswer& a : answers) {
    TreeResultSet set;
    set.label = std::move(a.label);
    set.objects = ToObjects(a.result, sp_values_);
    set.vo = std::move(a.vo);
    response.trees.push_back(std::move(set));
  }
  if (telemetry::kCompiledIn && telemetry::Tracer::Global().enabled()) {
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("query.count").Add(1);
    metrics.histogram("query.vo_sp_bytes").Observe(VoSpBytes(response));
    uint64_t objects = 0;
    for (const TreeResultSet& t : response.trees) objects += t.objects.size();
    metrics.histogram("query.result_objects").Observe(objects);
  }
  return response;
}

QueryResponse CloneResponse(const QueryResponse& response) {
  QueryResponse copy;
  copy.lb = response.lb;
  copy.ub = response.ub;
  copy.upper_splits = response.upper_splits;
  copy.trees.reserve(response.trees.size());
  for (const TreeResultSet& tree : response.trees) {
    TreeResultSet set;
    set.label = tree.label;
    set.objects = tree.objects;
    set.vo = ads::CloneVo(tree.vo);
    copy.trees.push_back(std::move(set));
  }
  copy.slices.reserve(response.slices.size());
  for (const ShardSlice& slice : response.slices) {
    copy.slices.push_back({slice.shard, CloneResponse(slice.response)});
  }
  copy.trace = response.trace;
  return copy;
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

SpecResponse CloneSpecResponse(const SpecResponse& response) {
  SpecResponse copy;
  copy.spec = response.spec;
  copy.conjuncts.reserve(response.conjuncts.size());
  for (const QueryResponse& conjunct : response.conjuncts) {
    copy.conjuncts.push_back(CloneResponse(conjunct));
  }
  copy.answering = response.answering;
  copy.trace = response.trace;
  return copy;
}

VerifiedResult VerifyResponse(const chain::AuthenticatedState& state,
                              bool chain_valid, AdsKind kind,
                              const QueryResponse& response,
                              ads::HashStrategy strategy,
                              std::vector<ads::VoEntry>* boundary) {
  VerifiedResult out;
  out.vo_sp_bytes = VoSpBytes(response);
  for (const chain::ProvenDigest& pd : state.digests) {
    out.vo_chain_bytes += pd.entry.label.size() + 32 + pd.proof.size() * 33;
    for (const Bytes& node : pd.mpt_proof) out.vo_chain_bytes += node.size();
  }
  out.vo_chain_bytes += 4 * 32 + 24;  // block header fields

  auto fail = [&](const std::string& msg) {
    out.ok = false;
    out.error = msg;
    out.objects.clear();
    return out;
  };

  if (!response.slices.empty()) {
    return fail("composite response for a single-contract store");
  }
  if (!chain_valid) return fail("blockchain failed validation");
  if (!chain::Environment::VerifyAuthenticatedState(state)) {
    return fail("VO_chain inclusion proofs do not match the block state root");
  }

  std::map<std::string, Hash> digest_by_label;
  for (const chain::ProvenDigest& pd : state.digests) {
    if (!digest_by_label.emplace(pd.entry.label, pd.entry.digest).second) {
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
  std::map<Key, ads::VoEntry> entries_by_key;  // boundary mode only
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
      std::vector<ads::VoEntry> tree_entries;
      ads::VerifyOutcome outcome = ads::VerifyTreeVoBoundary(
          response.lb, response.ub, tree.vo, digest->second, tree.objects,
          &tree_entries, strategy);
      if (!outcome.ok) {
        return fail("tree '" + tree.label + "': " + outcome.error);
      }
      for (ads::VoEntry& entry : tree_entries) {
        const Key key = entry.key;
        if (!entries_by_key.emplace(key, std::move(entry)).second) {
          return fail("key appears in multiple trees");
        }
      }
      continue;
    }
    ads::VerifyOutcome outcome = ads::VerifyTreeVo(
        response.lb, response.ub, tree.vo, digest->second, tree.objects,
        strategy);
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

VerifiedResult AuthenticatedDb::VerifyPredicateFor(
    uint32_t attr, Key lb, Key ub, const QueryResponse& response,
    std::vector<ads::VoEntry>* boundary) {
  // Continue the trace the SP stamped on the response (falling back to the
  // thread's current trace for hand-built responses), so the verify span and
  // any rejection event share the query's identity.
  telemetry::TraceScope trace_scope(response.trace.valid()
                                        ? response.trace
                                        : telemetry::CurrentTrace());
  VerifyObservation observe;
  if (std::string error = PinConjunct(attr, lb, ub, response); !error.empty()) {
    observe.RecordRejection(BackendName(), error);
    return Rejected(std::move(error));
  }
  TELEMETRY_SPAN("client.verify");
  chain::AuthenticatedState state =
      env_->ReadAuthenticatedState(options_.contract_name);
  // SPV-style client: follow headers (PoW + linkage) and anchor VO_chain at
  // the tip, instead of revalidating the whole chain per query.
  light_client_->Sync(env_->blockchain());
  std::string error;
  const bool chain_valid = light_client_->VerifyStateAtTip(state, &error);
  VerifiedResult result = VerifyResponse(state, chain_valid, options_.kind,
                                         response, hash_strategy(), boundary);
  if (telemetry::kCompiledIn && telemetry::Tracer::Global().enabled()) {
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.counter("verify.count").Add(1);
    if (!result.ok) metrics.counter("verify.failed").Add(1);
    metrics.histogram("verify.vo_chain_bytes").Observe(result.vo_chain_bytes);
  }
  if (!result.ok) observe.RecordRejection(BackendName(), result.error);
  return result;
}

std::vector<chain::AuthenticatedState> AuthenticatedDb::ReadChainState() {
  std::vector<chain::AuthenticatedState> states;
  states.push_back(env_->ReadAuthenticatedState(options_.contract_name));
  return states;
}

VerifiedResult AuthenticatedDb::VerifyPredicateAgainst(
    const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
    Key lb, Key ub, const QueryResponse& response,
    std::vector<ads::VoEntry>* boundary) const {
  telemetry::TraceScope trace_scope(response.trace.valid()
                                        ? response.trace
                                        : telemetry::CurrentTrace());
  VerifyObservation observe;
  std::string error = PinConjunct(attr, lb, ub, response);
  if (error.empty() &&
      (states.size() != 1 || states[0].contract != options_.contract_name)) {
    error = "chain state does not cover this store's contract";
  }
  if (!error.empty()) {
    observe.RecordRejection(BackendName(), error);
    return Rejected(std::move(error));
  }
  const bool telemetry_on =
      telemetry::kCompiledIn && telemetry::Tracer::Global().enabled();
  const uint64_t t0 = telemetry_on ? telemetry::Tracer::NowNs() : 0;
  VerifiedResult result =
      VerifyResponse(states[0], /*chain_valid=*/true, options_.kind, response,
                     hash_strategy(), boundary);
  if (telemetry_on) {
    telemetry::MetricsRegistry::Global()
        .histogram("client.verify_ns")
        .Observe(telemetry::Tracer::NowNs() - t0);
  }
  if (!result.ok) observe.RecordRejection(BackendName(), result.error);
  return result;
}

std::unique_ptr<AuthenticatedDb> AuthenticatedDb::Replay(DbOptions options,
                                                         const Journal& journal) {
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
  return db;
}

std::vector<chain::DigestEntry> AuthenticatedDb::ChainDigests() const {
  return contract().CommittedDigests();
}

void AuthenticatedDb::CheckConsistency() const {
  auto require = [](bool cond, const char* msg) {
    if (!cond) throw std::logic_error(msg);
  };
  switch (options_.kind) {
    case AdsKind::kMbTree:
      require(impl_->mb_contract->tree().root_digest() ==
                  impl_->mb_sp->root_digest(),
              "MB-tree contract/SP roots diverged");
      impl_->mb_contract->tree().CheckInvariants();
      impl_->mb_sp->CheckInvariants();
      break;
    case AdsKind::kSmbTree:
      require(impl_->smb_contract->root_digest() == impl_->smb_sp->root_digest(),
              "SMB-tree contract/SP roots diverged");
      break;
    case AdsKind::kLsm:
      require(impl_->lsm_contract->num_levels() == impl_->lsm_sp->num_levels(),
              "LSM level counts diverged");
      for (size_t i = 0; i < impl_->lsm_sp->num_levels(); ++i) {
        require(impl_->lsm_contract->level_root(i) == impl_->lsm_sp->level_root(i),
                "LSM level roots diverged");
      }
      break;
    case AdsKind::kGem2:
      require(impl_->gem2_contract->engine().Digests() == impl_->gem2_sp->Digests(),
              "GEM2 contract/SP digests diverged");
      impl_->gem2_contract->engine().CheckInvariants();
      impl_->gem2_sp->CheckInvariants();
      break;
    case AdsKind::kGem2Star:
      require(impl_->star_contract->engine().Digests() == impl_->star_sp->Digests(),
              "GEM2* contract/SP digests diverged");
      impl_->star_contract->engine().CheckInvariants();
      impl_->star_sp->CheckInvariants();
      break;
  }
}

}  // namespace gem2::core
