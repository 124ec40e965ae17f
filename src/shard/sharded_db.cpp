#include "shard/sharded_db.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "telemetry/telemetry.h"

namespace gem2::shard {
namespace {

core::VerifiedResult UnknownAttribute() {
  core::VerifiedResult out;
  out.ok = false;
  out.error = "predicate over unknown attribute";
  return out;
}

}  // namespace

void ShardOptions::Validate() const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("ShardOptions: " + what);
  };
  if (base.shared_env != nullptr) {
    reject("base.shared_env must be null (set ShardOptions::shared_env)");
  }
  if (contract_prefix.empty()) {
    reject("contract_prefix must be non-empty");
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0 && bounds[i] <= bounds[i - 1]) {
      reject("partition bounds must be strictly ascending");
    }
  }
  // Per-shard ADS options (including the env the shared chain is built from)
  // get the same scrutiny an unsharded construction would apply.
  base.Validate();
}

std::string ShardedDb::ShardContractName(size_t shard) {
  return "shard" + std::to_string(shard);
}

std::string ShardedDb::ContractName(size_t shard) const {
  return options_.contract_prefix + std::to_string(shard);
}

ShardedDb::ShardedDb(ShardOptions options)
    : options_(std::move(options)),
      write_counters_(telemetry::MetricsRegistry::Global(), "shard.writes",
                      options_.num_shards()),
      slice_counters_(telemetry::MetricsRegistry::Global(), "shard.slices",
                      options_.num_shards()),
      slice_latency_(telemetry::MetricsRegistry::Global(), "shard.slice_ns",
                     options_.num_shards()) {
  options_.Validate();
  if (options_.shared_env != nullptr) {
    env_ = options_.shared_env;
  } else {
    owned_env_ = std::make_unique<chain::Environment>(options_.base.env);
    env_ = owned_env_.get();
  }
  const size_t shards = options_.num_shards();
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    core::DbOptions per_shard = options_.base;
    per_shard.contract_name = ContractName(i);
    per_shard.shared_env = env_;
    shards_.push_back(std::make_unique<core::AuthenticatedDb>(std::move(per_shard)));
  }
}

ShardedDb::~ShardedDb() = default;

size_t ShardedDb::ShardOf(Key key) const {
  const std::vector<Key>& b = options_.bounds;
  return static_cast<size_t>(std::upper_bound(b.begin(), b.end(), key) -
                             b.begin());
}

chain::TxReceipt ShardedDb::Insert(const Object& object) {
  const size_t s = ShardOf(object.key);
  if (telemetry::Tracer::Global().enabled()) write_counters_.at(s).Add(1);
  return shards_[s]->Insert(object);
}

chain::TxReceipt ShardedDb::Update(const Object& object) {
  const size_t s = ShardOf(object.key);
  if (telemetry::Tracer::Global().enabled()) write_counters_.at(s).Add(1);
  return shards_[s]->Update(object);
}

chain::TxReceipt ShardedDb::Delete(Key key) {
  const size_t s = ShardOf(key);
  if (telemetry::Tracer::Global().enabled()) write_counters_.at(s).Add(1);
  return shards_[s]->Delete(key);
}

chain::TxReceipt ShardedDb::InsertBatch(const std::vector<Object>& objects) {
  // Group by owning shard, preserving in-shard order; one transaction per
  // shard touched. Shard order is deterministic (ascending) so replays and
  // gas accounting are reproducible.
  std::vector<std::vector<Object>> per_shard(shards_.size());
  for (const Object& obj : objects) {
    per_shard[ShardOf(obj.key)].push_back(obj);
  }
  chain::TxReceipt last;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    if (telemetry::Tracer::Global().enabled()) {
      write_counters_.at(s).Add(per_shard[s].size());
    }
    last = shards_[s]->InsertBatch(per_shard[s]);
    if (!last.ok) return last;
  }
  return last;
}

bool ShardedDb::Contains(Key key) const {
  return shards_[ShardOf(key)]->Contains(key);
}

uint64_t ShardedDb::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::vector<ShardedDb::SubRange> ShardedDb::ScatterPlan(Key lb, Key ub) const {
  std::vector<SubRange> plan;
  if (ub < lb) return plan;
  const std::vector<Key>& b = options_.bounds;
  const size_t first = ShardOf(lb);
  const size_t last = ShardOf(ub);
  plan.reserve(last - first + 1);
  for (size_t s = first; s <= last; ++s) {
    SubRange sub;
    sub.shard = s;
    sub.lb = s == first ? lb : b[s - 1];
    sub.ub = s == last ? ub : b[s] - 1;
    plan.push_back(sub);
  }
  return plan;
}

core::QueryResponse ShardedDb::QueryPredicate(uint32_t attr, Key lb,
                                              Key ub) const {
  if (attr != 0) {
    throw std::invalid_argument("ShardedDb: unknown attribute");
  }
  // Parent span of the scatter: slices answer in plan order on the calling
  // thread, so each one's sp.query span is a child of this shard.query.
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span("shard.query");
  core::QueryResponse response;
  response.lb = lb;
  response.ub = ub;
  response.trace = span.context();
  const std::vector<SubRange> plan = ScatterPlan(lb, ub);
  response.slices.resize(plan.size());
  const bool telemetry_on = telemetry::Tracer::Global().enabled();
  for (size_t i = 0; i < plan.size(); ++i) {
    const uint64_t t0 = telemetry_on ? telemetry::Tracer::NowNs() : 0;
    response.slices[i].shard = static_cast<uint32_t>(plan[i].shard);
    response.slices[i].response =
        QueryPredicateOn(*shards_[plan[i].shard], 0, plan[i].lb, plan[i].ub);
    if (telemetry_on) {
      slice_latency_.at(plan[i].shard).Observe(telemetry::Tracer::NowNs() - t0);
    }
  }
  if (telemetry_on) {
    for (const SubRange& sub : plan) slice_counters_.at(sub.shard).Add(1);
    telemetry::MetricsRegistry::Global()
        .histogram("shard.query_slices")
        .Observe(plan.size());
  }
  return response;
}

std::optional<core::VerifiedResult> ShardedDb::CheckPlan(
    Key lb, Key ub, const core::QueryResponse& response,
    std::vector<SubRange>* plan) const {
  auto fail = [](const std::string& msg) {
    core::VerifiedResult out;
    out.ok = false;
    out.error = msg;
    return out;
  };
  if (response.lb != lb || response.ub != ub) {
    return fail("response range does not match the issued query");
  }
  if (!response.trees.empty() || !response.upper_splits.empty()) {
    return fail("composite response carries top-level single-response fields");
  }
  // The client derives the expected scatter from its OWN partition bounds
  // (static deployment config), never from the response: a malicious SP
  // cannot drop, duplicate, reorder, or seam-shift a slice without the plan
  // comparison failing here.
  *plan = ScatterPlan(lb, ub);
  if (response.slices.size() != plan->size()) {
    return fail("composite slice count does not match the shard layout");
  }
  for (size_t i = 0; i < plan->size(); ++i) {
    const core::ShardSlice& slice = response.slices[i];
    const SubRange& expect = (*plan)[i];
    if (slice.shard != expect.shard) {
      return fail("slice " + std::to_string(i) + " answers the wrong shard");
    }
    if (slice.response.lb != expect.lb || slice.response.ub != expect.ub) {
      return fail("slice " + std::to_string(i) +
                  " sub-range violates the shard seams");
    }
  }
  return std::nullopt;
}

bool ShardedDb::MergeSlice(core::VerifiedResult* total, size_t shard,
                           core::VerifiedResult&& slice_result) {
  if (!slice_result.ok) {
    total->ok = false;
    total->error = "shard " + std::to_string(shard) + ": " + slice_result.error;
    total->objects.clear();
    return false;
  }
  total->objects.insert(total->objects.end(),
                        std::make_move_iterator(slice_result.objects.begin()),
                        std::make_move_iterator(slice_result.objects.end()));
  total->tombstones_filtered += slice_result.tombstones_filtered;
  total->vo_chain_bytes += slice_result.vo_chain_bytes;
  return true;
}

std::vector<chain::AuthenticatedState> ShardedDb::ReadChainState() {
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) names.push_back(ContractName(i));
  return env_->ReadAuthenticatedStates(names);
}

core::VerifiedResult ShardedDb::VerifyPredicateAgainst(
    const std::vector<chain::AuthenticatedState>& states, uint32_t attr,
    Key lb, Key ub, const core::QueryResponse& response,
    std::vector<ads::Entry>* boundary) const {
  if (attr != 0) return UnknownAttribute();
  TELEMETRY_SPAN("shard.verify");
  std::vector<SubRange> plan;
  if (auto failed = CheckPlan(lb, ub, response, &plan)) return *failed;
  std::unordered_map<std::string, const chain::AuthenticatedState*> by_contract;
  for (const chain::AuthenticatedState& s : states) by_contract[s.contract] = &s;
  core::VerifiedResult total;
  total.ok = true;
  total.vo_sp_bytes = core::VoSpBytes(response);
  const size_t collected_before = boundary != nullptr ? boundary->size() : 0;
  // Pure-CPU per-slice verification in plan order; the first failing slice
  // decides the error, and boundary mode keeps nothing from a rejected
  // composite.
  for (size_t i = 0; i < plan.size(); ++i) {
    auto it = by_contract.find(ContractName(plan[i].shard));
    if (it == by_contract.end()) {
      total.ok = false;
      total.error = "chain state does not cover shard " +
                    std::to_string(plan[i].shard);
      total.objects.clear();
    } else {
      MergeSlice(&total, plan[i].shard,
                 core::VerifyResponse(*it->second, options_.base.kind,
                                      response.slices[i].response, boundary));
    }
    if (!total.ok) {
      if (boundary != nullptr) boundary->resize(collected_before);
      return total;
    }
  }
  return total;
}

bool ShardedDb::poisoned() const {
  for (const auto& shard : shards_) {
    if (shard->poisoned()) return true;
  }
  return false;
}

std::string ShardedDb::BackendName() const {
  return "sharded(" + std::to_string(shards_.size()) + ")/" +
         core::AdsKindName(options_.base.kind);
}

void ShardedDb::CheckConsistency() const {
  for (const auto& shard : shards_) shard->CheckConsistency();
}

}  // namespace gem2::shard
