#include "shard/sharded_db.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "common/thread_pool.h"
#include "core/observe.h"
#include "telemetry/telemetry.h"

namespace gem2::shard {
namespace {

bool TelemetryOn() {
  return telemetry::kCompiledIn && telemetry::Tracer::Global().enabled();
}

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
  scatter_pool_ = options_.base.sp_pool;
}

ShardedDb::~ShardedDb() = default;

void ShardedDb::ApplySpPool(common::ThreadPool* pool) {
  scatter_pool_ = pool != nullptr ? pool : options_.base.sp_pool;
  for (const auto& shard : shards_) ApplySpPoolTo(*shard, pool);
}

size_t ShardedDb::ShardOf(Key key) const {
  const std::vector<Key>& b = options_.bounds;
  return static_cast<size_t>(std::upper_bound(b.begin(), b.end(), key) -
                             b.begin());
}

chain::TxReceipt ShardedDb::Insert(const Object& object) {
  const size_t s = ShardOf(object.key);
  if (TelemetryOn()) write_counters_.at(s).Add(1);
  return shards_[s]->Insert(object);
}

chain::TxReceipt ShardedDb::Update(const Object& object) {
  const size_t s = ShardOf(object.key);
  if (TelemetryOn()) write_counters_.at(s).Add(1);
  return shards_[s]->Update(object);
}

chain::TxReceipt ShardedDb::Delete(Key key) {
  const size_t s = ShardOf(key);
  if (TelemetryOn()) write_counters_.at(s).Add(1);
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
    if (TelemetryOn()) write_counters_.at(s).Add(per_shard[s].size());
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
  // Parent span of the scatter: every slice — answered inline or on a pool
  // worker — continues this trace with the parent span id, so the span tree
  // (one shard.query, `slices` sp.query children) is identical serial vs
  // parallel.
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span("shard.query");
  core::QueryResponse response;
  response.lb = lb;
  response.ub = ub;
  response.trace = span.context();
  const std::vector<SubRange> plan = ScatterPlan(lb, ub);
  response.slices.resize(plan.size());
  const telemetry::TraceContext slice_ctx = span.context();
  const bool telemetry_on = TelemetryOn();
  auto answer = [&](size_t i) {
    telemetry::TraceScope slice_scope(slice_ctx);
    const uint64_t t0 = telemetry_on ? telemetry::Tracer::NowNs() : 0;
    response.slices[i].shard = static_cast<uint32_t>(plan[i].shard);
    response.slices[i].response =
        QueryPredicateOn(*shards_[plan[i].shard], 0, plan[i].lb, plan[i].ub);
    if (telemetry_on) {
      slice_latency_.at(plan[i].shard).Observe(telemetry::Tracer::NowNs() - t0);
    }
  };
  if (scatter_pool_ != nullptr && plan.size() > 1) {
    scatter_pool_->ParallelFor(0, plan.size(), 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) answer(i);
    });
  } else {
    for (size_t i = 0; i < plan.size(); ++i) answer(i);
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

core::VerifiedResult ShardedDb::VerifyPredicateFor(
    uint32_t attr, Key lb, Key ub, const core::QueryResponse& response,
    std::vector<ads::VoEntry>* boundary) {
  if (attr != 0) return UnknownAttribute();
  telemetry::TraceScope trace_scope(response.trace.valid()
                                        ? response.trace
                                        : telemetry::CurrentTrace());
  core::VerifyObservation observe;
  TELEMETRY_SPAN("shard.verify");
  std::vector<SubRange> plan;
  if (auto failed = CheckPlan(lb, ub, response, &plan)) {
    observe.RecordRejection(BackendName(), failed->error);
    return *failed;
  }
  core::VerifiedResult total;
  total.ok = true;
  total.vo_sp_bytes = core::VoSpBytes(response);
  const size_t collected_before = boundary != nullptr ? boundary->size() : 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    // Full per-shard client path: chain read, light-client sync, then the
    // single-response checks of Algorithms 6 / 8 over the slice. In boundary
    // (aggregate) mode each slice appends its proven in-range entries; plan
    // order ascends, so the concatenation stays key-ordered.
    core::VerifiedResult slice_result = VerifyPredicateForOn(
        *shards_[plan[i].shard], 0, plan[i].lb, plan[i].ub,
        response.slices[i].response, boundary);
    if (!MergeSlice(&total, plan[i].shard, std::move(slice_result))) {
      if (boundary != nullptr) boundary->resize(collected_before);
      observe.RecordRejection(BackendName(), total.error);
      return total;
    }
  }
  return total;
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
    std::vector<ads::VoEntry>* boundary) const {
  if (attr != 0) return UnknownAttribute();
  telemetry::TraceScope trace_scope(response.trace.valid()
                                        ? response.trace
                                        : telemetry::CurrentTrace());
  core::VerifyObservation observe;
  std::vector<SubRange> plan;
  if (auto failed = CheckPlan(lb, ub, response, &plan)) {
    observe.RecordRejection(BackendName(), failed->error);
    return *failed;
  }
  std::unordered_map<std::string, const chain::AuthenticatedState*> by_contract;
  for (const chain::AuthenticatedState& s : states) by_contract[s.contract] = &s;
  const bool telemetry_on = TelemetryOn();
  const uint64_t t0 = telemetry_on ? telemetry::Tracer::NowNs() : 0;
  const ads::HashStrategy strategy = options_.base.client.batched_hashing
                                         ? ads::HashStrategy::kBatched
                                         : ads::HashStrategy::kSerial;
  // Pure-CPU per-slice verification; each slice is independent, so they can
  // run on the client pool, each collecting its own boundary entries. Every
  // slice is verified, then merged in plan order — the first failure in plan
  // order wins, exactly as in the serial loop (a serial run would not have
  // verified later slices, but their results cannot change the outcome).
  std::vector<const chain::AuthenticatedState*> slice_states(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    auto it = by_contract.find(ContractName(plan[i].shard));
    slice_states[i] = it == by_contract.end() ? nullptr : it->second;
  }
  const telemetry::TraceContext slice_ctx = telemetry::CurrentTrace();
  std::vector<core::VerifiedResult> results(plan.size());
  std::vector<std::vector<ads::VoEntry>> entries(
      boundary != nullptr ? plan.size() : 0);
  auto verify_slice = [&](size_t i) {
    if (slice_states[i] == nullptr) return;  // reported in plan order below
    telemetry::TraceScope slice_scope(slice_ctx);
    results[i] = core::VerifyResponse(
        *slice_states[i], /*chain_valid=*/true, options_.base.kind,
        response.slices[i].response, strategy,
        boundary != nullptr ? &entries[i] : nullptr);
  };
  common::ThreadPool* pool = options_.base.client.pool;
  if (pool != nullptr && plan.size() > 1) {
    pool->ParallelFor(0, plan.size(), 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) verify_slice(i);
    });
  } else {
    for (size_t i = 0; i < plan.size(); ++i) verify_slice(i);
  }
  core::VerifiedResult total;
  total.ok = true;
  total.vo_sp_bytes = core::VoSpBytes(response);
  for (size_t i = 0; i < plan.size(); ++i) {
    if (slice_states[i] == nullptr) {
      total.ok = false;
      total.error = "chain state does not cover shard " +
                    std::to_string(plan[i].shard);
      total.objects.clear();
      observe.RecordRejection(BackendName(), total.error);
      return total;
    }
    if (!MergeSlice(&total, plan[i].shard, std::move(results[i]))) {
      observe.RecordRejection(BackendName(), total.error);
      return total;
    }
  }
  if (boundary != nullptr) {
    for (std::vector<ads::VoEntry>& slice_entries : entries) {
      boundary->insert(boundary->end(),
                       std::make_move_iterator(slice_entries.begin()),
                       std::make_move_iterator(slice_entries.end()));
    }
  }
  if (telemetry_on) {
    telemetry::MetricsRegistry::Global()
        .histogram("client.verify_ns")
        .Observe(telemetry::Tracer::NowNs() - t0);
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
