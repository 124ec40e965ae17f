// boolean_sharded_zipf: vChain-style verifiable boolean range queries.
// MultiAttrDb with K = 2 zipf(0.8) attributes; each attribute index is S = 4
// shards cut at the quartiles of the generated values. One thread runs a
// closed loop of AND 39 / OR 39 / COUNT 10 / SUM 10 specs over ~1%
// predicates plus 2% wide ORs over ~10% predicates (BooleanSpecStream),
// through the same SP -> client path as range_uniform. It runs per-conjunct
// verification and composition, the aggregate boundary path, the pooled
// scatter-gather (the wide ORs cross shard bounds), and a hot shard:
// predicate centres are uniform over the value domain, and under zipf
// values most of that domain belongs to the top-quartile shard.
#include <algorithm>
#include <map>

#include "gem2bench.h"
#include "inputs.h"
#include "multiattr/multiattr_db.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace gem2bench {
namespace {

using gem2::core::AggregateKind;
using gem2::core::BoolOp;
using gem2::core::QuerySpec;

constexpr uint32_t kAttrs = 2;
constexpr size_t kShards = 4;

struct BooleanState {
  std::unique_ptr<gem2::multiattr::MultiAttrDb> db;
  std::vector<gem2::chain::AuthenticatedState> states;
};

/// Reference model: per attribute, (value, id) pairs in ascending order.
class BooleanReference {
 public:
  explicit BooleanReference(const std::vector<Record>& records) : records_(records) {
    by_attr_.resize(kAttrs);
    for (const Record& r : records) {
      for (uint32_t k = 0; k < kAttrs; ++k) by_attr_[k].push_back({r.attrs[k], r.id});
    }
    for (auto& v : by_attr_) std::sort(v.begin(), v.end());
  }

  /// Ids of the records matching one predicate, ascending.
  std::vector<int64_t> Match(const gem2::core::Predicate& p) const {
    const auto& v = by_attr_[p.attr];
    auto lo = std::lower_bound(v.begin(), v.end(), std::pair{p.lb, INT64_MIN});
    auto hi = std::upper_bound(v.begin(), v.end(), std::pair{p.ub, INT64_MAX});
    std::vector<int64_t> ids;
    for (auto it = lo; it != hi; ++it) ids.push_back(it->second);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Empty when the verified answer equals the model's, else why not.
  std::string Compare(const QuerySpec& spec,
                      const gem2::core::VerifiedSpecResult& got) const {
    if (spec.aggregate != AggregateKind::kNone) {
      const std::vector<int64_t> ids = Match(spec.predicates[0]);
      if (!got.aggregates.has_value()) return "aggregate missing";
      if (got.aggregates->count != ids.size()) return "COUNT differs";
      if (spec.aggregate == AggregateKind::kSum) {
        long long sum = 0;
        for (int64_t id : ids) sum += records_[id].attrs[spec.predicates[0].attr];
        if (got.aggregates->sum != sum) return "SUM differs";
      }
      return {};
    }
    std::vector<int64_t> ids = Match(spec.predicates[0]);
    for (size_t i = 1; i < spec.predicates.size(); ++i) {
      const std::vector<int64_t> other = Match(spec.predicates[i]);
      std::vector<int64_t> merged;
      if (spec.op == BoolOp::kAnd) {
        std::set_intersection(ids.begin(), ids.end(), other.begin(), other.end(),
                              std::back_inserter(merged));
      } else {
        std::set_union(ids.begin(), ids.end(), other.begin(), other.end(),
                       std::back_inserter(merged));
      }
      ids.swap(merged);
    }
    if (got.objects.size() != ids.size()) return "result count differs";
    for (size_t i = 0; i < ids.size(); ++i) {
      const Record& r = records_[ids[i]];
      if (got.objects[i].key != r.id ||
          got.objects[i].value !=
              gem2::multiattr::EncodeRecord({r.id, r.attrs, r.payload})) {
        return "record " + std::to_string(r.id) + " differs";
      }
    }
    return {};
  }

 private:
  const std::vector<Record>& records_;
  std::vector<std::vector<std::pair<gem2::Key, int64_t>>> by_attr_;
};

uint64_t CountObjects(const gem2::core::QueryResponse& r) {
  uint64_t n = 0;
  for (const auto& t : r.trees) n += t.objects.size();
  for (const auto& s : r.slices) n += CountObjects(s.response);
  return n;
}

}  // namespace

void RunBooleanShardedZipf(const Config& config, Tracer& tracer, Result* result) {
  const Scale& scale = config.scale;
  const std::vector<Record> records = ZipfRecords(config.seed, scale.boolean_records, kAttrs);
  Fingerprint fingerprint;
  std::vector<std::vector<gem2::Key>> sorted(kAttrs);
  std::vector<gem2::Key> pooled;
  for (const Record& r : records) {
    fingerprint.Add(static_cast<uint64_t>(r.id));
    for (uint32_t k = 0; k < kAttrs; ++k) {
      fingerprint.Add(static_cast<uint64_t>(r.attrs[k]));
      sorted[k].push_back(r.attrs[k]);
      pooled.push_back(r.attrs[k]);
    }
    fingerprint.Add(r.payload);
  }
  for (auto& v : sorted) std::sort(v.begin(), v.end());
  std::sort(pooled.begin(), pooled.end());
  const BooleanReference reference(records);

  gem2::multiattr::MultiAttrOptions options;
  options.base = PaperDbOptions();
  options.num_attrs = kAttrs;
  for (size_t i = 1; i < kShards; ++i) {
    const gem2::Key bound = pooled[i * pooled.size() / kShards];
    if (options.shard_bounds.empty() || bound > options.shard_bounds.back()) {
      options.shard_bounds.push_back(bound);
    }
  }

  uint64_t preload_gas = 0;
  auto build = [&] {
    auto s = std::make_unique<BooleanState>();
    s->db = std::make_unique<gem2::multiattr::MultiAttrDb>(options);
    const uint64_t gas0 = s->db->environment().total_gas_used();
    for (const Record& r : records) {
      const gem2::chain::TxReceipt receipt = s->db->InsertRecord({r.id, r.attrs, r.payload});
      if (!receipt.ok) throw std::runtime_error("preload insert failed: " + receipt.error);
    }
    preload_gas = s->db->environment().total_gas_used() - gas0;
    s->states = s->db->ReadChainState();
    BooleanSpecStream warm(config.seed + 1, sorted);
    for (int i = 0; i < 8; ++i) {
      if (!RunQuery(*s->db, s->states, warm.Next(), nullptr, 0).ok) {
        throw std::runtime_error("warm-up query failed verification");
      }
    }
    return s;
  };
  Samples setups;
  std::unique_ptr<BooleanState> state = TimedBuild(&setups, build);
  // One owner write = one record (a transaction per attribute index).
  result->Set("gas_per_write",
              static_cast<double>(preload_gas) / static_cast<double>(records.size()));

  // shard.slice_ns.<i> is recorded only while the library's telemetry has a
  // sink; traced slices install a NullSink, untraced slices run without one.
  auto& registry = gem2::telemetry::MetricsRegistry::Global();
  auto& telemetry = gem2::telemetry::Tracer::Global();
  for (size_t i = 0; i < kShards; ++i) {
    registry.histogram("shard.slice_ns." + std::to_string(i)).Reset();
  }
  const auto null_sink = std::make_shared<gem2::telemetry::NullSink>();

  BooleanSpecStream specs(config.seed, sorted);
  TraceLane* lane = tracer.NewLane();
  Samples latency;  // untraced ops of the window
  QueryCounts counts;
  uint64_t conjuncts = 0;
  uint64_t slices = 0;
  uint64_t composed = 0;
  uint64_t conjunct_results = 0;
  uint64_t op_id = 0;

  auto run_op = [&](TraceLane* op_lane, bool timed) {
    const QuerySpec spec = specs.Next();
    if (op_id < scale.query_prefix) fingerprint.Add(spec);
    Answer a;
    {
      ScopedSpan op_span(op_lane, Layer::kOp, Layer::kCount, op_id);
      a = RunQuery(*state->db, state->states, spec, op_lane, op_id);
    }
    if (timed) latency.Add(a.latency_ns);
    ++result->attempted;
    const std::string diff = a.ok ? reference.Compare(spec, a.verified) : a.error;
    if (!diff.empty()) result->Mismatch("boolean_sharded_zipf: " + diff);
    if (op_id < scale.query_prefix && a.ok) {
      counts.Add(a);
      conjuncts += a.parsed.conjuncts.size();
      for (const auto& c : a.parsed.conjuncts) slices += c.slices.size();
      if (spec.aggregate == AggregateKind::kNone) {
        composed += a.verified.objects.size();
        for (const auto& c : a.parsed.conjuncts) conjunct_results += CountObjects(c);
      }
    }
    ++op_id;
  };

  Window window(config.seconds, config.trace);
  while (window.Running()) {
    if (window.traced() != telemetry.enabled()) {
      if (window.traced()) {
        telemetry.AddSink(null_sink);
      } else {
        telemetry.ClearSinks();
      }
    }
    run_op(window.traced() ? lane : nullptr, !window.traced());
    window.CountOp();
  }
  telemetry.ClearSinks();
  while (op_id < scale.query_prefix) run_op(nullptr, false);

  counts.Report(result);
  const double n = static_cast<double>(std::max<uint64_t>(counts.queries, 1));
  result->Set("multiattr.conjuncts_per_query", static_cast<double>(conjuncts) / n);
  result->Set("shard.slices_per_conjunct",
              static_cast<double>(slices) / static_cast<double>(std::max<uint64_t>(conjuncts, 1)));
  result->Set("multiattr.useful_ratio",
              static_cast<double>(composed) /
                  static_cast<double>(std::max<uint64_t>(conjunct_results, 1)));
  result->Set("ops_per_s", window.OpsPerSecond());
  SetLatency(result, latency);
  result->Set("trace.overhead_frac", window.OverheadFrac());
  SetQueryLayerTimings(result, tracer);

  double slice_p50 = 0;
  double slice_p99 = 0;
  double slice_busy = 0;
  for (size_t i = 0; i < kShards; ++i) {
    const auto& h = registry.histogram("shard.slice_ns." + std::to_string(i));
    const auto q = h.Quantiles();
    slice_p50 = std::max(slice_p50, q.p50);
    slice_p99 = std::max(slice_p99, q.p99);
    slice_busy += static_cast<double>(h.sum()) / 1e9;
  }
  result->Set("shard.slice_ns.p50", slice_p50);
  result->Set("shard.slice_ns.p99", slice_p99);
  result->Set("shard.slice_ns.busy_s", slice_busy);
  result->fingerprint = fingerprint.Hex();

  result->Set("peak_rss_mb", PeakRssMb());  // one build and its window
  state.reset();
  FinishSetups(scale.setups, &setups, result, build);
}

}  // namespace gem2bench
