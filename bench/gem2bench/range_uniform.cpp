// range_uniform: the paper's Fig. 9 query path. A flat GEM2-tree store of
// uniform keys; one thread runs a closed loop of QuerySpec::Range queries at
// selectivity 0.1% / 1% / 10% in a 30/68/2 mix (kFig9Ranges: p50 falls in
// the 1% class, p99 in the middle of the 10% class). Each op is SpecWire ->
// ParseSpecResponse -> VerifySpecAgainst against chain state read once, and
// every verified answer is compared with a std::map reference model. The ADS walk, VO build,
// serialization, parsing and the client's hash recomputation do the work;
// no net, no shard and no writes run, so this is the bypass workload for
// changes to the service and to scatter-gather.
#include <map>

#include "gem2bench.h"
#include "inputs.h"

namespace gem2bench {

namespace {

struct RangeState {
  std::unique_ptr<gem2::core::AuthenticatedDb> db;
  std::vector<gem2::chain::AuthenticatedState> states;
};

}  // namespace

void RunRangeUniform(const Config& config, Tracer& tracer, Result* result) {
  const Scale& scale = config.scale;
  Rng rng(config.seed, 1);
  std::unordered_set<gem2::Key> taken;
  const std::vector<gem2::Object> preload = UniformObjects(rng, scale.range_n, &taken);
  Fingerprint fingerprint;
  std::map<gem2::Key, std::string> reference;
  for (const gem2::Object& o : preload) {
    fingerprint.Add(static_cast<uint64_t>(o.key));
    fingerprint.Add(o.value);
    reference[o.key] = o.value;
  }

  GasTally gas;
  auto build = [&] {
    auto s = std::make_unique<RangeState>();
    s->db = std::make_unique<gem2::core::AuthenticatedDb>(PaperDbOptions());
    gas = GasTally{};
    for (const gem2::Object& o : preload) gas.Add(s->db->Insert(o));
    s->states = s->db->ReadChainState();
    // Warm-up: the first queries materialize the SP's lazy partition trees.
    RangeSpecStream warm(config.seed, 8, kNarrowRanges);
    for (int i = 0; i < 8; ++i) {
      const gem2::core::QuerySpec spec = warm.Next();
      if (!RunQuery(*s->db, s->states, spec, nullptr, 0).ok) {
        throw std::runtime_error("warm-up query failed verification");
      }
    }
    return s;
  };
  Samples setups;
  std::unique_ptr<RangeState> state = TimedBuild(&setups, build);
  gas.Report(result, /*categories=*/true);

  RangeSpecStream specs(config.seed, 6, kFig9Ranges);
  TraceLane* lane = tracer.NewLane();
  Samples latency;  // untraced ops of the window
  QueryCounts counts;
  uint64_t op_id = 0;

  auto run_op = [&](TraceLane* op_lane, bool timed) {
    const gem2::core::QuerySpec spec = specs.Next();
    if (op_id < scale.query_prefix) fingerprint.Add(spec);
    Answer a;
    {
      ScopedSpan op_span(op_lane, Layer::kOp, Layer::kCount, op_id);
      a = RunQuery(*state->db, state->states, spec, op_lane, op_id);
    }
    if (timed) latency.Add(a.latency_ns);
    ++result->attempted;
    const std::string diff =
        a.ok ? CompareRange(reference, spec, a.verified.objects) : a.error;
    if (!diff.empty()) result->Mismatch("range_uniform: " + diff);
    if (op_id < scale.query_prefix) counts.Add(a);
    ++op_id;
  };

  Window window(config.seconds, config.trace);
  while (window.Running()) {
    run_op(window.traced() ? lane : nullptr, !window.traced());
    window.CountOp();
  }
  while (op_id < scale.query_prefix) run_op(nullptr, false);

  counts.Report(result);
  result->Set("ops_per_s", window.OpsPerSecond());
  SetLatency(result, latency);
  result->Set("trace.overhead_frac", window.OverheadFrac());
  SetQueryLayerTimings(result, tracer);
  result->fingerprint = fingerprint.Hex();

  result->Set("peak_rss_mb", PeakRssMb());  // one build and its window
  state.reset();
  FinishSetups(scale.setups, &setups, result, build);
}

}  // namespace gem2bench
