#include "core/query_engine.h"

#include <mutex>

#include "common/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::core {

SpQueryEngine::SpQueryEngine(RangeStore* db, common::ThreadPool* pool)
    : db_(db), pool_(pool != nullptr ? pool : &common::ThreadPool::Global()) {
  // Scoped install: the store builds SP-side trees on our pool while the
  // engine exists, and reverts to its own configured pool afterwards.
  pool_scope_.emplace(*db_, pool_);
}

SpQueryEngine::~SpQueryEngine() = default;

template <typename Fn>
chain::TxReceipt SpQueryEngine::Write(const char* span_name, Fn&& fn) {
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span(span_name);
  const uint64_t t0 = telemetry::Tracer::NowNs();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  chain::TxReceipt receipt = fn();
  // Publish the new snapshot before readers can acquire the lock; acq_rel
  // pairs with the acquire load in epoch().
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.counter("sp_engine.writes").Add(1);
  metrics.histogram("sp_engine.write_ns").Observe(telemetry::Tracer::NowNs() - t0);
  return receipt;
}

chain::TxReceipt SpQueryEngine::Insert(const Object& object) {
  return Write("sp_engine.insert", [&] { return db_->Insert(object); });
}

chain::TxReceipt SpQueryEngine::Update(const Object& object) {
  return Write("sp_engine.update", [&] { return db_->Update(object); });
}

chain::TxReceipt SpQueryEngine::Delete(Key key) {
  return Write("sp_engine.delete", [&] { return db_->Delete(key); });
}

chain::TxReceipt SpQueryEngine::InsertBatch(const std::vector<Object>& objects) {
  return Write("sp_engine.insert_batch", [&] { return db_->InsertBatch(objects); });
}

void SpQueryEngine::CountQuery(uint64_t start_ns) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.counter("sp_engine.queries").Add(1);
  metrics.histogram("sp_engine.query_ns")
      .Observe(telemetry::Tracer::NowNs() - start_ns);
}

SpecResponse SpQueryEngine::ExecuteSpec(const QuerySpec& spec) const {
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  TELEMETRY_SPAN("sp_engine.query");
  const uint64_t t0 = telemetry::Tracer::NowNs();
  std::shared_lock<std::shared_mutex> lock(mutex_);
  SpecResponse response = db_->ExecuteSpec(spec);
  CountQuery(t0);
  return response;
}

Bytes SpQueryEngine::SpecWire(const QuerySpec& spec) const {
  Bytes out;
  SpecWireInto(spec, &out);
  return out;
}

void SpQueryEngine::SpecWireInto(const QuerySpec& spec, Bytes* out) const {
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  TELEMETRY_SPAN("sp_engine.query_wire");
  const uint64_t t0 = telemetry::Tracer::NowNs();
  std::shared_lock<std::shared_mutex> lock(mutex_);
  db_->SpecWireInto(spec, out);
  CountQuery(t0);
}

std::vector<SpecResponse> SpQueryEngine::QueryBatch(
    const std::vector<QuerySpec>& specs) const {
  telemetry::TraceScope trace_scope(telemetry::ContinueTrace());
  telemetry::Span span("sp_engine.query_batch");
  std::vector<SpecResponse> results(specs.size());
  const uint64_t start_ns = telemetry::Tracer::NowNs();
  // Workers continue the batch span's trace, so every per-query
  // sp.spec_query span parents under sp_engine.query_batch exactly as the
  // serial loop's would.
  const telemetry::TraceContext batch_ctx = span.context();
  {
    // One shared-lock acquisition for the whole batch: every response
    // answers from the same epoch, and writers cannot interleave mid-batch.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    pool_->ParallelFor(0, specs.size(), 1, [&](size_t begin, size_t end) {
      telemetry::TraceScope worker_scope(batch_ctx);
      for (size_t i = begin; i < end; ++i) {
        results[i] = db_->ExecuteSpec(specs[i]);
      }
    });
  }
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.counter("sp_engine.queries").Add(specs.size());
  metrics.counter("sp_engine.batches").Add(1);
  const uint64_t elapsed_ns = telemetry::Tracer::NowNs() - start_ns;
  metrics.histogram("sp_engine.batch_ns").Observe(elapsed_ns);
  if (elapsed_ns > 0 && !specs.empty()) {
    // Queries per second over the batch, as an integer gauge.
    metrics.gauge("sp_engine.batch_qps")
        .Set(static_cast<int64_t>(specs.size() * 1000000000.0 /
                                  static_cast<double>(elapsed_ns)));
  }
  return results;
}

VerifiedSpecResult SpQueryEngine::VerifySpecFor(const QuerySpec& spec,
                                                const SpecResponse& response) {
  telemetry::TraceScope trace_scope(response.trace.valid()
                                        ? response.trace
                                        : telemetry::CurrentTrace());
  TELEMETRY_SPAN("sp_engine.verify");
  const uint64_t t0 = telemetry::Tracer::NowNs();
  // Exclusive: verification advances the client's light-client head.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  VerifiedSpecResult result = db_->VerifySpecFor(spec, response);
  telemetry::MetricsRegistry::Global()
      .histogram("sp_engine.verify_ns")
      .Observe(telemetry::Tracer::NowNs() - t0);
  return result;
}

}  // namespace gem2::core
