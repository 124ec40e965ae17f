#include "core/query_engine.h"

#include <mutex>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace gem2::core {

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
