/// \file tx_trace.h
/// One transaction's span tree, read from a CollectorSink: drain the
/// collector before Environment::Execute, then TakeTxTrace after it. Spans
/// arrive in close order (children before their parent), so the trace runs
/// up to and including the root "tx.<method>" span, whose gas equals the
/// receipt's gas_used. Spans closed after the root (an auto-seal's
/// block.seal) stay out.
#ifndef GEM2_TESTS_TX_TRACE_H_
#define GEM2_TESTS_TX_TRACE_H_

#include <algorithm>
#include <vector>

#include "telemetry/exporters.h"

namespace gem2::testutil {

/// The spans `collector` received up to and including the first "tx.*"
/// root; empty when no transaction root closed.
inline std::vector<telemetry::SpanRecord> TakeTxTrace(telemetry::CollectorSink& collector) {
  std::vector<telemetry::SpanRecord> spans = collector.TakeSpans();
  auto root = std::find_if(spans.begin(), spans.end(), [](const telemetry::SpanRecord& s) {
    return s.name.starts_with("tx.");
  });
  spans.erase(root == spans.end() ? spans.begin() : root + 1, spans.end());
  return spans;
}

}  // namespace gem2::testutil

#endif  // GEM2_TESTS_TX_TRACE_H_
