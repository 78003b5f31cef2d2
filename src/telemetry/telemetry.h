// Aggregate telemetry sink handed to scenario runners and the testbed: one
// metrics registry plus one query tracer. Components never see the sink:
// the testbed builds one telemetry::Observer (src/telemetry/observer.h) over
// it and the run's audit log, and hands every component that handle.

#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace dcc {
namespace telemetry {

struct TelemetrySink {
  explicit TelemetrySink(size_t trace_capacity = 1 << 16)
      : trace(trace_capacity) {}

  MetricsRegistry metrics;
  QueryTracer trace;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_TELEMETRY_H_
