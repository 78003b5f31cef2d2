// Chrome trace-event JSON exporter for causal span trees.
//
// Emits the "JSON Object Format" of the Trace Event spec — a top-level
// object with a `traceEvents` array — which chrome://tracing and
// ui.perfetto.dev open directly. Each trace becomes a process (pid), each
// span a thread (tid) carrying one complete ("X") slice whose args hold the
// causal linkage, so a fig-8 FF resolution renders as the fan-out tree the
// paper describes. Timestamps are virtual-clock microseconds, which is the
// unit the format expects.

#ifndef SRC_TELEMETRY_CHROME_TRACE_H_
#define SRC_TELEMETRY_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "src/telemetry/span_tree.h"

namespace dcc {
namespace telemetry {

std::string ExportChromeTrace(const std::vector<SpanTree>& trees);

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_CHROME_TRACE_H_
