// Observer: the one observation handle every simulated component holds.
//
// The DCC shim and the servers around it make a handful of typed decisions
// (drops, SERVFAILs, convictions, hold-downs, fault activations) and keep
// plain `uint64_t` tallies of what they did. An Observer is the single seam
// through which a component exposes both, to whichever sinks a run enabled:
//
//  * Decide() emits a decision once. It writes the audit record and bumps
//    the counters that cause feeds (one cause -> family table in
//    observer.cc), so a metric and its audit trail cannot disagree.
//  * Count() / Gauge() register, at build time, a read of a tally or state
//    the component keeps anyway. The registry reads it at snapshot time
//    (MetricsRegistry::GetCallbackCounter), so the hot path keeps one
//    increment. A tally used this way must never be reset.
//  * Span() stamps query-lifecycle span events; Observe() / Set() feed the
//    histograms and settable gauges registered through the handle.
//
// A component holds one `Observer*`, given to it when it is built; nullptr
// means observing is off, and the disabled path is that one pointer check.
// The observer is concrete and non-virtual and owns none of its sinks. Give
// each sink one observer: the ring-buffer eviction counters it registers
// read the rings' own totals.

#ifndef SRC_TELEMETRY_OBSERVER_H_
#define SRC_TELEMETRY_OBSERVER_H_

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace dcc {
namespace telemetry {

// One decision and the state that decided it (the AuditRecord fields; the
// per-cause meaning of observed/limit is tabulated in DESIGN.md §13).
struct Decision {
  AuditCause cause = AuditCause::kPolicerRateExceeded;
  Time at = 0;
  uint32_t actor = 0;
  uint32_t client = 0;
  uint32_t channel = 0;
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;
  double observed = 0;
  double limit = 0;
  std::string_view qname;
};

class Observer {
 public:
  // Index of a histogram or settable gauge registered through the handle.
  using InstrumentId = uint32_t;

  // Any sink may be nullptr. With a registry, the trace and audit rings'
  // evictions and retained sizes are exported as reads of the rings.
  Observer(MetricsRegistry* metrics, QueryTracer* trace,
           DecisionAuditLog* audit);
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void Decide(const Decision& decision);
  // Registers the counters `causes` feed so they export even at zero.
  void DeclareCauses(std::initializer_list<AuditCause> causes);

  void Span(uint64_t trace_id, SpanKind kind, Time at, uint32_t actor,
            int32_t detail = 0, uint32_t span_id = kClientSpanId,
            uint32_t parent_span_id = 0, uint32_t peer = 0) {
    if (trace_ != nullptr) {
      trace_->Record(trace_id, kind, at, actor, detail, span_id,
                     parent_span_id, peer);
    }
  }

  // --- build-time registration; no-ops without a registry -----------------
  void Count(std::string_view name, Labels labels, std::string_view help,
             const uint64_t* tally);
  void Count(std::string_view name, Labels labels, std::string_view help,
             Source read);
  void Gauge(std::string_view name, Labels labels, std::string_view help,
             Source read);
  InstrumentId Histogram(std::string_view name, Labels labels,
                         std::string_view help, double min_value = 1.0,
                         double growth = 1.05, int max_buckets = 512);
  InstrumentId SettableGauge(std::string_view name, Labels labels,
                             std::string_view help);

  void Observe(InstrumentId histogram, double value) {
    if (HistogramMetric* metric = histograms_[histogram]) {
      metric->Observe(value);
    }
  }
  void Set(InstrumentId gauge, double value) {
    if (telemetry::Gauge* metric = gauges_[gauge]) {
      metric->Set(value);
    }
  }

  // Folds every registered read into a plain value (see
  // MetricsRegistry::FreezeCallbacks); call before the components die.
  void Freeze();

 private:
  Counter* const* CauseCounters(AuditCause cause);

  MetricsRegistry* metrics_;
  QueryTracer* trace_;
  DecisionAuditLog* audit_;
  // Counters each cause bumps, resolved on first declaration or use.
  static constexpr int kMaxCauseFamilies = 2;
  Counter* cause_counters_[kAuditCauseCount][kMaxCauseFamilies] = {};
  bool cause_resolved_[kAuditCauseCount] = {};
  std::vector<HistogramMetric*> histograms_;
  std::vector<telemetry::Gauge*> gauges_;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_OBSERVER_H_
