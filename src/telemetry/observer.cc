#include "src/telemetry/observer.h"

#include <utility>

namespace dcc {
namespace telemetry {
namespace {

// A counter family a decision feeds. With `reason_label` the instrument is
// labelled {reason=<dotted cause name>}, the audit taxonomy's vocabulary.
struct CauseFamily {
  const char* name;
  const char* help;
  bool reason_label;
};

constexpr CauseFamily kShimServfails{
    "dcc_servfails_synthesized_total",
    "SERVFAILs synthesized toward the resolver", true};
constexpr CauseFamily kPolicerRejects{
    "dcc_policer_rejects_total", "Queries rejected by pre-queue policing", true};
constexpr CauseFamily kAnomalyAlarms{"dcc_anomaly_alarms_total",
                                     "Anomaly-window alarm events", false};

// The counters each cause bumps, by cause ordinal. Causes whose counters
// carry labels the cause does not determine (a host, a policy, a fault
// type) have no row: their counters read the component's per-label tally.
constexpr const CauseFamily* kCauseFamilies[kAuditCauseCount][2] = {
    /* policer.rate_exceeded */ {&kPolicerRejects, &kShimServfails},
    /* policer.blocked */ {&kPolicerRejects, &kShimServfails},
    /* mopi.channel_congested */ {&kShimServfails},
    /* mopi.queue_full */ {&kShimServfails},
    /* mopi.client_overspeed */ {&kShimServfails},
    /* mopi.evicted */ {&kShimServfails},
    /* anomaly.alarm */ {&kAnomalyAlarms},
    /* anomaly.convicted */ {&kAnomalyAlarms},
};

}  // namespace

Observer::Observer(MetricsRegistry* metrics, QueryTracer* trace,
                   DecisionAuditLog* audit)
    : metrics_(metrics), trace_(trace), audit_(audit) {
  if (metrics_ == nullptr) {
    return;
  }
  // Ring evictions surface in every metrics dump, so a truncated trace or
  // audit window never looks complete.
  if (trace_ != nullptr) {
    Count("trace_spans_dropped_total", {},
          "Span events evicted from the trace ring buffer",
          [trace]() { return static_cast<double>(trace->dropped()); });
    Gauge("trace_spans_retained", {},
          "Span events currently held in the trace ring buffer",
          [trace]() { return static_cast<double>(trace->size()); });
  }
  if (audit_ != nullptr) {
    Count("audit_records_dropped_total", {},
          "Decision records evicted from the audit ring buffer",
          [audit]() { return static_cast<double>(audit->dropped()); });
    Gauge("audit_records_retained", {},
          "Decision records currently held in the audit ring buffer",
          [audit]() { return static_cast<double>(audit->size()); });
  }
}

Counter* const* Observer::CauseCounters(AuditCause cause) {
  const size_t ordinal = static_cast<size_t>(cause);
  if (!cause_resolved_[ordinal] && metrics_ != nullptr) {
    cause_resolved_[ordinal] = true;
    for (int i = 0; i < kMaxCauseFamilies; ++i) {
      const CauseFamily* family = kCauseFamilies[ordinal][i];
      if (family == nullptr) {
        continue;
      }
      Labels labels;
      if (family->reason_label) {
        labels.emplace_back("reason", AuditCauseName(cause));
      }
      cause_counters_[ordinal][i] =
          metrics_->GetCounter(family->name, std::move(labels), family->help);
    }
  }
  return cause_counters_[ordinal];
}

void Observer::DeclareCauses(std::initializer_list<AuditCause> causes) {
  for (AuditCause cause : causes) {
    CauseCounters(cause);
  }
}

void Observer::Decide(const Decision& decision) {
  Counter* const* counters = CauseCounters(decision.cause);
  for (int i = 0; i < kMaxCauseFamilies; ++i) {
    if (counters[i] != nullptr) {
      counters[i]->Inc();
    }
  }
  if (audit_ == nullptr) {
    return;
  }
  AuditRecord record;
  record.at = decision.at;
  record.cause = decision.cause;
  record.actor = decision.actor;
  record.client = decision.client;
  record.channel = decision.channel;
  record.trace_id = decision.trace_id;
  record.span_id = decision.span_id;
  record.parent_span_id = decision.parent_span_id;
  record.observed = decision.observed;
  record.limit = decision.limit;
  SetAuditQname(record, decision.qname);
  audit_->Record(record);
}

void Observer::Count(std::string_view name, Labels labels,
                     std::string_view help, const uint64_t* tally) {
  Count(name, std::move(labels), help,
        [tally]() { return static_cast<double>(*tally); });
}

void Observer::Count(std::string_view name, Labels labels,
                     std::string_view help, Source read) {
  if (metrics_ != nullptr) {
    metrics_->GetCallbackCounter(name, std::move(read), std::move(labels), help);
  }
}

void Observer::Gauge(std::string_view name, Labels labels,
                     std::string_view help, Source read) {
  if (metrics_ != nullptr) {
    metrics_->GetCallbackGauge(name, std::move(read), std::move(labels), help);
  }
}

Observer::InstrumentId Observer::Histogram(std::string_view name, Labels labels,
                                           std::string_view help,
                                           double min_value, double growth,
                                           int max_buckets) {
  histograms_.push_back(metrics_ == nullptr
                            ? nullptr
                            : metrics_->GetHistogram(name, std::move(labels),
                                                     help, min_value, growth,
                                                     max_buckets));
  return static_cast<InstrumentId>(histograms_.size() - 1);
}

Observer::InstrumentId Observer::SettableGauge(std::string_view name,
                                               Labels labels,
                                               std::string_view help) {
  gauges_.push_back(metrics_ == nullptr
                        ? nullptr
                        : metrics_->GetGauge(name, std::move(labels), help));
  return static_cast<InstrumentId>(gauges_.size() - 1);
}

void Observer::Freeze() {
  if (metrics_ != nullptr) {
    metrics_->FreezeCallbacks();
  }
}

}  // namespace telemetry
}  // namespace dcc
