// Metrics registry: named counter/gauge/histogram families with labels.
//
// Every experiment in this repository used to hand-roll its own accounting
// (member counters plus ad-hoc printf tables). The registry gives all of
// them one vocabulary: a *family* is a metric name with a help string and a
// type; each distinct label set within a family is its own instrument
// (e.g. `dcc_scheduler_enqueue_total{outcome="FAIL_CHANNEL_CONGESTED"}`).
//
// Cost model: a component that already keeps a `uint64_t` tally of what it
// did registers that tally ONCE as a callback source of the matching counter
// (through its telemetry::Observer, src/telemetry/observer.h); the registry
// reads it at snapshot time, so the hot path keeps its single increment and
// does no registry work at all. Counters bumped by hand (decision counters)
// are resolved once at build time and updated through the returned pointer.
//
// Snapshots are value copies: mutating the registry after `Snapshot()` does
// not change an existing snapshot. Exporters (Prometheus text format and
// JSON-lines) render from a snapshot, so a file dump is internally
// consistent even mid-simulation.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace dcc {
namespace telemetry {

// Label set, e.g. {{"outcome", "SUCCESS"}}. Order-insensitive: the registry
// canonicalizes by key before storing or comparing.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

// A read of some other object's state that backs an instrument (e.g. a
// component's `queries_sent_` tally or its `MemoryFootprint()`). An
// instrument reports its own value plus the sum of its sources, so several
// components registering under one name and label set are summed — the same
// rule shared hand-bumped counters follow. `MetricsRegistry::FreezeCallbacks()`
// folds the sources into the plain value so a snapshot survives the objects
// they read.
using Source = std::function<double()>;

// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const;

 private:
  friend class MetricsRegistry;
  uint64_t value_ = 0;
  std::vector<Source> sources_;
};

// Point-in-time value, set directly or backed by sources.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const;

 private:
  friend class MetricsRegistry;
  double value_ = 0;
  std::vector<Source> sources_;
};

// Mergeable exponential-bucket histogram (reuses src/common/stats.h).
class HistogramMetric {
 public:
  explicit HistogramMetric(double min_value, double growth, int max_buckets)
      : histogram_(min_value, growth, max_buckets) {}

  void Observe(double value) { histogram_.Add(value); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
};

// One sampled instrument, detached from the live registry.
struct MetricSample {
  std::string name;
  Labels labels;  // Canonical (key-sorted) order.
  MetricType type = MetricType::kCounter;
  std::string help;
  double value = 0;      // Counter / gauge value.
  Histogram histogram;   // Histogram payload (count() == 0 otherwise).
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // Grouped by family, label-sorted.

  // Sum of counter/gauge values across all label sets of `name`; 0 when the
  // family is absent.
  double Sum(std::string_view name) const;
  // Value of the exact (name, labels) instrument, or `fallback`.
  double Value(std::string_view name, const Labels& labels,
               double fallback = 0) const;
  const MetricSample* Find(std::string_view name, const Labels& labels) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The returned pointer is stable for the registry's
  // lifetime; callers cache it and update through it. A name registered
  // with conflicting types keeps its first type (the mismatched request
  // returns a detached dummy instrument so callers never crash).
  Counter* GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = "");
  HistogramMetric* GetHistogram(std::string_view name, Labels labels = {},
                                std::string_view help = "",
                                double min_value = 1.0, double growth = 1.05,
                                int max_buckets = 512);

  // Adds `fn` as one more source of the counter / gauge (see Source): the
  // bridge for tallies and introspection hooks like `MemoryFootprint()`.
  Counter* GetCallbackCounter(std::string_view name, Source fn,
                              Labels labels = {}, std::string_view help = "");
  Gauge* GetCallbackGauge(std::string_view name, Source fn, Labels labels = {},
                          std::string_view help = "");

  // Folds every source into its instrument's plain value and drops it.
  // Callers run this before the objects the sources read die, so the
  // registry stays exportable afterwards.
  void FreezeCallbacks();

  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition format (counters/gauges/histograms, with
  // HELP/TYPE headers). Rendered from a fresh snapshot.
  std::string ExportPrometheus() const;
  // One JSON object per line: {"name":...,"type":...,"labels":{...},...}.
  std::string ExportJsonLines() const;

  size_t InstrumentCount() const;

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    // Keyed by the canonical label signature for cheap find-or-create.
    std::map<std::string, Instrument> instruments;
  };

  Family* FamilyFor(std::string_view name, MetricType type,
                    std::string_view help);

  std::map<std::string, Family> families_;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_METRICS_H_
