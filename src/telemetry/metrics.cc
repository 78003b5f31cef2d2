#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace dcc {
namespace telemetry {
namespace {

Labels Canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// `k1="v1",k2="v2"` — doubles as the map key and the Prometheus rendering.
std::string LabelSignature(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += "=\"";
    for (char c : value) {  // Prometheus label-value escaping.
      if (c == '\\' || c == '"') {
        out += '\\';
      }
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double SumSources(const std::vector<Source>& sources) {
  double sum = 0;
  for (const Source& source : sources) {
    sum += source();
  }
  return sum;
}

}  // namespace

uint64_t Counter::value() const {
  return value_ + static_cast<uint64_t>(SumSources(sources_));
}

double Gauge::value() const { return value_ + SumSources(sources_); }

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

double MetricsSnapshot::Sum(std::string_view name) const {
  double sum = 0;
  for (const MetricSample& sample : samples) {
    if (sample.name == name) {
      sum += sample.value;
    }
  }
  return sum;
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          const Labels& labels) const {
  const Labels canonical = Canonicalize(labels);
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.labels == canonical) {
      return &sample;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(std::string_view name, const Labels& labels,
                              double fallback) const {
  const MetricSample* sample = Find(name, labels);
  return sample != nullptr ? sample->value : fallback;
}

MetricsRegistry::Family* MetricsRegistry::FamilyFor(std::string_view name,
                                                    MetricType type,
                                                    std::string_view help) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
  } else if (family.type != type) {
    return nullptr;  // Type conflict: caller hands out a detached dummy.
  }
  if (family.help.empty() && !help.empty()) {
    family.help = help;
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels,
                                     std::string_view help) {
  static Counter dummy;
  Family* family = FamilyFor(name, MetricType::kCounter, help);
  if (family == nullptr) {
    return &dummy;
  }
  labels = Canonicalize(std::move(labels));
  Instrument& inst = family->instruments[LabelSignature(labels)];
  if (!inst.counter) {
    inst.labels = std::move(labels);
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels,
                                 std::string_view help) {
  static Gauge dummy;
  Family* family = FamilyFor(name, MetricType::kGauge, help);
  if (family == nullptr) {
    return &dummy;
  }
  labels = Canonicalize(std::move(labels));
  Instrument& inst = family->instruments[LabelSignature(labels)];
  if (!inst.gauge) {
    inst.labels = std::move(labels);
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

Counter* MetricsRegistry::GetCallbackCounter(std::string_view name, Source fn,
                                             Labels labels,
                                             std::string_view help) {
  Counter* counter = GetCounter(name, std::move(labels), help);
  counter->sources_.push_back(std::move(fn));
  return counter;
}

Gauge* MetricsRegistry::GetCallbackGauge(std::string_view name, Source fn,
                                         Labels labels, std::string_view help) {
  Gauge* gauge = GetGauge(name, std::move(labels), help);
  gauge->sources_.push_back(std::move(fn));
  return gauge;
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name,
                                               Labels labels,
                                               std::string_view help,
                                               double min_value, double growth,
                                               int max_buckets) {
  static HistogramMetric dummy(1.0, 2.0, 2);
  Family* family = FamilyFor(name, MetricType::kHistogram, help);
  if (family == nullptr) {
    return &dummy;
  }
  labels = Canonicalize(std::move(labels));
  Instrument& inst = family->instruments[LabelSignature(labels)];
  if (!inst.histogram) {
    inst.labels = std::move(labels);
    inst.histogram =
        std::make_unique<HistogramMetric>(min_value, growth, max_buckets);
  }
  return inst.histogram.get();
}

void MetricsRegistry::FreezeCallbacks() {
  for (auto& [name, family] : families_) {
    for (auto& [signature, inst] : family.instruments) {
      if (inst.counter) {
        inst.counter->value_ = inst.counter->value();
        inst.counter->sources_.clear();
      } else if (inst.gauge) {
        inst.gauge->value_ = inst.gauge->value();
        inst.gauge->sources_.clear();
      }
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const auto& [name, family] : families_) {
    for (const auto& [signature, inst] : family.instruments) {
      MetricSample sample;
      sample.name = name;
      sample.labels = inst.labels;
      sample.type = family.type;
      sample.help = family.help;
      if (inst.counter) {
        sample.value = static_cast<double>(inst.counter->value());
      } else if (inst.gauge) {
        sample.value = inst.gauge->value();
      } else if (inst.histogram) {
        sample.histogram = inst.histogram->histogram();
        sample.value = static_cast<double>(sample.histogram.count());
      }
      snapshot.samples.push_back(std::move(sample));
    }
  }
  return snapshot;
}

std::string MetricsRegistry::ExportPrometheus() const {
  const MetricsSnapshot snapshot = Snapshot();
  std::string out;
  std::string previous_family;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name != previous_family) {
      previous_family = sample.name;
      if (!sample.help.empty()) {
        out += "# HELP " + sample.name + " " + sample.help + "\n";
      }
      out += "# TYPE " + sample.name + " ";
      out += MetricTypeName(sample.type);
      out += '\n';
    }
    const std::string labels = LabelSignature(sample.labels);
    auto render = [&](const std::string& name, const std::string& extra_label,
                      double value) {
      out += name;
      if (!labels.empty() || !extra_label.empty()) {
        out += '{';
        out += labels;
        if (!extra_label.empty()) {
          if (!labels.empty()) {
            out += ',';
          }
          out += extra_label;
        }
        out += '}';
      }
      out += ' ';
      out += FormatNumber(value);
      out += '\n';
    };
    if (sample.type == MetricType::kHistogram) {
      int64_t cumulative = 0;
      for (const auto& [upper, fraction] : sample.histogram.Cdf()) {
        cumulative = static_cast<int64_t>(
            std::llround(fraction * static_cast<double>(sample.histogram.count())));
        render(sample.name + "_bucket", "le=\"" + FormatNumber(upper) + "\"",
               static_cast<double>(cumulative));
      }
      render(sample.name + "_bucket", "le=\"+Inf\"",
             static_cast<double>(sample.histogram.count()));
      render(sample.name + "_sum", "",
             sample.histogram.mean() *
                 static_cast<double>(sample.histogram.count()));
      render(sample.name + "_count", "",
             static_cast<double>(sample.histogram.count()));
      // Summary-style quantile lines so dashboards can read latency
      // percentiles without reconstructing them from the buckets.
      if (sample.histogram.count() > 0) {
        for (const double q : {0.5, 0.9, 0.99}) {
          render(sample.name, "quantile=\"" + FormatNumber(q) + "\"",
                 sample.histogram.Quantile(q));
        }
      }
    } else {
      render(sample.name, "", sample.value);
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJsonLines() const {
  const MetricsSnapshot snapshot = Snapshot();
  std::string out;
  for (const MetricSample& sample : snapshot.samples) {
    out += "{\"name\":\"" + JsonEscape(sample.name) + "\",\"type\":\"";
    out += MetricTypeName(sample.type);
    out += "\",\"labels\":{";
    bool first = true;
    for (const auto& [key, value] : sample.labels) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
    }
    out += '}';
    if (sample.type == MetricType::kHistogram) {
      out += ",\"count\":" + FormatNumber(static_cast<double>(sample.histogram.count()));
      out += ",\"mean\":" + FormatNumber(sample.histogram.mean());
      out += ",\"p50\":" + FormatNumber(sample.histogram.Quantile(0.5));
      out += ",\"p90\":" + FormatNumber(sample.histogram.Quantile(0.9));
      out += ",\"p99\":" + FormatNumber(sample.histogram.Quantile(0.99));
      out += ",\"max\":" + FormatNumber(sample.histogram.max());
    } else {
      out += ",\"value\":" + FormatNumber(sample.value);
    }
    out += "}\n";
  }
  return out;
}

size_t MetricsRegistry::InstrumentCount() const {
  size_t n = 0;
  for (const auto& [name, family] : families_) {
    n += family.instruments.size();
  }
  return n;
}

}  // namespace telemetry
}  // namespace dcc
