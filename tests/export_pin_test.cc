// Pins what an observed run exports. Three committed specs run for 8 s with
// a metrics/trace sink, an audit log and a sampler attached; the FNV-1a hash
// of each export (Prometheus text, metrics JSONL, trace JSONL, audit JSONL,
// sampled-series CSV) must equal the constant below. A change that alters
// an export on purpose updates the constant and says so in CHANGES.md; any
// other mismatch is a regression in the observation seam.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>

#include "src/telemetry/audit.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries_export.h"
#include "tests/example_specs.h"

namespace dcc {
namespace {

struct Pin {
  const char* spec;
  uint64_t prometheus;
  uint64_t metrics_jsonl;
  uint64_t trace_jsonl;
  uint64_t audit_jsonl;
  uint64_t series_csv;
};

constexpr Pin kPins[] = {
    {"fig8_wc.json", 0x02b9fef6e4b808d1, 0xab323eee21c96060,
     0x318fcc7478fabd38, 0xbd4e1516353cfced, 0x108959d0ab292261},
    {"fleet_blackout.json", 0x9f18ceb1ce1fd010, 0x40807bfb740eec65,
     0x9de49704d9d305cb, 0x623c8a3a11fc83a6, 0x4130230cf4b890a4},
    {"chain_ff_loss.json", 0x106277dfa6cc4409, 0x3761b801c168cb0a,
     0x17c3a87db034b75f, 0x451b508b4e0c38e3, 0x688d2d3f8746f19e},
};

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

TEST(ExportPinTest, ObservedExportsMatchPinnedHashes) {
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.spec);
    scenario::ScenarioSpec spec = testing_specs::LoadExampleSpec(pin.spec);
    spec.horizon = Seconds(8);
    telemetry::TelemetrySink sink;
    telemetry::DecisionAuditLog audit;
    telemetry::TimeSeriesSampler sampler;
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    hooks.audit = &audit;
    hooks.sampler = &sampler;
    testing_specs::RunSpec(spec, hooks);

    const struct {
      const char* what;
      std::string text;
      uint64_t pinned;
    } exports[] = {
        {"prometheus", sink.metrics.ExportPrometheus(), pin.prometheus},
        {"metrics_jsonl", sink.metrics.ExportJsonLines(), pin.metrics_jsonl},
        {"trace_jsonl", sink.trace.ExportJsonLines(), pin.trace_jsonl},
        {"audit_jsonl", audit.ExportJsonLines(), pin.audit_jsonl},
        {"series_csv", telemetry::ExportSeriesCsv(sampler), pin.series_csv},
    };
    for (const auto& out : exports) {
      EXPECT_FALSE(out.text.empty()) << out.what;
      EXPECT_EQ(Hex(Fnv1a(out.text)), Hex(out.pinned)) << out.what;
    }
  }
}

}  // namespace
}  // namespace dcc
