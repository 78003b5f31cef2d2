#include "bench/benches.h"

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"

namespace dcc {
namespace bench {

scenario::ScenarioSpec LoadExampleSpec(const std::string& name) {
  // The path goes in a fixed buffer, not a std::string: dcc_bench counts
  // every allocation a bench makes, and a path string would make those
  // counts depend on where the checkout lives.
  char path[4096];
  const int length = std::snprintf(path, sizeof(path), "%s/examples/scenarios/%s",
                                   DCC_SOURCE_DIR, name.c_str());
  std::FILE* file = length > 0 && static_cast<size_t>(length) < sizeof(path)
                        ? std::fopen(path, "rb")
                        : nullptr;
  if (file == nullptr) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    std::abort();
  }
  std::string text;
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), file)) > 0;) {
    text.append(buffer, n);
  }
  std::fclose(file);
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::ParseScenarioSpec(text, &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    std::abort();
  }
  return spec;
}

scenario::ScenarioOutcome MustRunSpec(const scenario::ScenarioSpec& spec,
                                      const scenario::EngineHooks& hooks) {
  scenario::ScenarioOutcome outcome;
  std::string error;
  if (!scenario::RunScenarioSpec(spec, hooks, &outcome, &error)) {
    std::fprintf(stderr, "scenario '%s': %s\n", spec.name.c_str(),
                 error.c_str());
    std::abort();
  }
  return outcome;
}

const std::vector<BenchInfo>& AllBenches() {
  static const std::vector<BenchInfo> benches = {
      {"fig2_rl_measurement", "Rate limits measured on a 45-resolver population",
       &RunFig2RlMeasurement},
      {"fig4_validation", "Attack validation: benign success vs attacker QPS",
       &RunFig4Validation},
      {"fig8_resilience", "Client dynamics under adversarial congestion",
       &RunFig8Resilience},
      {"fig9_signaling", "Signaling on a forwarder -> resolver path",
       &RunFig9Signaling},
      {"fig10_overhead", "CPU load and memory usage of DCC vs vanilla",
       &RunFig10Overhead},
      {"fig11_latency", "Processing delay, vanilla vs DCC-enabled resolver",
       &RunFig11Latency},
      {"ablation_fairness", "MOPI-FQ vs analytic max-min fair allocations",
       &RunAblationFairness},
      {"ablation_schedulers", "Scheduler design-space ablation",
       &RunAblationSchedulers},
      {"ablation_nsec", "Aggressive NSEC caching vs the NX pattern",
       &RunAblationNsec},
      {"fleet", "Fleet frontend failover under member blackout",
       &RunFleet},
  };
  return benches;
}

const BenchInfo* FindBench(std::string_view name) {
  for (const BenchInfo& bench : AllBenches()) {
    if (name == bench.name) {
      return &bench;
    }
  }
  return nullptr;
}

}  // namespace bench
}  // namespace dcc
