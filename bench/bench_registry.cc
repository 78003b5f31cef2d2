#include "bench/benches.h"

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"

namespace dcc {
namespace bench {

scenario::ScenarioSpec LoadExampleSpec(const std::string& name) {
  const std::string path =
      std::string(DCC_SOURCE_DIR) + "/examples/scenarios/" + name;
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::LoadScenarioSpecFile(path, &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
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
