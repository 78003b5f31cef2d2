// Test fixtures drawn from the committed scenario specs under
// examples/scenarios/ (the paper's Fig. 4/8/9 and chaos setups), found
// through the DCC_SOURCE_DIR compile definition every test target gets.

#ifndef TESTS_EXAMPLE_SPECS_H_
#define TESTS_EXAMPLE_SPECS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"

namespace dcc {
namespace testing_specs {

inline std::string ExampleSpecPath(const std::string& name) {
  return std::string(DCC_SOURCE_DIR) + "/examples/scenarios/" + name;
}

inline scenario::ScenarioSpec LoadExampleSpec(const std::string& name) {
  scenario::ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(scenario::LoadScenarioSpecFile(ExampleSpecPath(name), &spec, &error))
      << name << ": " << error;
  return spec;
}

// Shortens the run to `horizon` and ends every client schedule there too.
// The engine drains for 3 s past the horizon, so a client whose stop is left
// beyond it keeps sending through the drain.
inline void TrimToHorizon(scenario::ScenarioSpec* spec, Duration horizon) {
  spec->horizon = horizon;
  for (scenario::ClientSpec& client : spec->clients) {
    client.stop = std::min(client.stop, horizon);
  }
}

// The 3 s seeded Fig. 8b slice (NX attacker at 200 QPS) that the profiler
// and audit neutrality gates replay: long enough that the policer, MOPI-FQ
// and anomaly paths all fire, short enough for CI.
inline scenario::ScenarioSpec Fig8NxSlice() {
  scenario::ScenarioSpec spec = LoadExampleSpec("fig8_nx.json");
  spec.horizon = Seconds(3);
  spec.seed = 42;
  spec.clients[3].qps = 200;  // The attacker.
  return spec;
}

// Runs `spec`, failing the calling test when it does not validate.
inline scenario::ScenarioOutcome RunSpec(const scenario::ScenarioSpec& spec,
                                         const scenario::EngineHooks& hooks = {}) {
  scenario::ScenarioOutcome outcome;
  std::string error;
  EXPECT_TRUE(scenario::RunScenarioSpec(spec, hooks, &outcome, &error))
      << spec.name << ": " << error;
  return outcome;
}

}  // namespace testing_specs
}  // namespace dcc

#endif  // TESTS_EXAMPLE_SPECS_H_
