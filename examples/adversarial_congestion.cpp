// Adversarial congestion demo (paper §2.3, setup of Fig. 3a).
//
// An attacker with a few requests per second of FF-amplified queries chokes
// the 100-QPS channel between a vanilla resolver and the victim's
// authoritative server, knocking out three benign clients — then the same
// attack is repeated against a DCC-enabled resolver. Both topologies are
// committed specs: examples/scenarios/fig4_a.json and fig8_ff.json.
//
// Build & run:  ./build/examples/adversarial_congestion

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"

namespace {

using namespace dcc;

scenario::ScenarioSpec Load(const char* name) {
  const std::string path =
      std::string(DCC_SOURCE_DIR) + "/examples/scenarios/" + name;
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::LoadScenarioSpecFile(path, &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
  return spec;
}

scenario::ScenarioOutcome Run(const scenario::ScenarioSpec& spec) {
  scenario::ScenarioOutcome outcome;
  std::string error;
  if (!scenario::RunScenarioSpec(spec, {}, &outcome, &error)) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error.c_str());
    std::exit(1);
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf("Adversarial congestion on a 100-QPS resolver->ANS channel\n");
  std::printf("(FF amplification, MAF ~50: each attack request costs the\n");
  std::printf(" victim's nameserver ~50 queries)\n\n");

  std::printf("%-14s %-22s %-22s\n", "attacker QPS", "benign success (ratio)",
              "load on victim ANS");
  for (double rate : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    scenario::ScenarioSpec spec = Load("fig4_a.json");
    spec.clients[0].qps = rate > 0 ? rate : 0.001;  // ~0 = baseline.
    const scenario::ScenarioOutcome outcome = Run(spec);
    uint64_t ok = 0;
    uint64_t total = 0;
    for (const scenario::ClientOutcome& client : outcome.clients) {
      if (!client.is_attacker) {
        ok += client.succeeded;
        total += client.succeeded + client.failed;
      }
    }
    double peak = 0;
    for (const scenario::AnsOutcome& ans : outcome.ans) {
      peak = std::max(peak, ans.peak_qps);
    }
    std::printf("%-14.0f %-22.2f %-22.0f\n", rate,
                total > 0 ? static_cast<double>(ok) / total : 0.0, peak);
  }

  std::printf("\nSame attack against a DCC-enabled resolver (channel 1000 QPS,\n");
  std::printf("attacker 50 QPS, Table 2 benign mix):\n\n");
  for (bool dcc_enabled : {false, true}) {
    scenario::ScenarioSpec spec = Load("fig8_ff.json");
    for (scenario::NodeSpec& node : spec.nodes) {
      node.dcc_enabled = node.dcc_enabled && dcc_enabled;
    }
    const scenario::ScenarioOutcome outcome = Run(spec);
    std::printf("%-22s", dcc_enabled ? "DCC-enabled resolver:" : "vanilla resolver:");
    for (const auto& client : outcome.clients) {
      std::printf("  %s=%.2f", client.label.c_str(), client.success_ratio);
    }
    if (dcc_enabled) {
      std::printf("  (attacker convicted %llu times, %llu queries policed)",
                  (unsigned long long)outcome.dcc_convictions,
                  (unsigned long long)outcome.dcc_policed_drops);
    }
    std::printf("\n");
  }
  return 0;
}
