// Fig. 4 — empirical validation of adversarial congestion (§2.3).
//
// Reproduces the four resolution setups of Fig. 3 with vanilla (non-DCC)
// servers and 100-QPS inter-server channels, sweeping the attacker's request
// rate and reporting the benign clients' average request success ratio:
//   (a) one resolver, two redundant authoritative servers, FF amplification;
//   (b) two redundant resolvers (clients retry across them), FF;
//   (c) a forwarder in front of an upstream resolver, WC pattern at rates
//       around the RR channel capacity;
//   (d) a large resolver system load-balancing over 4/16/25 egresses, FF.
// Each setup is examples/scenarios/fig4_{a,b,c,d}.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/benches.h"

namespace dcc {
namespace {

using scenario::NodeSpec;
using scenario::ScenarioSpec;

// Setup (d) only: grows the forwarder's egress pool r0..r3, the last nodes
// of fig4_d.json, to `count` identical resolvers.
void SetEgressCount(ScenarioSpec* spec, int count) {
  NodeSpec egress = spec->nodes.back();
  NodeSpec& fwd = *std::find_if(spec->nodes.begin(), spec->nodes.end(),
                                [](const NodeSpec& node) { return node.id == "fwd"; });
  const int have = static_cast<int>(fwd.upstreams.size());
  for (int i = have; i < count; ++i) {
    fwd.upstreams.push_back("r" + std::to_string(i));
  }
  for (int i = have; i < count; ++i) {
    egress.id = "r" + std::to_string(i);
    spec->nodes.push_back(egress);
  }
}

// One point of the Fig. 4 sweep: the attacker (client 0) at `attacker_qps`
// and run seed `seed`, with the client generator seeds pinned as the
// figure's runs pinned them (attacker 31·seed, benign i 1000·seed + i).
ScenarioSpec Fig4Point(ScenarioSpec spec, double attacker_qps, uint64_t seed) {
  spec.seed = seed;
  spec.clients[0].qps = attacker_qps;
  spec.clients[0].seed = seed * 31;
  for (size_t i = 1; i < spec.clients.size(); ++i) {
    spec.clients[i].seed = seed * 1000 + (i - 1);
  }
  return spec;
}

struct Fig4Result {
  double benign_success_ratio = 0;
  double attacker_success_ratio = 0;
  double ans_peak_qps = 0;
};

Fig4Result Reshape(const scenario::ScenarioOutcome& outcome) {
  Fig4Result result;
  uint64_t ok = 0;
  uint64_t total = 0;
  for (const scenario::ClientOutcome& client : outcome.clients) {
    if (client.is_attacker) {
      result.attacker_success_ratio = client.success_ratio;
      continue;
    }
    ok += client.succeeded;
    total += client.succeeded + client.failed;
  }
  result.benign_success_ratio =
      total > 0 ? static_cast<double>(ok) / static_cast<double>(total) : 0;
  for (const scenario::AnsOutcome& ans : outcome.ans) {
    result.ans_peak_qps = std::max(result.ans_peak_qps, ans.peak_qps);
  }
  return result;
}

void Sweep(const char* title, const char* file,
           const std::vector<double>& attacker_rates, int seeds,
           int egress_count = 0) {
  ScenarioSpec setup = bench::LoadExampleSpec(file);
  if (egress_count > 0) {
    SetEgressCount(&setup, egress_count);
  }
  std::printf("\n--- %s (channel %.0f QPS", title,
              setup.nodes[0].auth.rrl.noerror_qps);
  if (egress_count > 0) {
    std::printf(", %d egresses", egress_count);
  }
  std::printf(") ---\n");
  std::printf("%-14s %-16s %-16s %-12s\n", "attacker QPS", "benign success",
              "attacker success", "ANS peak QPS");
  for (double rate : attacker_rates) {
    // Average over several seeds: the punitive-RRL dynamics make single runs
    // noisy, exactly as the paper's cloud measurements were.
    Fig4Result mean;
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
      const Fig4Result result =
          Reshape(bench::MustRunSpec(Fig4Point(setup, rate, seed)));
      mean.benign_success_ratio += result.benign_success_ratio / seeds;
      mean.attacker_success_ratio += result.attacker_success_ratio / seeds;
      mean.ans_peak_qps += result.ans_peak_qps / seeds;
    }
    std::printf("%-14.0f %-16.2f %-16.2f %-12.0f\n", rate,
                mean.benign_success_ratio, mean.attacker_success_ratio,
                mean.ans_peak_qps);
    std::fflush(stdout);
  }
}

}  // namespace

namespace bench {

int RunFig4Validation(const BenchOptions& options) {
  std::printf("Fig. 4 — attack validation: benign request success ratio vs\n");
  std::printf("attacker QPS (vanilla resolvers, 100-QPS channels, FF MAF ~50)\n");

  const int seeds = options.quick ? 1 : 3;
  const std::vector<double> ff_rates =
      options.quick ? std::vector<double>{2, 5, 8}
                    : std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8};
  Sweep("(a) redundant authoritative servers", "fig4_a.json", ff_rates, seeds);
  Sweep("(b) redundant resolvers", "fig4_b.json", ff_rates, seeds);
  const std::vector<double> wc_rates =
      options.quick ? std::vector<double>{80, 110}
                    : std::vector<double>{60, 70, 80, 90, 100, 110, 120, 130};
  Sweep("(c) forwarding resolver", "fig4_c.json", wc_rates, seeds);
  const std::vector<double> lr_rates =
      options.quick ? std::vector<double>{10, 30, 50}
                    : std::vector<double>{5, 10, 15, 20, 25, 30, 35, 40, 45, 50};
  for (int egresses : options.quick ? std::vector<int>{4}
                                    : std::vector<int>{4, 16, 25}) {
    Sweep("(d) large resolver system", "fig4_d.json", lr_rates, seeds, egresses);
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
