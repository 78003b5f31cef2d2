// Fig. 2 — rate limits measured on a 45-resolver population.
//
// Rebuilds the paper's measurement study (§2.2.1, Appendix A) against a
// synthetic population whose ground-truth limits are drawn to match the
// published distribution: each resolver is probed with the WC and NX
// patterns for ingress limits (up to 5000 QPS) and with the CQ and FF
// amplification patterns for egress limits (request rate capped at the
// ingress limit or 1000 QPS), classifying each estimate into the figure's
// buckets. The ground truth lets us also validate the methodology itself.

#include <cstdio>

#include "bench/benches.h"
#include "src/measure/rate_limit_probe.h"

namespace dcc {
namespace {

void PrintHistogram(const Fig2Histogram& histogram) {
  static const char* kSeries[] = {"IRL WC", "IRL NX", "ERL CQ", "ERL FF"};
  std::printf("\n%-10s", "range");
  for (const char* series : kSeries) {
    std::printf("%10s", series);
  }
  std::printf("\n");
  for (int bucket = 0; bucket < 5; ++bucket) {
    std::printf("%-10s", QpsBucketName(static_cast<QpsBucket>(bucket)));
    for (int series = 0; series < 4; ++series) {
      std::printf("%10d", histogram.counts[series][bucket]);
    }
    std::printf("\n");
  }
}

}  // namespace

namespace bench {

int RunFig2RlMeasurement(const BenchOptions& options) {
  std::printf("Fig. 2 — ingress/egress rate limits measured on 45 synthetic\n");
  std::printf("public resolvers (WC/NX ingress probing to 5000 QPS; CQ/FF\n");
  std::printf("amplification egress probing)\n\n");
  std::printf("%-6s %10s %10s %10s | %10s %10s %10s %10s\n", "name", "true-IRL",
              "true-NX", "true-ERL", "IRL-WC", "IRL-NX", "ERL-CQ", "ERL-FF");

  auto population = dcc::MakeFig2Population(/*seed=*/2024);
  if (options.quick && population.size() > 6) {
    population.resize(6);
  }
  dcc::ProbeConfig config;
  config.step_duration = dcc::Seconds(2);
  std::vector<dcc::MeasuredLimits> measurements;
  // Every resolver is probed against the same zones, built once.
  dcc::ProbeZones zones;
  for (size_t i = 0; i < population.size(); ++i) {
    const auto& profile = population[i];
    const dcc::MeasuredLimits limits =
        dcc::ProbeResolver(profile, config, 100 + i, &zones);
    measurements.push_back(limits);
    auto fmt = [](double qps, bool uncertain) {
      static char buf[32];
      if (uncertain) {
        std::snprintf(buf, sizeof(buf), "?");
      } else {
        std::snprintf(buf, sizeof(buf), "%.0f", qps);
      }
      return buf;
    };
    std::printf("%-6s %10.0f %10.0f %10.0f |", profile.name.c_str(),
                profile.irl_noerror_qps, profile.irl_nxdomain_qps,
                profile.egress_qps);
    std::printf(" %10s", fmt(limits.irl_wc, limits.irl_wc_uncertain));
    std::printf(" %10s", fmt(limits.irl_nx, limits.irl_nx_uncertain));
    std::printf(" %10s", fmt(limits.erl_cq, limits.erl_cq_uncertain));
    std::printf(" %10s\n", fmt(limits.erl_ff, limits.erl_ff_uncertain));
    std::fflush(stdout);
  }

  dcc::PrintHistogram(dcc::BuildFig2Histogram(measurements));
  return 0;
}

}  // namespace bench
}  // namespace dcc
