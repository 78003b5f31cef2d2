// Ablation: MOPI-FQ allocations vs the analytic water-filling reference
// (Theorem B.1 / Fig. 14), including weighted shares (Appendix B.1.3).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/benches.h"
#include "src/dcc/mopi_fq.h"
#include "src/sim/event_loop.h"

namespace dcc {
namespace {

struct Case {
  std::string label;
  double capacity;
  std::vector<double> demands;
  std::vector<double> shares;  // Empty = equal.
};

std::vector<double> RunMopi(const Case& test_case) {
  MopiFqConfig config;
  config.default_channel_qps = test_case.capacity;
  config.channel_burst = 4;
  MopiFq fq(config);
  if (!test_case.shares.empty()) {
    for (size_t s = 0; s < test_case.shares.size(); ++s) {
      fq.SetSourceShare(static_cast<SourceId>(s + 1), test_case.shares[s]);
    }
  }
  const Duration horizon = Seconds(30);
  std::map<Time, std::vector<SourceId>> arrivals;
  for (size_t s = 0; s < test_case.demands.size(); ++s) {
    const auto interval =
        static_cast<Duration>(static_cast<double>(kSecond) / test_case.demands[s]);
    for (Time t = static_cast<Time>(s); t < horizon; t += interval) {
      arrivals[t].push_back(static_cast<SourceId>(s + 1));
    }
  }
  std::vector<double> delivered(test_case.demands.size(), 0);
  // Each arrival instant is one event-loop tick: drain whatever the channel
  // released since the previous tick, then enqueue this tick's arrivals.
  // Driving the workload through the loop makes the run visible to the
  // bench harness's sim_events counter.
  EventLoop loop;
  Time now = 0;
  for (const auto& [t, sources] : arrivals) {
    const std::vector<SourceId>* batch = &sources;
    loop.ScheduleAt(t, "bench.arrival", [&, t, batch]() {
      while (true) {
        const Time ready = fq.NextReadyTime(now);
        if (ready > t) {
          break;
        }
        now = std::max(now, ready);
        auto msg = fq.Dequeue(now);
        if (!msg.has_value()) {
          break;
        }
        delivered[msg->source - 1] += 1;
      }
      now = t;
      for (SourceId s : *batch) {
        fq.Enqueue(SchedMessage{s, 1, now, 0}, now);
      }
    });
  }
  loop.Run();
  for (double& d : delivered) {
    d /= ToSeconds(horizon);
  }
  return delivered;
}

void RunCase(const Case& test_case) {
  const std::vector<double> expected =
      test_case.shares.empty()
          ? WaterFilling(test_case.capacity, test_case.demands)
          : WeightedWaterFilling(test_case.capacity, test_case.demands,
                                 test_case.shares);
  const std::vector<double> measured = RunMopi(test_case);
  std::printf("\n%s (capacity %.0f QPS)\n", test_case.label.c_str(),
              test_case.capacity);
  std::printf("%-10s %10s %10s %10s %10s\n", "source", "demand", "share",
              "WF alloc", "MOPI-FQ");
  for (size_t s = 0; s < test_case.demands.size(); ++s) {
    std::printf("%-10zu %10.1f %10.1f %10.1f %10.1f\n", s + 1,
                test_case.demands[s],
                test_case.shares.empty() ? 1.0 : test_case.shares[s], expected[s],
                measured[s]);
  }
}

}  // namespace

namespace bench {

int RunAblationFairness(const BenchOptions& options) {
  std::printf("MOPI-FQ vs analytic max-min fair (water-filling) allocations\n");
  std::printf("(Theorem B.1; constant-rate sources over one channel, 30 s)\n");
  RunCase({"two equal heavy sources", 100, {300, 300}, {}});
  RunCase({"light + heavy", 100, {10, 400}, {}});
  RunCase({"Fig. 14 staircase", 100, {5, 45, 80, 300}, {}});
  if (!options.quick) {
    RunCase({"Table 2 client mix", 1000, {600, 350, 150, 1100}, {}});
    RunCase({"weighted 2:1:1", 120, {200, 200, 200}, {2, 1, 1}});
    RunCase({"weighted, partially satisfied", 100, {15, 300, 300}, {1, 3, 1}});
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
