// Tests for the dcc_bench report format and regression comparison.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"

namespace dcc {
namespace bench {
namespace {

BenchReport MakeBench(const std::string& name, double wall_ms,
                      uint64_t sim_events, int64_t rss_delta_kb, int exit_code = 0) {
  BenchReport report;
  report.name = name;
  report.metrics.wall_ms = wall_ms;
  report.metrics.sim_events = sim_events;
  report.metrics.events_per_sec =
      wall_ms > 0 ? static_cast<double>(sim_events) / (wall_ms / 1000.0) : 0;
  report.metrics.peak_rss_delta_kb = rss_delta_kb;
  report.metrics.event_heap_max = 1000 + sim_events % 997;
  report.metrics.client_queries = sim_events / 10;
  report.metrics.allocs = 3 * sim_events + 11;
  report.metrics.alloc_bytes = 200 * sim_events + 4096;
  report.metrics.exit_code = exit_code;
  return report;
}

SuiteReport MakeSuite() {
  SuiteReport suite;
  suite.quick = true;
  suite.toolchain = "gcc 12.2.0";
  suite.benches.push_back(MakeBench("fig8_resilience", 3800.0, 2268024, 58000));
  suite.benches.push_back(MakeBench("ablation_nsec", 131.5, 149124, 39000));
  return suite;
}

TEST(BenchReportTest, JsonRoundTrips) {
  const SuiteReport suite = MakeSuite();
  const std::string json = RenderJson(suite);
  SuiteReport parsed;
  ASSERT_TRUE(ParseReportJson(json, &parsed));
  EXPECT_EQ(parsed.quick, suite.quick);
  EXPECT_EQ(parsed.toolchain, suite.toolchain);
  ASSERT_EQ(parsed.benches.size(), suite.benches.size());
  for (size_t i = 0; i < suite.benches.size(); ++i) {
    EXPECT_EQ(parsed.benches[i].name, suite.benches[i].name);
    EXPECT_NEAR(parsed.benches[i].metrics.wall_ms,
                suite.benches[i].metrics.wall_ms, 0.01);
    EXPECT_EQ(parsed.benches[i].metrics.sim_events,
              suite.benches[i].metrics.sim_events);
    EXPECT_EQ(parsed.benches[i].metrics.peak_rss_delta_kb,
              suite.benches[i].metrics.peak_rss_delta_kb);
    EXPECT_EQ(parsed.benches[i].metrics.event_heap_max,
              suite.benches[i].metrics.event_heap_max);
    EXPECT_EQ(parsed.benches[i].metrics.client_queries,
              suite.benches[i].metrics.client_queries);
    EXPECT_EQ(parsed.benches[i].metrics.allocs,
              suite.benches[i].metrics.allocs);
    EXPECT_EQ(parsed.benches[i].metrics.alloc_bytes,
              suite.benches[i].metrics.alloc_bytes);
    EXPECT_EQ(parsed.benches[i].metrics.exit_code,
              suite.benches[i].metrics.exit_code);
  }
}

TEST(BenchReportTest, PerQueryAllocationsAreDerivedAndNullWithoutQueries) {
  SuiteReport suite;
  suite.quick = true;
  BenchReport with = MakeBench("fleet", 80.0, 1000, 3000);
  with.metrics.client_queries = 40;
  with.metrics.allocs = 1000;
  with.metrics.alloc_bytes = 50000;
  suite.benches.push_back(with);
  BenchReport without = MakeBench("fig10_overhead", 400.0, 1000, 3000);
  without.metrics.client_queries = 0;
  suite.benches.push_back(without);
  const std::string json = RenderJson(suite);
  EXPECT_NE(json.find("\"allocs_per_query\": 25.00, \"alloc_bytes_per_query\": 1250.0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"allocs_per_query\": null, \"alloc_bytes_per_query\": null"),
            std::string::npos)
      << json;
  SuiteReport parsed;
  ASSERT_TRUE(ParseReportJson(json, &parsed));
  EXPECT_EQ(parsed.benches[0].metrics.allocs, 1000u);
  EXPECT_EQ(parsed.benches[1].metrics.client_queries, 0u);
}

TEST(BenchReportTest, ParseRejectsGarbage) {
  SuiteReport parsed;
  EXPECT_FALSE(ParseReportJson("", &parsed));
  EXPECT_FALSE(ParseReportJson("not json", &parsed));
  EXPECT_FALSE(ParseReportJson("{\"suite\":\"something_else\"}", &parsed));
}

TEST(BenchCheckTest, IdenticalReportsPass) {
  const SuiteReport suite = MakeSuite();
  EXPECT_TRUE(CompareReports(suite, suite, Tolerances{}).empty());
}

TEST(BenchCheckTest, SpeedupAndSmallNoisePass) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.wall_ms *= 0.5;   // Faster never fails.
  current.benches[1].metrics.wall_ms *= 1.10;  // Within the 15% slack.
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}).empty());
}

TEST(BenchCheckTest, WallSlowdownBeyondSlackFails) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.wall_ms *= 1.20;
  const std::vector<std::string> violations =
      CompareReports(current, baseline, Tolerances{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("fig8_resilience"), std::string::npos);
  EXPECT_NE(violations[0].find("wall_ms"), std::string::npos);
}

TEST(BenchCheckTest, SimEventDriftFailsInBothDirections) {
  const SuiteReport baseline = MakeSuite();
  for (double factor : {0.9, 1.1}) {
    SuiteReport current = MakeSuite();
    current.benches[0].metrics.sim_events = static_cast<uint64_t>(
        static_cast<double>(current.benches[0].metrics.sim_events) * factor);
    const std::vector<std::string> violations =
        CompareReports(current, baseline, Tolerances{});
    ASSERT_EQ(violations.size(), 1u) << "factor " << factor;
    EXPECT_NE(violations[0].find("sim_events"), std::string::npos);
  }
  // The simulator is deterministic: one event either way is a failure.
  for (int delta : {-1, 1}) {
    SuiteReport current = MakeSuite();
    current.benches[0].metrics.sim_events += delta;
    const std::vector<std::string> violations =
        CompareReports(current, baseline, Tolerances{});
    ASSERT_EQ(violations.size(), 1u) << "delta " << delta;
    EXPECT_NE(violations[0].find("sim_events"), std::string::npos);
  }
}

TEST(BenchCheckTest, RssGrowthBeyondSlackFails) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[1].metrics.peak_rss_delta_kb *= 2;
  const std::vector<std::string> violations =
      CompareReports(current, baseline, Tolerances{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("peak_rss_delta_kb"), std::string::npos);
}

TEST(BenchCheckTest, FailedBenchIsAViolation) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.exit_code = 1;
  const std::vector<std::string> violations =
      CompareReports(current, baseline, Tolerances{});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("exit"), std::string::npos);
}

TEST(BenchCheckTest, MissingBenchesFailBothDirections) {
  const SuiteReport full = MakeSuite();
  SuiteReport partial = MakeSuite();
  partial.benches.pop_back();

  // A bench present in the baseline but absent from the run: regression.
  const std::vector<std::string> dropped =
      CompareReports(partial, full, Tolerances{});
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_NE(dropped[0].find("ablation_nsec"), std::string::npos);

  // A new bench with no baseline row: the baseline needs a refresh.
  const std::vector<std::string> added =
      CompareReports(full, partial, Tolerances{});
  ASSERT_EQ(added.size(), 1u);
  EXPECT_NE(added[0].find("ablation_nsec"), std::string::npos);
}

TEST(BenchCheckTest, QuickFullModeMismatchFails) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.quick = false;
  const std::vector<std::string> violations =
      CompareReports(current, baseline, Tolerances{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("quick"), std::string::npos);
}

TEST(BenchCheckTest, TinyBenchWallNoiseIsBelowTheFloor) {
  // 131 ms -> 170 ms is ~30% relative but under the 250 ms absolute floor:
  // scheduler noise, not a regression. sim_events still gates the bench.
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[1].metrics.wall_ms = 170.0;
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}).empty());
}

TEST(BenchReportTest, ZeroSimEventsRendersNullRateAndRoundTrips) {
  SuiteReport suite;
  suite.quick = true;
  suite.benches.push_back(MakeBench("fig10_overhead", 420.0, 0, 12000));
  const std::string json = RenderJson(suite);
  // No sim ran: the rate is null, not a misleading 0.0.
  EXPECT_NE(json.find("\"events_per_sec\": null"), std::string::npos);
  EXPECT_EQ(json.find("\"events_per_sec\": 0.0"), std::string::npos);
  SuiteReport parsed;
  ASSERT_TRUE(ParseReportJson(json, &parsed));
  ASSERT_EQ(parsed.benches.size(), 1u);
  EXPECT_EQ(parsed.benches[0].metrics.sim_events, 0u);
  EXPECT_EQ(parsed.benches[0].metrics.events_per_sec, 0.0);
}

TEST(BenchCheckTest, ZeroEventBaselineSkipsWithNote) {
  SuiteReport baseline;
  baseline.quick = true;
  baseline.benches.push_back(MakeBench("fig10_overhead", 400.0, 0, 12000));
  SuiteReport current = baseline;
  current.benches[0].metrics.sim_events = 123456;  // Would be huge drift.
  std::vector<std::string> notes;
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}, &notes).empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("fig10_overhead"), std::string::npos);
  EXPECT_NE(notes[0].find("skipped"), std::string::npos);
}

TEST(BenchCheckTest, RssGrowthUnderAbsoluteFloorPasses) {
  // 2 MB -> 5 MB is +150% relative but only 3 MB absolute — below the 4 MB
  // floor, so it's allocator noise, not a regression.
  SuiteReport baseline;
  baseline.quick = true;
  baseline.benches.push_back(MakeBench("tiny", 100.0, 1000, 2048));
  SuiteReport current = baseline;
  current.benches[0].metrics.peak_rss_delta_kb = 5120;
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}).empty());
  // The same relative growth above the floor fails.
  current.benches[0].metrics.peak_rss_delta_kb = 2048 + 8192;
  EXPECT_FALSE(CompareReports(current, baseline, Tolerances{}).empty());
}

TEST(BenchCheckTest, EventHeapHighWaterMayNotRise) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.event_heap_max -= 100;  // Lower never fails.
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}).empty());
  current.benches[0].metrics.event_heap_max =
      baseline.benches[0].metrics.event_heap_max + 1;
  const std::vector<std::string> violations =
      CompareReports(current, baseline, Tolerances{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("event_heap_max"), std::string::npos);
  EXPECT_NE(violations[0].find("fig8_resilience"), std::string::npos);
}

TEST(BenchCheckTest, AllocationsMayNotRise) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport fewer = MakeSuite();
  fewer.benches[1].metrics.allocs -= 10;
  fewer.benches[1].metrics.alloc_bytes -= 10;
  EXPECT_TRUE(CompareReports(fewer, baseline, Tolerances{}).empty());
  SuiteReport more_calls = MakeSuite();
  more_calls.benches[1].metrics.allocs += 1;
  SuiteReport more_bytes = MakeSuite();
  more_bytes.benches[1].metrics.alloc_bytes += 1;
  for (const SuiteReport& current : {more_calls, more_bytes}) {
    const std::vector<std::string> violations =
        CompareReports(current, baseline, Tolerances{});
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("allocations"), std::string::npos);
    EXPECT_NE(violations[0].find("ablation_nsec"), std::string::npos);
  }
}

TEST(BenchCheckTest, AllocationsCompareOnlyWithinOneToolchainAndWhenAsked) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.allocs *= 2;
  current.toolchain = "gcc 13.2.0";
  std::vector<std::string> notes;
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}, &notes).empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("toolchain"), std::string::npos);

  current.toolchain = baseline.toolchain;
  EXPECT_FALSE(CompareReports(current, baseline, Tolerances{}).empty());
  Tolerances profiled;
  profiled.allocations = false;
  notes.clear();
  EXPECT_TRUE(CompareReports(current, baseline, profiled, &notes).empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("allocation check skipped"), std::string::npos);
}

TEST(BenchCheckTest, BaselineWithoutHeapOrAllocationsSkipsWithNotes) {
  SuiteReport baseline = MakeSuite();
  baseline.benches.pop_back();
  baseline.benches[0].metrics.event_heap_max = 0;
  baseline.benches[0].metrics.allocs = 0;
  SuiteReport current = baseline;
  current.benches[0].metrics.event_heap_max = 5000;
  current.benches[0].metrics.allocs = 5000;
  std::vector<std::string> notes;
  EXPECT_TRUE(CompareReports(current, baseline, Tolerances{}, &notes).empty());
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_NE(notes[0].find("event_heap_max"), std::string::npos);
  EXPECT_NE(notes[1].find("allocation"), std::string::npos);
}

TEST(BenchCheckTest, WallSlackIsTunable) {
  const SuiteReport baseline = MakeSuite();
  SuiteReport current = MakeSuite();
  current.benches[0].metrics.wall_ms *= 1.4;
  Tolerances loose;
  loose.wall_slack = 0.5;
  EXPECT_TRUE(CompareReports(current, baseline, loose).empty());
  EXPECT_FALSE(CompareReports(current, baseline, Tolerances{}).empty());
}

}  // namespace
}  // namespace bench
}  // namespace dcc
