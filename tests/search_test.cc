// Tests for the adversarial scenario search (src/search): mutation
// determinism and validity, JSON round-trip of mutated specs replaying
// event-for-event, minimizer monotonicity, thread-count invariance of a tiny
// seeded search (including the corpus bytes it writes), and the acceptance
// check for the committed corpus under examples/scenarios/found/ — every
// find must replay to its recorded score/event count and beat all four
// Fig. 8 seed baselines on worst benign-client success ratio.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"
#include "src/search/corpus.h"
#include "src/search/mutation.h"
#include "src/search/objective.h"
#include "src/search/search.h"

namespace dcc {
namespace search {
namespace {

// Short-horizon seeds keep each simulated candidate cheap.
std::vector<SeedSpec> TestSeeds() { return DefaultSeedSpecs(Seconds(8), 1); }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(MutationTest, EveryOperatorIsDeterministicAndValidityPreserving) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  size_t applied = 0;
  for (const SeedSpec& seed : seeds) {
    for (int op = 0; op < kNumMutationOps; ++op) {
      for (uint64_t step_seed = 1; step_seed <= 3; ++step_seed) {
        const MutationStep step{static_cast<MutationOp>(op), step_seed};
        scenario::ScenarioSpec a = seed.spec;
        scenario::ScenarioSpec b = seed.spec;
        std::string error_a;
        std::string error_b;
        const bool ok_a = ApplyMutation(&a, step, &error_a);
        const bool ok_b = ApplyMutation(&b, step, &error_b);
        // Same (parent, op, seed) must behave identically...
        ASSERT_EQ(ok_a, ok_b) << FormatMutationStep(step);
        if (!ok_a) {
          EXPECT_EQ(error_a, error_b);
          continue;  // Unmet precondition (e.g. no fault events) is fine.
        }
        ++applied;
        // ...produce byte-identical offspring...
        EXPECT_EQ(scenario::WriteScenarioSpec(a), scenario::WriteScenarioSpec(b))
            << FormatMutationStep(step);
        // ...which re-validate unchanged (ApplyMutation validated once).
        std::string error;
        scenario::ScenarioSpec again = a;
        ASSERT_TRUE(scenario::ValidateScenarioSpec(&again, &error)) << error;
        EXPECT_EQ(scenario::WriteScenarioSpec(again),
                  scenario::WriteScenarioSpec(a));
      }
    }
  }
  // The operator suite must actually exercise mutations, not just bail.
  EXPECT_GT(applied, 20u);
}

TEST(MutationTest, StepFormatRoundTrips) {
  for (int op = 0; op < kNumMutationOps; ++op) {
    const MutationStep step{static_cast<MutationOp>(op), 987654321123456789ull};
    MutationStep parsed;
    ASSERT_TRUE(ParseMutationStep(FormatMutationStep(step), &parsed));
    EXPECT_EQ(parsed.op, step.op);
    EXPECT_EQ(parsed.seed, step.seed);
  }
  MutationStep parsed;
  EXPECT_FALSE(ParseMutationStep("attacker_qps", &parsed));
  EXPECT_FALSE(ParseMutationStep("bogus:1", &parsed));
  EXPECT_FALSE(ParseMutationStep("attacker_qps:12x", &parsed));
}

TEST(MutationTest, MutatedSpecJsonRoundTripReplaysEventForEvent) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  // A lineage touching clients, zones and the network.
  const std::vector<MutationStep> lineage = {
      {MutationOp::kCloneAttacker, 7},
      {MutationOp::kAttackerQps, 8},
      {MutationOp::kNetwork, 9},
  };
  scenario::ScenarioSpec mutated;
  std::string error;
  ASSERT_TRUE(ApplyLineage(seeds[0].spec, lineage, &mutated, &error)) << error;

  scenario::ScenarioOutcome direct;
  ASSERT_TRUE(scenario::RunScenarioSpec(mutated, scenario::EngineHooks{},
                                        &direct, &error))
      << error;

  const std::string json = scenario::WriteScenarioSpec(mutated);
  scenario::ScenarioSpec reloaded;
  ASSERT_TRUE(scenario::ParseScenarioSpec(json, &reloaded, &error)) << error;
  scenario::ScenarioOutcome replayed;
  ASSERT_TRUE(scenario::RunScenarioSpec(reloaded, scenario::EngineHooks{},
                                        &replayed, &error))
      << error;

  EXPECT_EQ(direct.events_executed, replayed.events_executed);
  const ScoreBreakdown a = ScoreOutcome(mutated, direct);
  const ScoreBreakdown b = ScoreOutcome(reloaded, replayed);
  EXPECT_EQ(a.composite, b.composite);
  EXPECT_EQ(a.benign_worst, b.benign_worst);
}

TEST(MinimizeTest, NeverScoresBelowTheInput) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  Candidate candidate;
  candidate.base_index = 0;
  // Pad the lineage with steps unlikely to all matter.
  candidate.lineage = {
      {MutationOp::kNetwork, 3},
      {MutationOp::kAttackerQps, 4},
      {MutationOp::kNetwork, 5},
      {MutationOp::kAttackerRamp, 6},
  };
  std::string error;
  Candidate input = candidate;
  ASSERT_TRUE(
      EvaluateCandidate(seeds, &input, Objective::kBenignWorst, &error))
      << error;

  Candidate minimized = candidate;
  ASSERT_TRUE(MinimizeCandidate(seeds, Objective::kBenignWorst, &minimized,
                                &error))
      << error;
  EXPECT_GE(minimized.score, input.score);
  EXPECT_LE(minimized.lineage.size(), input.lineage.size());
}

TEST(SearchTest, TinySeededSearchIsThreadCountInvariant) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  SearchOptions options;
  options.objective = Objective::kComposite;
  options.seed = 1;
  options.budget = 10;
  options.offspring = 6;
  options.threads = 1;
  const SearchResult serial = RunEvolutionSearch(seeds, options);
  options.threads = 3;
  const SearchResult parallel = RunEvolutionSearch(seeds, options);

  ASSERT_FALSE(serial.ranked.empty());
  ASSERT_EQ(serial.ranked.size(), parallel.ranked.size());
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.rejected_offspring, parallel.rejected_offspring);
  for (size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].score, parallel.ranked[i].score) << i;
    EXPECT_EQ(serial.ranked[i].order, parallel.ranked[i].order) << i;
    EXPECT_EQ(serial.ranked[i].events_executed,
              parallel.ranked[i].events_executed)
        << i;
  }

  // The corpus bytes both runs would commit are identical too.
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/search_test_corpus_a.json";
  const std::string path_b = dir + "/search_test_corpus_b.json";
  std::string error;
  ASSERT_TRUE(WriteCorpusEntry(path_a, serial.ranked.front(),
                               options.objective, &error))
      << error;
  ASSERT_TRUE(WriteCorpusEntry(path_b, parallel.ranked.front(),
                               options.objective, &error))
      << error;
  EXPECT_EQ(ReadFileOrDie(path_a), ReadFileOrDie(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SearchTest, RandomSearchRespectsBudgetAndRanksSeeds) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  SearchOptions options;
  options.seed = 2;
  options.budget = 8;
  options.offspring = 4;
  const SearchResult result = RunRandomSearch(seeds, options);
  EXPECT_EQ(result.evaluations, options.budget);
  EXPECT_EQ(result.ranked.size() + result.rejected_offspring,
            result.evaluations);
  // Ranked best-first.
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_GE(result.ranked[i - 1].score, result.ranked[i].score);
  }
}

TEST(CorpusTest, WriteReplayCheckDetectsDrift) {
  const std::vector<SeedSpec> seeds = TestSeeds();
  Candidate candidate;
  candidate.base_index = 0;
  candidate.lineage = {{MutationOp::kAttackerQps, 11}};
  std::string error;
  ASSERT_TRUE(
      EvaluateCandidate(seeds, &candidate, Objective::kBenignWorst, &error))
      << error;

  const std::string path = ::testing::TempDir() + "/search_test_entry.json";
  ASSERT_TRUE(WriteCorpusEntry(path, candidate, Objective::kBenignWorst, &error))
      << error;

  ReplayReport report;
  ASSERT_TRUE(ReplayCorpusFile(path, Objective::kComposite,
                               /*check_identity=*/true, &report, &error))
      << error;
  EXPECT_EQ(report.objective, Objective::kBenignWorst);  // From provenance.
  EXPECT_TRUE(report.identity_ok) << report.detail;
  EXPECT_EQ(report.events_executed, candidate.events_executed);
  EXPECT_EQ(FormatScore(report.score), FormatScore(candidate.score));

  // Tamper with the recorded score; the check must notice.
  std::string contents = ReadFileOrDie(path);
  const size_t pos = contents.find("score=");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 6] = contents[pos + 6] == '9' ? '8' : '9';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
  ASSERT_TRUE(ReplayCorpusFile(path, Objective::kComposite, true, &report,
                               &error))
      << error;
  EXPECT_FALSE(report.identity_ok);
  std::remove(path.c_str());
}

// Acceptance for the committed corpus: every find replays to its recorded
// identity, and its worst benign-client success ratio is strictly lower than
// all four Fig. 8 seed scenarios at the same horizon and run seed.
TEST(FoundCorpusTest, CommittedFindsBeatEveryLegacyBaseline) {
  const std::string dir =
      std::string(DCC_SOURCE_DIR) + "/examples/scenarios/found";
  const std::vector<std::string> files = ListCorpusFiles(dir);
  ASSERT_FALSE(files.empty()) << "no committed corpus under " << dir;
  for (const std::string& file : files) {
    ReplayReport report;
    std::string error;
    ASSERT_TRUE(ReplayCorpusFile(file, Objective::kBenignWorst,
                                 /*check_identity=*/true, &report, &error))
        << file << ": " << error;
    EXPECT_TRUE(report.has_recorded) << file;
    EXPECT_TRUE(report.identity_ok) << file << ": " << report.detail;

    scenario::ScenarioSpec spec;
    ASSERT_TRUE(scenario::LoadScenarioSpecFile(file, &spec, &error)) << error;
    const std::vector<SeedSpec> baselines =
        DefaultSeedSpecs(spec.horizon, spec.seed);
    for (const SeedSpec& baseline : baselines) {
      Candidate seed_run;
      seed_run.base_index = &baseline - baselines.data();
      ASSERT_TRUE(EvaluateCandidate(baselines, &seed_run,
                                    Objective::kBenignWorst, &error))
          << baseline.name << ": " << error;
      EXPECT_LT(report.breakdown.collateral.worst_ratio,
                seed_run.breakdown.collateral.worst_ratio)
          << file << " does not beat seed " << baseline.name;
    }
  }
}

}  // namespace
}  // namespace search
}  // namespace dcc
