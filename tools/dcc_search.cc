// dcc_search — automated adversarial scenario search over ScenarioSpec
// genomes.
//
//   dcc_search search [--objective O] [--strategy random|evolve] [--seed N]
//                     [--budget N] [--threads N] [--horizon SECONDS]
//                     [--population N] [--offspring N] [--top N]
//                     [--out DIR] [--no-minimize]
//   dcc_search score  --spec FILE [--objective O]
//   dcc_search replay --corpus DIR [--check] [--objective O]
//
// `search` evaluates the four §5.1 attack scenarios
// (examples/scenarios/fig8_{wc,nx,cq,ff}.json) as seeds and baselines,
// explores mutations of them, and prints the ranked worst cases with a
// field-level diff against the seed each one grew from.
// With --out, the best candidate is minimized (greedy revert-toward-parent)
// and written as a provenance-stamped spec the `replay` subcommand — and CI —
// can re-run and check byte-for-byte.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/scenario/spec_diff.h"
#include "src/search/corpus.h"
#include "src/search/mutation.h"
#include "src/search/objective.h"
#include "src/search/search.h"
#include "tools/cli.h"

namespace {

using namespace dcc;

using cli::FlagDouble;
using cli::FlagU64;
using cli::FlagValue;
using cli::HasFlag;

search::Objective ParseObjectiveArg(int argc, char** argv) {
  const char* text = FlagValue(argc, argv, "--objective");
  if (text == nullptr) {
    return search::Objective::kComposite;
  }
  search::Objective objective;
  if (!search::ParseObjectiveName(text, &objective)) {
    std::fprintf(stderr,
                 "unknown objective '%s' (benign-worst|benign-mean|"
                 "starvation|amplification|dcc-blowup|composite)\n",
                 text);
    std::exit(2);
  }
  return objective;
}

void PrintBreakdown(const search::ScoreBreakdown& b) {
  std::printf(
      "  benign worst=%.3f (client %s) mean=%.3f jain=%.3f starved=%zus\n"
      "  amplification=%.2fx dcc-blowup=%.3f composite=%.6f\n",
      b.benign_worst,
      b.collateral.worst_label.empty() ? "-" : b.collateral.worst_label.c_str(),
      b.benign_mean, b.collateral.jain_index, b.collateral.max_starved_seconds,
      b.amplification, b.dcc_blowup, b.composite);
}

std::string LineageString(const std::vector<search::MutationStep>& lineage) {
  if (lineage.empty()) {
    return "(seed)";
  }
  std::string out;
  for (size_t i = 0; i < lineage.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += search::FormatMutationStep(lineage[i]);
  }
  return out;
}

// The next free deterministic corpus filename, found-<objective>-NNN.json.
std::string NextCorpusPath(const std::string& dir, search::Objective objective) {
  const std::string prefix =
      dir + "/found-" + search::ObjectiveName(objective) + "-";
  for (int i = 1; i < 1000; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "%03d.json", i);
    const std::string path = prefix + name;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      return path;
    }
    std::fclose(f);
  }
  return prefix + "overflow.json";
}

int RunSearch(int argc, char** argv) {
  const search::Objective objective = ParseObjectiveArg(argc, argv);
  search::SearchOptions options;
  options.objective = objective;
  options.seed = FlagU64(argc, argv, "--seed", 1);
  options.budget = static_cast<size_t>(FlagDouble(argc, argv, "--budget", 64));
  options.population =
      static_cast<size_t>(FlagDouble(argc, argv, "--population", 6));
  options.offspring =
      static_cast<size_t>(FlagDouble(argc, argv, "--offspring", 12));
  options.threads = static_cast<int>(FlagDouble(argc, argv, "--threads", 1));
  const Duration horizon = SecondsF(FlagDouble(argc, argv, "--horizon", 24));
  const char* strategy = FlagValue(argc, argv, "--strategy");
  const bool evolve = strategy == nullptr || std::strcmp(strategy, "evolve") == 0;
  if (!evolve && std::strcmp(strategy, "random") != 0) {
    std::fprintf(stderr, "unknown strategy '%s' (random|evolve)\n", strategy);
    return 2;
  }

  const std::vector<search::SeedSpec> seeds =
      search::DefaultSeedSpecs(horizon, FlagU64(argc, argv, "--run-seed", 1));
  std::printf("dcc_search: objective=%s strategy=%s budget=%zu seed=%llu "
              "horizon=%llds threads=%d\n",
              search::ObjectiveName(objective), evolve ? "evolve" : "random",
              options.budget, static_cast<unsigned long long>(options.seed),
              static_cast<long long>(horizon / kSecond), options.threads);

  const search::SearchResult result =
      evolve ? search::RunEvolutionSearch(seeds, options)
             : search::RunRandomSearch(seeds, options);
  std::printf("evaluated %zu candidates (%zu invalid offspring rejected)\n\n",
              result.evaluations, result.rejected_offspring);

  // Seed baselines (every seed is in `ranked` with an empty lineage).
  std::printf("%-6s %-12s %s\n", "seed", "score", "worst benign ratio");
  for (const search::Candidate& candidate : result.ranked) {
    if (candidate.lineage.empty()) {
      std::printf("%-6s %-12s %.6f (%s)\n", candidate.base_name.c_str(),
                  search::FormatScore(candidate.score).c_str(),
                  candidate.breakdown.collateral.worst_ratio,
                  candidate.breakdown.collateral.worst_label.c_str());
    }
  }

  const size_t top = static_cast<size_t>(FlagDouble(argc, argv, "--top", 3));
  std::printf("\ntop %zu candidates:\n", top);
  size_t shown = 0;
  for (const search::Candidate& candidate : result.ranked) {
    if (shown >= top) {
      break;
    }
    ++shown;
    std::printf("#%zu score=%s base=%s lineage=%s events=%zu\n", shown,
                search::FormatScore(candidate.score).c_str(),
                candidate.base_name.c_str(),
                LineageString(candidate.lineage).c_str(),
                candidate.events_executed);
    PrintBreakdown(candidate.breakdown);
    if (!candidate.lineage.empty()) {
      const std::string diff = scenario::FormatSpecDiff(scenario::DiffScenarioSpecs(
          seeds[candidate.base_index].spec, candidate.spec));
      std::printf("  vs seed-%s:\n%s", candidate.base_name.c_str(),
                  diff.empty() ? "    (no field changes)\n" : diff.c_str());
    }
  }

  const char* out_dir = FlagValue(argc, argv, "--out");
  if (out_dir == nullptr || result.ranked.empty()) {
    return 0;
  }
  search::Candidate best = result.ranked.front();
  if (!HasFlag(argc, argv, "--no-minimize") && !best.lineage.empty()) {
    std::string error;
    const size_t before = best.lineage.size();
    if (!search::MinimizeCandidate(seeds, objective, &best, &error)) {
      std::fprintf(stderr, "minimize failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nminimized best: %zu -> %zu lineage steps, score %s\n",
                before, best.lineage.size(),
                search::FormatScore(best.score).c_str());
  }
  const std::string path = NextCorpusPath(out_dir, objective);
  std::string error;
  if (!search::WriteCorpusEntry(path, best, objective, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s (score %s, events %zu)\n", path.c_str(),
              search::FormatScore(best.score).c_str(), best.events_executed);
  return 0;
}

int RunScore(int argc, char** argv) {
  const char* path = FlagValue(argc, argv, "--spec");
  if (path == nullptr) {
    std::fprintf(stderr, "score requires --spec FILE\n");
    return 2;
  }
  search::ReplayReport report;
  std::string error;
  if (!search::ReplayCorpusFile(path, ParseObjectiveArg(argc, argv),
                                /*check_identity=*/false, &report, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("%s: scenario '%s' objective=%s score=%s events=%zu\n", path,
              report.name.c_str(), search::ObjectiveName(report.objective),
              search::FormatScore(report.score).c_str(),
              report.events_executed);
  PrintBreakdown(report.breakdown);
  return 0;
}

int RunReplay(int argc, char** argv) {
  const char* dir = FlagValue(argc, argv, "--corpus");
  if (dir == nullptr) {
    std::fprintf(stderr, "replay requires --corpus DIR\n");
    return 2;
  }
  const bool check = HasFlag(argc, argv, "--check");
  const std::vector<std::string> files = search::ListCorpusFiles(dir);
  if (files.empty()) {
    std::printf("no corpus files under %s\n", dir);
    return 0;
  }
  int failures = 0;
  for (const std::string& file : files) {
    search::ReplayReport report;
    std::string error;
    if (!search::ReplayCorpusFile(file, ParseObjectiveArg(argc, argv), check,
                                  &report, &error)) {
      std::printf("FAIL %s: %s\n", file.c_str(), error.c_str());
      ++failures;
      continue;
    }
    if (!report.identity_ok) {
      std::printf("FAIL %s: %s\n", file.c_str(), report.detail.c_str());
      ++failures;
      continue;
    }
    std::printf("ok   %s objective=%s score=%s events=%zu\n", file.c_str(),
                search::ObjectiveName(report.objective),
                search::FormatScore(report.score).c_str(),
                report.events_executed);
  }
  if (failures > 0) {
    std::printf("%d of %zu corpus files failed\n", failures, files.size());
    return 1;
  }
  return 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_search COMMAND [options]\n"
      "\n"
      "commands:\n"
      "  search   explore mutations of the four Fig. 8 attack scenarios\n"
      "           (examples/scenarios/fig8_{wc,nx,cq,ff}.json: Table 2 mixes\n"
      "           vs a DCC-enabled resolver)\n"
      "           and rank the worst cases found\n"
      "  score    run one scenario spec and print its objective breakdown\n"
      "  replay   re-run every *.json under a corpus directory; --check\n"
      "           demands the provenance-recorded score and event count\n"
      "\n"
      "search options:\n"
      "  --objective O        benign-worst|benign-mean|starvation|\n"
      "                       amplification|dcc-blowup|composite\n"
      "                       (default composite)\n"
      "  --strategy S         evolve (mu+lambda with elitism; default) or\n"
      "                       random (independent single mutations)\n"
      "  --seed N             search RNG seed (default 1)\n"
      "  --run-seed N         scenario run seed for every candidate\n"
      "                       (default 1)\n"
      "  --budget N           candidate evaluations, seeds included\n"
      "                       (default 64; invalid offspring count too)\n"
      "  --population N       mu, survivors per generation (default 6)\n"
      "  --offspring N        lambda, children per generation (default 12)\n"
      "  --threads N          parallel candidate evaluations (default 1;\n"
      "                       results are thread-count-invariant)\n"
      "  --horizon SECONDS    scenario horizon for seeds + candidates\n"
      "                       (default 24)\n"
      "  --top N              ranked candidates to print (default 3)\n"
      "  --out DIR            minimize the best candidate and write it as a\n"
      "                       provenance-stamped spec under DIR\n"
      "  --no-minimize        skip minimization before --out\n"
      "\n"
      "score options:\n"
      "  --spec FILE          spec to run; provenance objective wins over\n"
      "  --objective O        the flag when the file records one\n"
      "\n"
      "replay options:\n"
      "  --corpus DIR         directory of found-*.json specs\n"
      "  --check              fail on any score/events drift vs provenance\n"
      "  --objective O        fallback for files without provenance\n"
      "\n"
      "examples:\n"
      "  dcc_search search --objective benign-worst --budget 64 --threads 4\n"
      "  dcc_search search --out examples/scenarios/found\n"
      "  dcc_search replay --corpus examples/scenarios/found --check\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 || std::strcmp(argv[1], "help") == 0) {
    PrintUsage(argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  if (command == "search") {
    return RunSearch(argc, argv);
  }
  if (command == "score") {
    return RunScore(argc, argv);
  }
  if (command == "replay") {
    return RunReplay(argc, argv);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
