#include "src/search/search.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/rng.h"

namespace dcc {
namespace search {
namespace {

// Ranking order: higher score first, earlier-created candidate on ties.
bool RankBefore(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return a.order < b.order;
}

void SortRanked(std::vector<Candidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(), RankBefore);
}

// Evaluates every batch entry, in slot order on one thread or work-stealing
// over `threads` workers. Results land in the slot they were constructed
// for, so thread count cannot reorder anything. Returns the per-slot
// success flags.
std::vector<char> EvaluateBatch(const std::vector<SeedSpec>& seeds,
                                std::vector<Candidate>* batch,
                                Objective objective, int threads) {
  std::vector<char> ok(batch->size(), 0);
  auto evaluate_slot = [&](size_t slot) {
    std::string error;
    ok[slot] =
        EvaluateCandidate(seeds, &(*batch)[slot], objective, &error) ? 1 : 0;
  };
  const int workers =
      std::min<int>(std::max(threads, 1), static_cast<int>(batch->size()));
  if (workers <= 1) {
    for (size_t slot = 0; slot < batch->size(); ++slot) {
      evaluate_slot(slot);
    }
    return ok;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (size_t slot = next.fetch_add(1); slot < batch->size();
           slot = next.fetch_add(1)) {
        evaluate_slot(slot);
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  return ok;
}

// Evaluates the seed specs themselves (empty lineages) within the budget.
void EvaluateSeeds(const std::vector<SeedSpec>& seeds,
                   const SearchOptions& options, SearchResult* result,
                   uint64_t* order) {
  std::vector<Candidate> batch;
  for (size_t i = 0; i < seeds.size() && batch.size() < options.budget; ++i) {
    Candidate candidate;
    candidate.base_index = i;
    candidate.order = (*order)++;
    batch.push_back(std::move(candidate));
  }
  const std::vector<char> ok =
      EvaluateBatch(seeds, &batch, options.objective, options.threads);
  for (size_t i = 0; i < batch.size(); ++i) {
    ++result->evaluations;
    if (ok[i]) {
      result->ranked.push_back(std::move(batch[i]));
    } else {
      ++result->rejected_offspring;
    }
  }
}

}  // namespace

std::vector<SeedSpec> DefaultSeedSpecs(Duration horizon, uint64_t seed) {
  std::vector<SeedSpec> out;
  for (const char* pattern : {"wc", "nx", "cq", "ff"}) {
    const std::string path = std::string(DCC_SOURCE_DIR) +
                             "/examples/scenarios/fig8_" + pattern + ".json";
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::LoadScenarioSpecFile(path, &spec, &error)) {
      std::fprintf(stderr, "seed spec %s: %s\n", path.c_str(), error.c_str());
      std::abort();
    }
    spec.name = std::string("seed-") + pattern;
    spec.horizon = horizon;
    spec.seed = seed;
    // Materialize derived fields now so candidate-vs-seed diffs show only
    // what a mutation changed, not validation's own bookkeeping.
    if (!ValidateScenarioSpec(&spec, &error)) {
      std::fprintf(stderr, "seed spec %s invalid: %s\n", path.c_str(),
                   error.c_str());
      std::abort();
    }
    out.push_back({pattern, std::move(spec)});
  }
  return out;
}

bool EvaluateCandidate(const std::vector<SeedSpec>& seeds, Candidate* candidate,
                       Objective objective, std::string* error) {
  if (candidate->base_index >= seeds.size()) {
    if (error != nullptr) {
      *error = "candidate references unknown seed spec";
    }
    return false;
  }
  const SeedSpec& base = seeds[candidate->base_index];
  candidate->base_name = base.name;
  if (!ApplyLineage(base.spec, candidate->lineage, &candidate->spec, error)) {
    return false;
  }
  scenario::ScenarioOutcome outcome;
  if (!scenario::RunScenarioSpec(candidate->spec, scenario::EngineHooks{},
                                 &outcome, error)) {
    return false;
  }
  candidate->breakdown = ScoreOutcome(candidate->spec, outcome);
  candidate->score = ObjectiveScore(candidate->breakdown, objective);
  candidate->events_executed = outcome.events_executed;
  return true;
}

SearchResult RunRandomSearch(const std::vector<SeedSpec>& seeds,
                             const SearchOptions& options) {
  SearchResult result;
  if (seeds.empty()) {
    return result;
  }
  uint64_t order = 0;
  EvaluateSeeds(seeds, options, &result, &order);

  // Candidate construction is single-threaded off one Rng stream; only the
  // evaluations fan out, so the result is thread-count-invariant.
  Rng rng(options.seed);
  while (result.evaluations < options.budget) {
    const size_t batch_size = std::min(
        std::max<size_t>(options.offspring, 1), options.budget - result.evaluations);
    std::vector<Candidate> batch;
    for (size_t slot = 0; slot < batch_size; ++slot) {
      Candidate candidate;
      candidate.base_index = rng.NextBelow(seeds.size());
      MutationStep step;
      step.op = static_cast<MutationOp>(rng.NextBelow(kNumMutationOps));
      step.seed = rng.Next();
      candidate.lineage.push_back(step);
      candidate.order = order++;
      batch.push_back(std::move(candidate));
    }
    const std::vector<char> ok =
        EvaluateBatch(seeds, &batch, options.objective, options.threads);
    for (size_t i = 0; i < batch.size(); ++i) {
      ++result.evaluations;  // Invalid offspring consume budget too.
      if (ok[i]) {
        result.ranked.push_back(std::move(batch[i]));
      } else {
        ++result.rejected_offspring;
      }
    }
  }
  SortRanked(&result.ranked);
  return result;
}

SearchResult RunEvolutionSearch(const std::vector<SeedSpec>& seeds,
                                const SearchOptions& options) {
  SearchResult result;
  if (seeds.empty()) {
    return result;
  }
  uint64_t order = 0;
  EvaluateSeeds(seeds, options, &result, &order);

  // Generation 0 population: the seeds themselves, ranked.
  std::vector<Candidate> population = result.ranked;
  SortRanked(&population);
  if (population.size() > options.population) {
    population.resize(options.population);
  }

  uint64_t generation = 1;
  while (result.evaluations < options.budget && !population.empty()) {
    // Parents still allowed to grow (lineage cap).
    std::vector<const Candidate*> parents;
    for (const Candidate& candidate : population) {
      if (candidate.lineage.size() < options.max_lineage) {
        parents.push_back(&candidate);
      }
    }
    if (parents.empty()) {
      break;
    }
    const size_t batch_size = std::min(
        std::max<size_t>(options.offspring, 1), options.budget - result.evaluations);
    std::vector<Candidate> batch;
    for (size_t slot = 0; slot < batch_size; ++slot) {
      // Offspring depend only on (search seed, generation, slot) and the
      // ranked parent list — not on evaluation timing.
      Rng slot_rng(options.seed * 1000003 + generation * 1009 + slot);
      const Candidate& parent = *parents[slot % parents.size()];
      Candidate child;
      child.base_index = parent.base_index;
      child.lineage = parent.lineage;
      MutationStep step;
      step.op = static_cast<MutationOp>(slot_rng.NextBelow(kNumMutationOps));
      step.seed = slot_rng.Next();
      child.lineage.push_back(step);
      child.order = order++;
      batch.push_back(std::move(child));
    }
    const std::vector<char> ok =
        EvaluateBatch(seeds, &batch, options.objective, options.threads);
    std::vector<Candidate> survivors = population;
    for (size_t i = 0; i < batch.size(); ++i) {
      ++result.evaluations;
      if (ok[i]) {
        survivors.push_back(batch[i]);
        result.ranked.push_back(std::move(batch[i]));
      } else {
        ++result.rejected_offspring;
      }
    }
    SortRanked(&survivors);
    if (survivors.size() > options.population) {
      survivors.resize(options.population);
    }
    population = std::move(survivors);
    ++generation;
  }
  SortRanked(&result.ranked);
  return result;
}

}  // namespace search
}  // namespace dcc
