// Search strategies over ScenarioSpec genomes.
//
// Two strategies share one evaluation substrate:
//  * RunRandomSearch — independent single-step mutations of the seed specs.
//  * RunEvolutionSearch — a (mu + lambda) evolutionary loop with elitism:
//    each generation ranks the population, keeps the best mu candidates and
//    breeds lambda offspring by appending one mutation step to a ranked
//    parent's lineage.
//
// Determinism contract: every candidate's genome is a (seed spec, lineage)
// pair whose mutation seeds derive only from (search seed, generation, slot),
// and candidates are evaluated in independent simulator instances (one per
// worker thread; the event loop's global counters are thread_local).
// Offspring results are written into pre-assigned slots and merged in
// (score, creation order) rank, so a search with --threads 8 returns exactly
// the candidates of the same search with --threads 1.

#ifndef SRC_SEARCH_SEARCH_H_
#define SRC_SEARCH_SEARCH_H_

#include <string>
#include <vector>

#include "src/search/mutation.h"
#include "src/search/objective.h"

namespace dcc {
namespace search {

struct SeedSpec {
  std::string name;
  scenario::ScenarioSpec spec;
};

// The four §5.1 attack scenarios (WC/NX/CQ/FF Table 2 mixes against a
// DCC-enabled resolver on a 1000-QPS channel), loaded from
// examples/scenarios/fig8_{wc,nx,cq,ff}.json, renamed seed-<pattern> and
// materialized at the given horizon and run seed. Client schedules keep the
// files' stops. These are both the search starting points and the
// baselines a discovered scenario must beat.
std::vector<SeedSpec> DefaultSeedSpecs(Duration horizon, uint64_t seed);

struct Candidate {
  size_t base_index = 0;              // Into the seed-spec list.
  std::string base_name;
  std::vector<MutationStep> lineage;  // Applied to the seed spec, in order.
  scenario::ScenarioSpec spec;        // Materialized genome.
  ScoreBreakdown breakdown;
  double score = 0;
  size_t events_executed = 0;
  // Global creation order (rank tiebreaker; earlier candidate wins).
  uint64_t order = 0;
};

struct SearchOptions {
  Objective objective = Objective::kComposite;
  uint64_t seed = 1;
  // Total number of candidate evaluations (seed evaluations included).
  size_t budget = 64;
  size_t population = 6;   // mu: survivors per generation.
  size_t offspring = 12;   // lambda: children bred per generation.
  size_t max_lineage = 8;  // Cap on lineage length (keeps minimization fast).
  int threads = 1;         // Worker threads for candidate evaluation.
};

struct SearchResult {
  // All evaluated candidates, best first (score desc, creation order asc).
  std::vector<Candidate> ranked;
  size_t evaluations = 0;
  size_t rejected_offspring = 0;  // Mutations that produced invalid specs.
};

// Evaluates a lineage against its seed spec: applies it, runs the scenario
// and scores the outcome. Returns false when the lineage does not apply or
// the run fails.
bool EvaluateCandidate(const std::vector<SeedSpec>& seeds, Candidate* candidate,
                       Objective objective, std::string* error);

SearchResult RunRandomSearch(const std::vector<SeedSpec>& seeds,
                             const SearchOptions& options);
SearchResult RunEvolutionSearch(const std::vector<SeedSpec>& seeds,
                                const SearchOptions& options);

}  // namespace search
}  // namespace dcc

#endif  // SRC_SEARCH_SEARCH_H_
