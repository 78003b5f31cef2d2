// Benign-collateral and fairness summaries over per-client outcomes.
//
// One vocabulary for "how badly did the benign clients fare" shared by the
// Fig. 8/9 benches and dcc_search's objective layer: a converter from the
// engine's ClientOutcome list, a BenignCollateral summary (worst/mean benign
// success ratio, Jain's index, longest starvation streak), and the Fig. 8
// caption's attacker landed-load series (ANS query rate minus the benign
// clients' share).

#ifndef SRC_MEASURE_FAIRNESS_H_
#define SRC_MEASURE_FAIRNESS_H_

#include <string>
#include <vector>

#include "src/scenario/engine.h"

namespace dcc {
namespace measure {

struct ClientFairnessSample {
  std::string label;
  bool is_attacker = false;
  // Queries sent over the run; clients that never sent (schedule entirely
  // outside the horizon) are not counted as collateral victims.
  uint64_t sent = 0;
  double success_ratio = 0;
  // Per-second successful responses; may be empty when series collection was
  // off for the run.
  std::vector<double> effective_qps;
};

// From the engine's per-client outcomes (attacker flag carried through).
std::vector<ClientFairnessSample> FairnessSamples(
    const std::vector<scenario::ClientOutcome>& clients);

struct BenignCollateral {
  // Benign clients that sent at least one query (the summarized population).
  size_t benign_clients = 0;
  // Worst (lowest) and mean benign success ratio; worst_label names the
  // victim. Defaults describe the vacuous all-attacker population.
  double worst_ratio = 1.0;
  std::string worst_label;
  double mean_ratio = 1.0;
  // Jain's fairness index over the benign success ratios (1.0 = even harm).
  double jain_index = 1.0;
  // Longest run of consecutive seconds in which some benign client landed
  // zero successful responses, measured inside that client's empirically
  // active window (first through last nonzero second) so scheduled start/stop
  // silence does not count as starvation. 0 when no series were collected.
  size_t max_starved_seconds = 0;
};

BenignCollateral SummarizeBenignCollateral(
    const std::vector<ClientFairnessSample>& samples);

// Fig. 8 caption math: the load the attacker actually lands on the
// nameserver per second, i.e. the ANS query rate minus the benign clients'
// (~1 query/request) share, floored at zero. Sized to `ans_qps`.
std::vector<double> AttackerLandedSeries(
    const std::vector<ClientFairnessSample>& samples,
    const std::vector<double>& ans_qps);

}  // namespace measure
}  // namespace dcc

#endif  // SRC_MEASURE_FAIRNESS_H_
