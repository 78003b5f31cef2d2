#include "src/measure/fairness.h"

#include <algorithm>

#include "src/common/stats.h"

namespace dcc {
namespace measure {
namespace {

// Longest zero-streak inside [first nonzero, last nonzero].
size_t LongestStarvedStreak(const std::vector<double>& series) {
  size_t first = series.size();
  size_t last = 0;
  for (size_t t = 0; t < series.size(); ++t) {
    if (series[t] > 0) {
      first = std::min(first, t);
      last = t;
    }
  }
  if (first >= series.size()) {
    return 0;  // Never landed a response; no observable active window.
  }
  size_t longest = 0;
  size_t streak = 0;
  for (size_t t = first; t <= last; ++t) {
    if (series[t] > 0) {
      streak = 0;
    } else {
      ++streak;
      longest = std::max(longest, streak);
    }
  }
  return longest;
}

}  // namespace

std::vector<ClientFairnessSample> FairnessSamples(
    const std::vector<scenario::ClientOutcome>& clients) {
  std::vector<ClientFairnessSample> samples;
  samples.reserve(clients.size());
  for (const scenario::ClientOutcome& client : clients) {
    ClientFairnessSample sample;
    sample.label = client.label;
    sample.is_attacker = client.is_attacker;
    sample.sent = client.sent;
    sample.success_ratio = client.success_ratio;
    sample.effective_qps = client.effective_qps;
    samples.push_back(std::move(sample));
  }
  return samples;
}

BenignCollateral SummarizeBenignCollateral(
    const std::vector<ClientFairnessSample>& samples) {
  BenignCollateral out;
  std::vector<double> ratios;
  double sum = 0;
  for (const ClientFairnessSample& sample : samples) {
    if (sample.is_attacker || sample.sent == 0) {
      continue;  // Attackers and never-active clients are not victims.
    }
    ++out.benign_clients;
    ratios.push_back(sample.success_ratio);
    sum += sample.success_ratio;
    if (sample.success_ratio < out.worst_ratio || out.worst_label.empty()) {
      out.worst_ratio = sample.success_ratio;
      out.worst_label = sample.label;
    }
    out.max_starved_seconds =
        std::max(out.max_starved_seconds, LongestStarvedStreak(sample.effective_qps));
  }
  if (out.benign_clients > 0) {
    out.mean_ratio = sum / static_cast<double>(out.benign_clients);
    out.jain_index = JainFairnessIndex(ratios);
  }
  return out;
}

std::vector<double> AttackerLandedSeries(
    const std::vector<ClientFairnessSample>& samples,
    const std::vector<double>& ans_qps) {
  std::vector<double> landed(ans_qps.size(), 0.0);
  for (size_t t = 0; t < ans_qps.size(); ++t) {
    double benign = 0;
    for (const ClientFairnessSample& sample : samples) {
      if (!sample.is_attacker && t < sample.effective_qps.size()) {
        benign += sample.effective_qps[t];
      }
    }
    landed[t] = std::max(0.0, ans_qps[t] - benign);
  }
  return landed;
}

}  // namespace measure
}  // namespace dcc
