// Rate-limit measurement methodology (paper §2.2.1, Appendix A).
//
// Reimplements the paper's probing study against a synthetic population of
// resolvers: a dnsperf-style self-pacing load generator probes each resolver
// with WC/NX patterns to estimate ingress response rate limits (binary
// search up to 5000 QPS), and with CQ/FF amplification patterns to estimate
// egress limits from the authoritative server's query log.

#ifndef SRC_MEASURE_RATE_LIMIT_PROBE_H_
#define SRC_MEASURE_RATE_LIMIT_PROBE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/zone/zone.h"

namespace dcc {

// Ground-truth configuration of one synthetic public resolver.
struct ResolverProfile {
  std::string name;
  // Ingress response rate limits (0 = none / unlimited).
  double irl_noerror_qps = 0;
  double irl_nxdomain_qps = 0;
  // Egress rate limit towards any single authoritative server (0 = none).
  double egress_qps = 0;
};

// Builds a 45-resolver population whose limit distribution matches the shape
// reported in Fig. 2 (one third below 100 QPS, most below 1500, a handful
// unlimited / above the probing caps).
std::vector<ResolverProfile> MakeFig2Population(uint64_t seed);

// Fig. 2's histogram buckets.
enum class QpsBucket {
  k1To100,
  k101To500,
  k501To1500,
  k1501To5000,
  kUncertain,
};

const char* QpsBucketName(QpsBucket bucket);
QpsBucket ClassifyQps(double qps, bool uncertain);

struct ProbeConfig {
  double ingress_cap_qps = 5000;  // "Uncertain" above this (Appendix A.1).
  double egress_cap_qps = 1000;   // Egress probing request-rate cap (A.2).
  Duration step_duration = Seconds(3);
  // A limit is detected when achieved QPS < tolerance * offered QPS.
  double tolerance = 0.85;
};

struct MeasuredLimits {
  double irl_wc = 0;
  bool irl_wc_uncertain = false;
  double irl_nx = 0;
  bool irl_nx_uncertain = false;
  double erl_cq = 0;
  bool erl_cq_uncertain = false;
  double erl_ff = 0;
  bool erl_ff_uncertain = false;

  friend bool operator==(const MeasuredLimits&, const MeasuredLimits&) = default;
};

// The zones the probe's authoritative servers serve: the target zone, its
// CQ-chain variant and the FF attacker zone. Each is built on first use and
// then shared by every probing step handed this object. Zones are immutable
// and every step still builds a fresh testbed (resolver cache, RRL buckets),
// so sharing keeps Appendix A's fresh state between runs.
class ProbeZones {
 public:
  // The target zone names its own server `self_addr`; every probing step
  // puts that server at the same address.
  std::shared_ptr<const Zone> Target(bool cq_chains, HostAddress self_addr);
  std::shared_ptr<const Zone> Attacker();

 private:
  std::shared_ptr<const Zone> target_;
  std::shared_ptr<const Zone> target_cq_;
  std::shared_ptr<const Zone> attacker_;
};

// Runs the full four-pattern probing sequence against a fresh simulated
// deployment of `profile` (resolver + our authoritative servers + probe).
// Steps take their zones from `zones`, or from zones built for this call
// when it is nullptr; a caller probing many resolvers passes one ProbeZones
// to all of them.
MeasuredLimits ProbeResolver(const ResolverProfile& profile, const ProbeConfig& config,
                             uint64_t seed, ProbeZones* zones = nullptr);

// Histogram over the population: counts[bucket] for each of the four
// measurement series (IRL WC, IRL NX, ERL CQ, ERL FF) — the data behind
// Fig. 2.
struct Fig2Histogram {
  // Indexed [series][bucket]; series order: IRL WC, IRL NX, ERL CQ, ERL FF.
  int counts[4][5] = {};
};

Fig2Histogram BuildFig2Histogram(const std::vector<MeasuredLimits>& measurements);

}  // namespace dcc

#endif  // SRC_MEASURE_RATE_LIMIT_PROBE_H_
