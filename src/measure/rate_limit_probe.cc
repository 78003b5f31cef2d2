#include "src/measure/rate_limit_probe.h"

#include <algorithm>
#include <optional>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/common/rng.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/sampler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

constexpr char kTargetApex[] = "target-domain";
constexpr char kAttackerApex[] = "attacker-com";

// Builds the resolver-under-test from a profile.
ResolverConfig ResolverConfigFor(const ResolverProfile& profile) {
  ResolverConfig config;
  config.max_fetches_per_request = 400;  // Let CQ amplify fully.
  if (profile.irl_noerror_qps > 0 || profile.irl_nxdomain_qps > 0) {
    config.ingress_rrl.enabled = true;
    config.ingress_rrl.noerror_qps =
        profile.irl_noerror_qps > 0 ? profile.irl_noerror_qps : 1e9;
    config.ingress_rrl.nxdomain_qps =
        profile.irl_nxdomain_qps > 0 ? profile.irl_nxdomain_qps : 1e9;
    config.ingress_rrl.action = RateLimitAction::kDrop;
  }
  if (profile.egress_qps > 0) {
    config.egress_rl_enabled = true;
    config.egress_qps = profile.egress_qps;
  }
  return config;
}

enum class ProbePattern { kWc, kNx, kCq, kFf };

struct ProbeRun {
  double achieved_client_qps = 0;  // Successful responses per second.
  double ans_stable_qps = 0;       // Egress estimate from the ANS rate series.
};

// Appendix A.2's mode approximation for the steady egress rate: the median
// of the non-zero per-second query counts seen at the authoritative.
double StableQps(const std::vector<double>& per_second) {
  std::vector<double> active;
  for (double v : per_second) {
    if (v > 0) {
      active.push_back(v);
    }
  }
  if (active.empty()) {
    return 0;
  }
  std::sort(active.begin(), active.end());
  return active[active.size() / 2];
}

// One measurement step: a fresh deployment probed at `offered_qps` for
// `duration` (Appendix A probes sequentially with fresh state between runs).
// A fresh testbed hands out the same addresses in the same order, so every
// step's servers match the addresses the shared zones name.
ProbeRun RunStep(const ResolverProfile& profile, ProbePattern pattern,
                 double offered_qps, Duration duration, uint64_t seed,
                 ProbeZones& zones) {
  static prof::Site kBuildSite("scenario.testbed_build");
  std::optional<prof::ScopedSite> build_scope;
  build_scope.emplace(kBuildSite);
  Testbed bed;
  const Name target = *Name::Parse(kTargetApex);
  const Name attacker_zone = *Name::Parse(kAttackerApex);

  const HostAddress target_ans = bed.NextAddress();
  const HostAddress attacker_ans = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  const HostAddress probe_addr = bed.NextAddress();

  AuthoritativeServer& ans = bed.AddAuthoritative(target_ans);
  ans.AddZone(zones.Target(pattern == ProbePattern::kCq, target_ans));

  // Per-second ANS rate series feeding the egress estimate.
  telemetry::TimeSeriesSampler sampler(kSecond);
  sampler.AddCounterProbe("ans_qps", {}, [&ans]() {
    return static_cast<double>(ans.queries_received());
  });
  bed.loop().SchedulePeriodic(
      sampler.interval(), "telemetry.sample",
      [&sampler, &bed]() { sampler.SampleNow(bed.loop().now()); },
      duration + Seconds(2));

  if (pattern == ProbePattern::kFf) {
    bed.AddAuthoritative(attacker_ans).AddZone(zones.Attacker());
  }

  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, ResolverConfigFor(profile));
  resolver.AddAuthorityHint(target, target_ans);
  if (pattern == ProbePattern::kFf) {
    resolver.AddAuthorityHint(attacker_zone, attacker_ans);
  }

  StubConfig stub_config;
  stub_config.start = 0;
  stub_config.stop = duration;
  stub_config.qps = offered_qps;
  stub_config.timeout = Seconds(2);
  QuestionGenerator generator;
  // Appendix A.1: the unique-name pool matches the probing QPS so that most
  // requests are cache hits and the measurement isolates ingress RL.
  const auto pool = static_cast<uint64_t>(std::max(1.0, offered_qps));
  switch (pattern) {
    case ProbePattern::kWc:
      generator = MakeWcGenerator(target, seed, pool);
      break;
    case ProbePattern::kNx:
      generator = MakeNxGenerator(target, seed, pool);
      break;
    case ProbePattern::kCq:
      generator = MakeCqGenerator(target, /*instances=*/512, /*cq_labels=*/8);
      break;
    case ProbePattern::kFf:
      generator = MakeFfGenerator(attacker_zone, /*instances=*/2000);
      break;
  }
  StubClient& probe = bed.AddStub(probe_addr, stub_config, std::move(generator));
  probe.AddResolver(resolver_addr);
  probe.Start();
  build_scope.reset();

  bed.RunFor(duration + Seconds(2));

  ProbeRun run;
  run.achieved_client_qps =
      static_cast<double>(probe.succeeded()) / ToSeconds(duration);
  run.ans_stable_qps = StableQps(sampler.Values("ans_qps"));
  return run;
}

// Ascending offered-rate ladder used for both probing directions.
std::vector<double> Ladder(double cap) {
  std::vector<double> out;
  for (double rate : {100.0, 300.0, 600.0, 1200.0, 2000.0, 3500.0, 5000.0}) {
    if (rate <= cap) {
      out.push_back(rate);
    }
  }
  if (out.empty() || out.back() < cap) {
    out.push_back(cap);
  }
  return out;
}

}  // namespace

std::shared_ptr<const Zone> ProbeZones::Target(bool cq_chains, HostAddress self_addr) {
  std::shared_ptr<const Zone>& zone = cq_chains ? target_cq_ : target_;
  if (zone == nullptr) {
    TargetZoneOptions options;
    if (cq_chains) {
      options.ttl = 1;  // Fast eviction keeps amplification measurable.
      options.cq_instances = 512;
      options.cq_chain_length = 8;
      options.cq_labels = 8;
    }
    zone = std::make_shared<const Zone>(
        MakeTargetZone(*Name::Parse(kTargetApex), self_addr, options));
  }
  return zone;
}

std::shared_ptr<const Zone> ProbeZones::Attacker() {
  if (attacker_ == nullptr) {
    AttackerZoneOptions options;
    options.ttl = 1;
    options.instances = 2000;
    attacker_ = std::make_shared<const Zone>(MakeAttackerZone(
        *Name::Parse(kAttackerApex), *Name::Parse(kTargetApex), options));
  }
  return attacker_;
}

const char* QpsBucketName(QpsBucket bucket) {
  switch (bucket) {
    case QpsBucket::k1To100:
      return "1-100";
    case QpsBucket::k101To500:
      return "101-500";
    case QpsBucket::k501To1500:
      return "501-1500";
    case QpsBucket::k1501To5000:
      return "1501-5000";
    case QpsBucket::kUncertain:
      return "Uncertain";
  }
  return "?";
}

QpsBucket ClassifyQps(double qps, bool uncertain) {
  if (uncertain) {
    return QpsBucket::kUncertain;
  }
  if (qps <= 100) {
    return QpsBucket::k1To100;
  }
  if (qps <= 500) {
    return QpsBucket::k101To500;
  }
  if (qps <= 1500) {
    return QpsBucket::k501To1500;
  }
  return QpsBucket::k1501To5000;
}

std::vector<ResolverProfile> MakeFig2Population(uint64_t seed) {
  Rng rng(seed);
  std::vector<ResolverProfile> population;
  population.reserve(45);
  for (int i = 0; i < 45; ++i) {
    ResolverProfile profile;
    char name[16];
    std::snprintf(name, sizeof(name), "R%02d", i + 1);
    profile.name = name;
    // Ingress distribution shaped after Fig. 2: over a third below 100 QPS,
    // most below 1500, a couple higher, a few without any limit.
    if (i < 16) {
      profile.irl_noerror_qps = static_cast<double>(rng.NextInRange(30, 100));
    } else if (i < 28) {
      profile.irl_noerror_qps = static_cast<double>(rng.NextInRange(101, 500));
    } else if (i < 40) {
      profile.irl_noerror_qps = static_cast<double>(rng.NextInRange(501, 1500));
    } else if (i < 42) {
      profile.irl_noerror_qps = static_cast<double>(rng.NextInRange(1501, 4000));
    } else {
      profile.irl_noerror_qps = 0;  // No ingress limit.
    }
    // Some resolvers enforce tighter NXDOMAIN limits (water-torture
    // countermeasure); most mirror the NOERROR limit.
    if (profile.irl_noerror_qps > 0 && rng.NextBool(0.25)) {
      profile.irl_nxdomain_qps = std::max(20.0, profile.irl_noerror_qps / 2);
    } else {
      profile.irl_nxdomain_qps = profile.irl_noerror_qps;
    }
    // Roughly half of the resolvers show no measurable egress limit.
    if (rng.NextBool(0.5)) {
      profile.egress_qps = 0;
    } else {
      profile.egress_qps = static_cast<double>(rng.NextInRange(100, 1500));
    }
    population.push_back(std::move(profile));
  }
  return population;
}

MeasuredLimits ProbeResolver(const ResolverProfile& profile, const ProbeConfig& config,
                             uint64_t seed, ProbeZones* zones) {
  ProbeZones own_zones;
  if (zones == nullptr) {
    zones = &own_zones;
  }
  MeasuredLimits limits;

  // --- ingress: WC and NX patterns (Appendix A.1) ---------------------------
  auto probe_ingress = [&](ProbePattern pattern, double& out, bool& uncertain) {
    uncertain = true;
    double last_achieved = 0;
    for (double rate : Ladder(config.ingress_cap_qps)) {
      const ProbeRun run = RunStep(profile, pattern, rate, config.step_duration, seed, *zones);
      last_achieved = run.achieved_client_qps;
      if (run.achieved_client_qps < config.tolerance * rate) {
        out = run.achieved_client_qps;
        uncertain = false;
        return;
      }
    }
    out = last_achieved;
  };
  probe_ingress(ProbePattern::kWc, limits.irl_wc, limits.irl_wc_uncertain);
  probe_ingress(ProbePattern::kNx, limits.irl_nx, limits.irl_nx_uncertain);

  // --- egress: CQ and FF amplification patterns (Appendix A.2) --------------
  // The probing request rate is capped at the resolver's ingress limit or
  // 1000 QPS, whichever is lower.
  double request_cap = config.egress_cap_qps;
  if (!limits.irl_wc_uncertain) {
    request_cap = std::min(request_cap, limits.irl_wc);
  }
  // Amplification (MAF ~50-64) means low request rates saturate any egress
  // limit in the plausible range (<= 1500 QPS x tolerance): 50 QPS x 50
  // ~ 2500 queries/s — the same insight that lets the paper probe without
  // stressing resolvers (Appendix A.2).
  auto probe_egress = [&](ProbePattern pattern, double& out, bool& uncertain) {
    uncertain = true;
    double best = 0;
    double prev = 0;
    // FF resolutions cascade over several RTT stages and only reach a steady
    // egress rate after a couple of seconds; give the pattern longer steps.
    const Duration step = pattern == ProbePattern::kFf ? 3 * config.step_duration
                                                       : config.step_duration;
    for (double rate : {2.0, 5.0, 10.0, 20.0, 50.0}) {
      if (rate > request_cap) {
        break;
      }
      const ProbeRun run = RunStep(profile, pattern, rate, step, seed, *zones);
      best = std::max(best, run.ans_stable_qps);
      // Plateau: doubling the request rate no longer raises egress QPS.
      if (prev > 0 && run.ans_stable_qps < prev * 1.15) {
        out = best;
        uncertain = false;
        return;
      }
      prev = run.ans_stable_qps;
    }
    out = best;
  };
  probe_egress(ProbePattern::kCq, limits.erl_cq, limits.erl_cq_uncertain);
  probe_egress(ProbePattern::kFf, limits.erl_ff, limits.erl_ff_uncertain);
  return limits;
}

Fig2Histogram BuildFig2Histogram(const std::vector<MeasuredLimits>& measurements) {
  Fig2Histogram histogram;
  for (const auto& m : measurements) {
    histogram.counts[0][static_cast<int>(ClassifyQps(m.irl_wc, m.irl_wc_uncertain))]++;
    histogram.counts[1][static_cast<int>(ClassifyQps(m.irl_nx, m.irl_nx_uncertain))]++;
    histogram.counts[2][static_cast<int>(ClassifyQps(m.erl_cq, m.erl_cq_uncertain))]++;
    histogram.counts[3][static_cast<int>(ClassifyQps(m.erl_ff, m.erl_ff_uncertain))]++;
  }
  return histogram;
}

}  // namespace dcc
