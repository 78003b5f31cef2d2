// Fleet-frontend tests: steering policies, active health checks driving
// hold-down and recovery, the token-bucket re-steer budget bounding failover
// bursts, moving-target rotation, and the telemetry surface.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attack/testbed.h"
#include "src/server/frontend.h"
#include "src/telemetry/telemetry.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const std::string* LabelValue(const telemetry::Labels& labels,
                              const std::string& key) {
  for (const auto& label : labels) {
    if (label.first == key) {
      return &label.second;
    }
  }
  return nullptr;
}

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

// One auth, three fleet members, one frontend. Members resolve against the
// auth via hints; the frontend probes "ans.target-domain" (an A record
// MakeTargetZone serves from the apex zone).
struct FleetDeployment {
  explicit FleetDeployment(FrontendConfig config = DefaultConfig(),
                           size_t member_count = 3,
                           telemetry::TelemetrySink* sink = nullptr)
      : bed(sink) {
    auth_addr = bed.NextAddress();
    auth = &bed.AddAuthoritative(auth_addr);
    auth->AddZone(MakeTargetZone(TargetApex(), auth_addr));
    for (size_t i = 0; i < member_count; ++i) {
      const HostAddress addr = bed.NextAddress();
      ResolverConfig rc;
      rc.upstream_timeout = Milliseconds(300);
      rc.upstream_retries = 1;
      RecursiveResolver& resolver = bed.AddResolver(addr, rc);
      resolver.AddAuthorityHint(TargetApex(), auth_addr);
      member_addrs.push_back(addr);
      members.push_back(&resolver);
    }
    frontend_addr = bed.NextAddress();
    frontend = &bed.AddFrontend(frontend_addr, config);
    for (HostAddress addr : member_addrs) {
      frontend->AddMember(addr);
    }
    frontend->Start();
  }

  static FrontendConfig DefaultConfig() {
    FrontendConfig config;
    config.probe_name = "ans.target-domain";
    config.query_timeout = Milliseconds(300);
    return config;
  }

  // Client sending unique wildcard names (cache misses, spread by hash).
  StubClient& AddSpreadClient(double qps, Duration horizon) {
    StubConfig config;
    config.qps = qps;
    config.stop = horizon;
    config.timeout = Seconds(2);
    StubClient& stub =
        bed.AddStub(bed.NextAddress(), config, [](uint64_t i) {
          const std::string text =
              "n" + std::to_string(i) + ".wc.target-domain";
          return Question{*Name::Parse(text), RecordType::kA};
        });
    stub.AddResolver(frontend_addr);
    stub.Start();
    return stub;
  }

  // Client repeating a single name (pins one member under consistent hash).
  StubClient& AddPinnedClient(double qps, Duration horizon) {
    StubConfig config;
    config.qps = qps;
    config.stop = horizon;
    config.timeout = Seconds(2);
    const Name qname = *Name::Parse("fixed.wc.target-domain");
    StubClient& stub = bed.AddStub(bed.NextAddress(), config, [qname](uint64_t) {
      return Question{qname, RecordType::kA};
    });
    stub.AddResolver(frontend_addr);
    stub.Start();
    return stub;
  }

  uint64_t TotalSteered() const {
    uint64_t total = 0;
    for (HostAddress addr : member_addrs) {
      total += frontend->SteeredCount(addr);
    }
    return total;
  }

  Testbed bed;
  HostAddress auth_addr = 0;
  HostAddress frontend_addr = 0;
  AuthoritativeServer* auth = nullptr;
  FleetFrontend* frontend = nullptr;
  std::vector<HostAddress> member_addrs;
  std::vector<RecursiveResolver*> members;
};

TEST(FrontendSteeringTest, RoundRobinSpreadsEvenly) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.steering = SteeringPolicy::kRoundRobin;
  FleetDeployment d(config);
  StubClient& stub = d.AddSpreadClient(30, Seconds(10));
  d.bed.RunFor(Seconds(12));
  EXPECT_GT(stub.SuccessRatio(), 0.99);
  const uint64_t total = d.TotalSteered();
  for (HostAddress addr : d.member_addrs) {
    const uint64_t steered = d.frontend->SteeredCount(addr);
    EXPECT_NEAR(static_cast<double>(steered), total / 3.0, total * 0.02);
  }
}

TEST(FrontendSteeringTest, ConsistentHashIsStickyPerNameAndSpreadsAcrossNames) {
  FleetDeployment d;
  StubClient& pinned = d.AddPinnedClient(20, Seconds(10));
  d.bed.RunFor(Seconds(12));
  EXPECT_GT(pinned.SuccessRatio(), 0.99);
  // Every relay of the repeated name landed on the same member.
  size_t nonzero = 0;
  for (HostAddress addr : d.member_addrs) {
    nonzero += d.frontend->SteeredCount(addr) > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 1u);

  // Distinct names spread: with many names every member sees traffic.
  FleetDeployment spread;
  spread.AddSpreadClient(30, Seconds(10));
  spread.bed.RunFor(Seconds(12));
  for (HostAddress addr : spread.member_addrs) {
    EXPECT_GT(spread.frontend->SteeredCount(addr), 0u);
  }
}

TEST(FrontendSteeringTest, LeastLoadedPrefersLowestIndexWhenIdle) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.steering = SteeringPolicy::kLeastLoaded;
  FleetDeployment d(config);
  // 2 QPS with fast answers: every decision sees zero outstanding queries on
  // all members, and the tie breaks to the first member.
  StubClient& stub = d.AddSpreadClient(2, Seconds(10));
  d.bed.RunFor(Seconds(12));
  EXPECT_GT(stub.SuccessRatio(), 0.99);
  EXPECT_EQ(d.frontend->SteeredCount(d.member_addrs[0]), d.TotalSteered());
}

TEST(FrontendHealthTest, BlackoutEntersHolddownThenRecovers) {
  FleetDeployment d;
  StubClient& stub = d.AddSpreadClient(20, Seconds(30));
  const HostAddress victim = d.member_addrs[1];
  d.bed.loop().ScheduleAt(Seconds(5), [&d, victim] {
    d.bed.network().SetHostDown(victim, true);
  });
  // Mid-blackout the probes have convicted the member.
  d.bed.loop().ScheduleAt(Seconds(12), [&d, victim] {
    EXPECT_FALSE(d.frontend->IsMemberHealthy(victim, d.bed.loop().now()));
    EXPECT_EQ(d.frontend->HealthyCount(d.bed.loop().now()), 2u);
  });
  d.bed.loop().ScheduleAt(Seconds(20), [&d, victim] {
    d.bed.network().SetHostDown(victim, false);
  });
  d.bed.RunFor(Seconds(32));

  EXPECT_GE(d.frontend->tracker().holddowns_entered(), 1u);
  EXPECT_GT(d.frontend->probe_timeouts(), 0u);
  // Probes readmit the recovered member without client traffic to it.
  EXPECT_TRUE(d.frontend->IsMemberHealthy(victim, d.bed.loop().now()));
  EXPECT_EQ(d.frontend->HealthyCount(d.bed.loop().now()), 3u);
  // Failover kept the benign client near-perfect through the blackout.
  EXPECT_GT(stub.SuccessRatio(), 0.97);
  EXPECT_GT(d.frontend->resteers(), 0u);
}

TEST(FrontendBudgetTest, ResteerBurstIsBoundedByTokenBucket) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.steering = SteeringPolicy::kRoundRobin;  // 1/3 of queries hit victim.
  config.resteer_budget_qps = 1;
  config.resteer_budget_burst = 3;
  FleetDeployment d(config);
  d.AddSpreadClient(30, Seconds(20));
  d.bed.loop().ScheduleAt(Seconds(5), [&d] {
    d.bed.network().SetHostDown(d.member_addrs[1], true);
  });
  d.bed.RunFor(Seconds(22));

  // Demand far exceeds the budget (~10 QPS of timed-out queries before
  // hold-down), but grants stay within burst + rate * elapsed.
  EXPECT_GT(d.frontend->resteer_denied(), 0u);
  EXPECT_GT(d.frontend->servfails_sent(), 0u);
  EXPECT_LE(d.frontend->resteers(),
            3u + static_cast<uint64_t>(1.0 * 22) + 1u);
}

TEST(FrontendBudgetTest, UnlimitedBudgetNeverDenies) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.steering = SteeringPolicy::kRoundRobin;
  config.resteer_budget_qps = 0;  // <= 0: unlimited.
  FleetDeployment d(config);
  d.AddSpreadClient(30, Seconds(20));
  d.bed.loop().ScheduleAt(Seconds(5), [&d] {
    d.bed.network().SetHostDown(d.member_addrs[1], true);
  });
  d.bed.RunFor(Seconds(22));
  EXPECT_GT(d.frontend->resteers(), 0u);
  EXPECT_EQ(d.frontend->resteer_denied(), 0u);
  EXPECT_EQ(d.frontend->servfails_sent(), 0u);
}

TEST(FrontendRotationTest, EpochAdvancesAndReshufflesPinnedName) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.rotation_period = Seconds(1);
  FleetDeployment d(config);
  StubClient& stub = d.AddPinnedClient(20, Seconds(20));
  d.bed.RunFor(Seconds(21));

  EXPECT_GE(d.frontend->rotations(), 19u);
  EXPECT_EQ(d.frontend->rotation_epoch(), d.frontend->rotations());
  EXPECT_GT(stub.SuccessRatio(), 0.99);
  // The epoch salt moved the pinned name across members: with 20 epochs the
  // rendezvous winner cannot have stayed on a single member.
  size_t nonzero = 0;
  for (HostAddress addr : d.member_addrs) {
    nonzero += d.frontend->SteeredCount(addr) > 0 ? 1 : 0;
  }
  EXPECT_GE(nonzero, 2u);
}

TEST(FrontendRotationTest, ActiveWindowNarrowsEligibleMembers) {
  FrontendConfig config = FleetDeployment::DefaultConfig();
  config.rotation_active = 1;  // One member takes new traffic per epoch.
  config.rotation_period = 0;  // Static window: always the same member.
  FleetDeployment d(config);
  d.AddSpreadClient(30, Seconds(10));
  d.bed.RunFor(Seconds(12));
  size_t nonzero = 0;
  for (HostAddress addr : d.member_addrs) {
    nonzero += d.frontend->SteeredCount(addr) > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 1u);
}

TEST(FrontendFailureTest, AllMembersDownAnswersServfailAfterRetries) {
  FleetDeployment d;
  StubClient& stub = d.AddSpreadClient(5, Seconds(10));
  for (HostAddress addr : d.member_addrs) {
    d.bed.network().SetHostDown(addr, true);
  }
  d.bed.RunFor(Seconds(15));
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_GT(d.frontend->servfails_sent(), 0u);
  // Exhausted queries drained; nothing leaks in the pending table.
  EXPECT_EQ(d.frontend->PendingCount(), 0u);
}

TEST(FrontendTelemetryTest, CountersGaugesAndFailoverHistogramAreWired) {
  telemetry::TelemetrySink sink;
  FrontendConfig config = FleetDeployment::DefaultConfig();
  FleetDeployment d(config, /*member_count=*/3, &sink);
  d.AddSpreadClient(20, Seconds(20));
  d.bed.loop().ScheduleAt(Seconds(5), [&d] {
    d.bed.network().SetHostDown(d.member_addrs[0], true);
  });
  d.bed.RunFor(Seconds(22));

  const telemetry::MetricsSnapshot snap = sink.metrics.Snapshot();
  EXPECT_GT(snap.Sum("frontend_requests_total"), 0.0);
  EXPECT_GT(snap.Sum("frontend_probes_total"), 0.0);
  EXPECT_GT(snap.Sum("frontend_steered_total"), 0.0);
  // Per-member steered counters carry resolver + reason labels; a blackout
  // forces at least one re-steer grant.
  double resteered = 0;
  for (const telemetry::MetricSample& sample : snap.samples) {
    if (sample.name != "frontend_steered_total") {
      continue;
    }
    const std::string* reason = LabelValue(sample.labels, "reason");
    ASSERT_NE(reason, nullptr);
    ASSERT_NE(LabelValue(sample.labels, "resolver"), nullptr);
    if (*reason == "resteer") {
      resteered += sample.value;
    }
  }
  EXPECT_GT(resteered, 0.0);
  // The downed member's health gauge reads 0, the survivors 1.
  double healthy = 0;
  for (const telemetry::MetricSample& sample : snap.samples) {
    if (sample.name == "resolver_healthy") {
      healthy += sample.value;
    }
  }
  EXPECT_EQ(healthy, 2.0);
  // Failover latency histogram observed the re-steered queries.
  const telemetry::MetricSample* latency = nullptr;
  for (const telemetry::MetricSample& sample : snap.samples) {
    if (sample.name == "frontend_failover_latency_us") {
      latency = &sample;
    }
  }
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->histogram.count(), 0);
}

TEST(FrontendCrashTest, CrashResetDropsInFlightState) {
  FleetDeployment d;
  d.AddSpreadClient(50, Seconds(10));
  d.bed.loop().ScheduleAt(Milliseconds(5100), [&d] {
    d.frontend->CrashReset();
    EXPECT_EQ(d.frontend->PendingCount(), 0u);
  });
  d.bed.RunFor(Seconds(12));
  // The frontend keeps serving after the crash: new queries still answered.
  EXPECT_GT(d.frontend->responses_sent(), 0u);
}

}  // namespace
}  // namespace dcc
