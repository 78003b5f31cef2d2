// Resolver timeout-path tests: the per-query deadline timer must be a no-op
// once the answer has arrived, and retry exhaustion against a dead upstream
// must produce a SERVFAIL plus retry telemetry. The teardown tests pin which
// orphaned upstream queries a request teardown erases, and when: a query
// whose task is gone stays outstanding (its late answer still feeds the
// SRTT) until the next teardown sweeps it.

#include <gtest/gtest.h>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/common/ids.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

StubConfig OneShot(Duration timeout = Seconds(5)) {
  StubConfig config;
  config.start = 0;
  config.stop = Seconds(1);
  config.qps = 1;
  config.timeout = timeout;
  return config;
}

QuestionGenerator FixedQuestion(const char* text) {
  const Name qname = *Name::Parse(text);
  return [qname](uint64_t) { return Question{qname, RecordType::kA}; };
}

StubConfig OneShotAt(Time start) {
  StubConfig config = OneShot(Seconds(10));
  config.start = start;
  config.stop = start + Seconds(1);
  return config;
}

// Deadline 1 s, upstream timeout far beyond it and fixed, so a query in
// flight at the deadline is still outstanding when later teardowns run.
ResolverConfig ShortDeadline() {
  ResolverConfig config;
  config.request_deadline = Seconds(1);
  config.upstream_timeout = Seconds(30);
  config.upstream_retries = 0;
  config.adaptive_retry = false;
  return config;
}

TEST(ResolverTimeoutTest, DeadlineTimerAfterAnswerIsNoOp) {
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  ResolverConfig config;
  config.upstream_timeout = Milliseconds(500);
  config.upstream_retries = 2;
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, config);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  StubClient& stub = bed.AddStub(bed.NextAddress(), OneShot(),
                                 FixedQuestion("one.wc.target-domain"));
  stub.AddResolver(resolver_addr);
  stub.Start();
  // Run far past the upstream timeout so the stale deadline timer fires.
  bed.RunFor(Seconds(10));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(stub.failed(), 0u);
  // The answered query's timer must not count as a timeout or trigger a
  // retransmission. QMIN costs one query per label under the hinted apex
  // ("wc" then "one"), so a clean resolution is exactly 2 sends.
  EXPECT_EQ(resolver.upstream_tracker().timeouts_observed(), 0u);
  EXPECT_EQ(resolver.queries_sent(), 2u);
  EXPECT_EQ(resolver.responses_sent(), 1u);
  EXPECT_EQ(resolver.stale_responses(), 0u);
}

TEST(ResolverTimeoutTest, RetryExhaustionYieldsServfailAndRetryTelemetry) {
  Testbed bed;
  telemetry::TelemetrySink sink;
  bed.AttachTelemetry(&sink);
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  ResolverConfig config;
  config.upstream_timeout = Milliseconds(200);
  config.upstream_retries = 2;
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, config);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  StubClient& stub = bed.AddStub(bed.NextAddress(), OneShot(Seconds(20)),
                                 FixedQuestion("dead.wc.target-domain"));
  stub.AddResolver(resolver_addr);
  // The only upstream is dark for the whole run.
  bed.network().SetHostDown(auth_addr, true);
  stub.Start();
  bed.RunFor(Seconds(25));

  // 1 initial attempt + 2 retransmissions, all timing out, then SERVFAIL.
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_EQ(stub.failed(), 1u);
  EXPECT_EQ(resolver.queries_sent(), 3u);
  EXPECT_EQ(resolver.upstream_tracker().timeouts_observed(), 3u);
  EXPECT_EQ(resolver.responses_sent(), 1u);

  const auto snapshot = sink.metrics.Snapshot();
  const telemetry::Labels host = {{"host", FormatAddress(resolver_addr)}};
  EXPECT_EQ(snapshot.Value("resolver_upstream_retries_total", host), 2.0);
  EXPECT_EQ(snapshot.Value("upstream_timeouts_total", host), 3.0);
}

TEST(ResolverTimeoutTest, HoldDownSkipsRemainingRetriesWhenAlternativeIsLive) {
  // Two upstreams for the same zone, the preferred one dead. Once the dead
  // server enters hold-down, remaining retransmissions to it are skipped in
  // favor of the live alternative, so the client still gets an answer.
  Testbed bed;
  const HostAddress dead_addr = bed.NextAddress();
  const HostAddress live_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeServer& dead = bed.AddAuthoritative(dead_addr);
  dead.AddZone(MakeTargetZone(TargetApex(), dead_addr));
  AuthoritativeServer& live = bed.AddAuthoritative(live_addr);
  live.AddZone(MakeTargetZone(TargetApex(), live_addr));
  ResolverConfig config;
  config.upstream_timeout = Milliseconds(200);
  config.upstream_retries = 3;
  config.upstream.holddown_after = 2;
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, config);
  resolver.AddAuthorityHint(TargetApex(), dead_addr);
  resolver.AddAuthorityHint(TargetApex(), live_addr);
  StubClient& stub = bed.AddStub(bed.NextAddress(), OneShot(Seconds(20)),
                                 FixedQuestion("failover.wc.target-domain"));
  stub.AddResolver(resolver_addr);
  bed.network().SetHostDown(dead_addr, true);
  stub.Start();
  bed.RunFor(Seconds(25));

  EXPECT_EQ(stub.succeeded(), 1u);
  // Hold-down after 2 timeouts cut the remaining 2 retransmissions to the
  // dead server: 2 sends there, then the 2 QMIN steps against the live one.
  // Without the skip this resolution would cost 4 dead + 2 live sends.
  EXPECT_TRUE(resolver.upstream_tracker().IsHeldDown(dead_addr, Seconds(1)));
  EXPECT_EQ(resolver.upstream_tracker().timeouts_observed(), 2u);
  EXPECT_EQ(resolver.queries_sent(), 4u);
}

TEST(ResolverTeardownTest, DeadlineOrphanSurvivesUntilNextTeardown) {
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  bed.AddAuthoritative(auth_addr).AddZone(MakeTargetZone(TargetApex(), auth_addr));
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, ShortDeadline());
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  bed.network().SetHostDown(auth_addr, true);
  StubClient& first = bed.AddStub(bed.NextAddress(), OneShotAt(0),
                                  FixedQuestion("first.wc.target-domain"));
  first.AddResolver(resolver_addr);
  first.Start();
  StubClient& second = bed.AddStub(bed.NextAddress(), OneShotAt(Milliseconds(1500)),
                                   FixedQuestion("second.wc.target-domain"));
  second.AddResolver(resolver_addr);
  second.Start();

  bed.RunFor(Milliseconds(500));
  EXPECT_EQ(resolver.ActiveRequestCount(), 1u);
  EXPECT_EQ(resolver.OutstandingQueryCount(), 1u);
  // t=1.2 s: the first deadline fired with its root query in flight. The
  // request is gone but its query is not: nothing has swept it yet.
  bed.RunFor(Milliseconds(700));
  EXPECT_EQ(resolver.ActiveRequestCount(), 0u);
  EXPECT_EQ(resolver.OutstandingQueryCount(), 1u);
  // t=2.0 s: the second request's query joins it.
  bed.RunFor(Milliseconds(800));
  EXPECT_EQ(resolver.OutstandingQueryCount(), 2u);
  // t=2.7 s: the second deadline's teardown swept the first orphan and left
  // its own root query orphaned in turn.
  bed.RunFor(Milliseconds(700));
  EXPECT_EQ(resolver.ActiveRequestCount(), 0u);
  EXPECT_EQ(resolver.OutstandingQueryCount(), 1u);
  EXPECT_EQ(first.failed(), 1u);
  EXPECT_EQ(second.failed(), 1u);
}

TEST(ResolverTeardownTest, LateAnswerToSweptOrphanLeavesSrttUnchanged) {
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  bed.AddAuthoritative(auth_addr).AddZone(MakeTargetZone(TargetApex(), auth_addr));
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, ShortDeadline());
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  // A 3 s round trip: every answer arrives after its request's deadline.
  bed.network().SetPairDelay(resolver_addr, auth_addr, Milliseconds(1500));
  StubClient& first = bed.AddStub(bed.NextAddress(), OneShotAt(0),
                                  FixedQuestion("first.wc.target-domain"));
  first.AddResolver(resolver_addr);
  first.Start();
  StubClient& second = bed.AddStub(bed.NextAddress(), OneShotAt(Milliseconds(1500)),
                                   FixedQuestion("second.wc.target-domain"));
  second.AddResolver(resolver_addr);
  second.Start();
  constexpr Duration kNoSample = -1;
  const UpstreamTracker& tracker = resolver.upstream_tracker();

  // The first query is orphaned at t=1 s and swept by the second deadline
  // at t=2.5 s; its answer lands at t=3 s and must be ignored.
  bed.RunFor(Milliseconds(3500));
  EXPECT_EQ(tracker.Srtt(auth_addr, kNoSample), kNoSample);
  EXPECT_EQ(resolver.OutstandingQueryCount(), 1u);
  // The second query is orphaned but never swept: its late answer (t=4.5 s)
  // is still taken as an RTT sample of about 3 s.
  bed.RunFor(Seconds(2));
  EXPECT_EQ(resolver.OutstandingQueryCount(), 0u);
  EXPECT_GE(tracker.Srtt(auth_addr, kNoSample), Seconds(3));
  EXPECT_LT(tracker.Srtt(auth_addr, kNoSample), Milliseconds(3100));
}

TEST(ResolverTeardownTest, TeardownLeavesUnrelatedQueriesUntouched) {
  Testbed bed;
  const HostAddress target_addr = bed.NextAddress();
  const HostAddress attacker_addr = bed.NextAddress();
  const HostAddress resolver_addr = bed.NextAddress();
  bed.AddAuthoritative(target_addr).AddZone(MakeTargetZone(TargetApex(), target_addr));
  const Name attacker_apex = *Name::Parse("attacker-com");
  AttackerZoneOptions fanout;
  fanout.instances = 1;
  fanout.fanout_a = 4;
  fanout.fanout_t = 4;
  bed.AddAuthoritative(attacker_addr)
      .AddZone(MakeAttackerZone(attacker_apex, TargetApex(), fanout));
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, ShortDeadline());
  resolver.AddAuthorityHint(TargetApex(), target_addr);
  resolver.AddAuthorityHint(attacker_apex, attacker_addr);
  // The target is dark: the FF request's NS-address children and the
  // unrelated WC requests all wait on it.
  bed.network().SetHostDown(target_addr, true);
  StubClient& ff = bed.AddStub(bed.NextAddress(), OneShotAt(0),
                               MakeFfGenerator(attacker_apex, 1));
  ff.AddResolver(resolver_addr);
  ff.Start();
  constexpr size_t kUnrelated = 5;
  for (size_t i = 0; i < kUnrelated; ++i) {
    StubClient& wc = bed.AddStub(bed.NextAddress(), OneShotAt(Milliseconds(200)),
                                 MakeWcGenerator(TargetApex(), 100 + i));
    wc.AddResolver(resolver_addr);
    wc.Start();
  }

  bed.RunFor(Milliseconds(900));
  EXPECT_EQ(resolver.ActiveRequestCount(), 1 + kUnrelated);
  const size_t before = resolver.OutstandingQueryCount();
  EXPECT_GT(before, 1 + kUnrelated) << "the FF request should fan out";
  // t=1.1 s: the FF request's deadline tore down its subtree. The root was
  // waiting on its children, so every one of its queries is gone and
  // exactly the unrelated ones remain.
  bed.RunFor(Milliseconds(200));
  EXPECT_EQ(resolver.ActiveRequestCount(), kUnrelated);
  EXPECT_EQ(resolver.OutstandingQueryCount(), kUnrelated);
  EXPECT_EQ(ff.failed(), 1u);
}

}  // namespace
}  // namespace dcc
