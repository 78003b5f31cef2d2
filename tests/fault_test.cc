// Unit and integration tests for src/fault: plan parsing/formatting, the
// random plan generator, and the injector's per-event semantics against a
// simulated network.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/dns/codec.h"
#include "src/dns/message.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/telemetry/profiler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace fault {
namespace {

class RecordingNode : public Node {
 public:
  void OnDatagram(Datagram dgram) override {
    payloads.push_back(dgram.payload);
    receive_times.push_back(now());
  }
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<Time> receive_times;
};

// Two-host harness: sends one datagram from 1 to 2 every `interval` over
// [0, horizon) and records deliveries at host 2.
struct LinkHarness {
  LinkHarness() : net(loop) {
    net.RegisterNode(&a, 1);
    net.RegisterNode(&b, 2);
  }

  void SendPeriodically(Duration interval, Duration horizon,
                        std::vector<uint8_t> payload = {0xab}, Time start = 0) {
    for (Time t = start; t < horizon; t += interval) {
      loop.ScheduleAt(t, [this, payload] {
        net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, payload);
      });
    }
  }

  EventLoop loop;
  Network net;
  RecordingNode a;
  RecordingNode b;
};

FaultEvent LinkEvent(FaultType type, Time start, Time end) {
  FaultEvent event;
  event.type = type;
  event.start = start;
  event.end = end;
  return event;
}

TEST(FaultPlanTest, ParsesAllEventTypes) {
  const std::string text = R"(# exercise every keyword
seed 7
loss      start=5s end=10s a=* b=10.0.0.1 p=0.25
delay     start=5s end=8s  a=10.0.0.3 b=10.0.0.1 add=50ms
flap      start=0s end=20s a=10.0.0.3 b=10.0.0.1 period=2s duty=0.5
partition start=10s end=20s group-a=10.0.0.3 group-b=10.0.0.1,10.0.0.2
blackout  start=10s end=30s host=10.0.0.1
crash     start=15s end=25s host=10.0.0.1
corrupt   start=0s end=60s a=* b=* p=0.01
truncate  start=0s end=60s a=* b=* p=0.01
)";
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(text, &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.events.size(), 8u);
  EXPECT_EQ(plan.events[0].type, FaultType::kLinkLoss);
  EXPECT_EQ(plan.events[0].start, Seconds(5));
  EXPECT_EQ(plan.events[0].a, kAnyHost);
  EXPECT_EQ(plan.events[0].b, 0x0a000001u);
  EXPECT_DOUBLE_EQ(plan.events[0].probability, 0.25);
  EXPECT_EQ(plan.events[1].delay, Milliseconds(50));
  EXPECT_EQ(plan.events[2].period, Seconds(2));
  EXPECT_EQ(plan.events[3].group_b,
            (std::vector<HostAddress>{0x0a000001u, 0x0a000002u}));
  EXPECT_EQ(plan.events[4].type, FaultType::kBlackout);
  EXPECT_EQ(plan.events[4].a, 0x0a000001u);
  EXPECT_EQ(plan.events[5].type, FaultType::kCrash);
}

TEST(FaultPlanTest, FormatRoundTrips) {
  const std::string text = R"(seed 3
loss start=1s end=2s a=10.0.0.1 b=* p=0.5
blackout start=2s end=4s host=10.0.0.2
partition start=1s end=3s group-a=10.0.0.1 group-b=10.0.0.2,10.0.0.3
flap start=0s end=10s a=* b=10.0.0.1 period=500ms duty=0.3
)";
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(text, &plan, &error)) << error;
  FaultPlan reparsed;
  ASSERT_TRUE(ParseFaultPlan(FormatFaultPlan(plan), &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  EXPECT_EQ(reparsed.seed, plan.seed);
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].type, plan.events[i].type) << i;
    EXPECT_EQ(reparsed.events[i].start, plan.events[i].start) << i;
    EXPECT_EQ(reparsed.events[i].end, plan.events[i].end) << i;
    EXPECT_EQ(reparsed.events[i].a, plan.events[i].a) << i;
    EXPECT_EQ(reparsed.events[i].b, plan.events[i].b) << i;
    EXPECT_DOUBLE_EQ(reparsed.events[i].probability, plan.events[i].probability)
        << i;
  }
}

TEST(FaultPlanTest, RejectsMalformedLines) {
  FaultPlan plan;
  std::string error;
  // Missing end.
  EXPECT_FALSE(ParseFaultPlan("loss start=1s a=* b=* p=0.5", &plan, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // end <= start.
  EXPECT_FALSE(ParseFaultPlan("loss start=5s end=5s a=* b=* p=0.5", &plan, &error));
  // Blackout without host.
  EXPECT_FALSE(ParseFaultPlan("blackout start=1s end=2s", &plan, &error));
  // Unknown keyword.
  EXPECT_FALSE(ParseFaultPlan("meteor start=1s end=2s host=10.0.0.1", &plan, &error));
  // Loss without probability.
  EXPECT_FALSE(ParseFaultPlan("loss start=1s end=2s a=* b=*", &plan, &error));
  // Bad address.
  EXPECT_FALSE(
      ParseFaultPlan("blackout start=1s end=2s host=not-an-ip", &plan, &error));
}

// strtod takes "inf", "nan" and "1e300"; none of them is a time or a
// probability, and a duration past INT64_MAX microseconds cannot be stored.
TEST(FaultPlanTest, RejectsNonFiniteAndOverflowingNumbers) {
  FaultPlan plan;
  std::string error;
  for (const char* line : {
           "blackout start=infs end=25s host=10.0.0.1",
           "blackout start=nan end=25s host=10.0.0.1",
           "blackout start=1s end=1e300 host=10.0.0.1",
           "blackout start=1s end=9300000000000s host=10.0.0.1",
           "delay start=1s end=2s a=* b=* add=infms",
           "flap start=0s end=10s a=* b=* period=1e17ms duty=0.5",
           "flap start=0s end=10s a=* b=* period=1s duty=nan",
           "loss start=1s end=2s a=* b=* p=nan",
           "corrupt start=1s end=2s a=* b=* p=inf",
       }) {
    const std::string text = std::string("seed 1\n") + line;
    EXPECT_FALSE(ParseFaultPlan(text, &plan, &error)) << line;
    EXPECT_EQ(error.rfind("line 2: bad value for '", 0), 0u) << line << ": " << error;
  }
  // The largest durations that fit still parse and format back.
  ASSERT_TRUE(ParseFaultPlan("blackout start=1s end=9000000000000s host=10.0.0.1",
                             &plan, &error))
      << error;
  EXPECT_EQ(plan.events[0].end, Seconds(9000000000000));
  FaultPlan reparsed;
  ASSERT_TRUE(ParseFaultPlan(FormatFaultPlan(plan), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.events[0].end, plan.events[0].end);
}

TEST(FaultPlanTest, RejectsSeedsThatDoNotFitUnsigned64) {
  FaultPlan plan;
  std::string error;
  for (const char* seed : {"-1", "-0", "18446744073709551616", "99999999999999999999999"}) {
    const std::string text = std::string("seed ") + seed + "\n";
    EXPECT_FALSE(ParseFaultPlan(text, &plan, &error)) << seed;
    EXPECT_EQ(error.rfind("line 1: bad seed value '", 0), 0u) << seed << ": " << error;
  }
  ASSERT_TRUE(ParseFaultPlan("seed 18446744073709551615\n", &plan, &error)) << error;
  EXPECT_EQ(plan.seed, UINT64_MAX);
  EXPECT_NE(FormatFaultPlan(plan).find("seed 18446744073709551615"), std::string::npos);
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndBounded) {
  RandomFaultOptions options;
  options.seed = 99;
  options.horizon = Seconds(30);
  options.hosts = {1, 2, 3};
  options.events_per_minute = 20;
  FaultPlan plan = MakeRandomFaultPlan(options);
  EXPECT_FALSE(plan.empty());
  for (const FaultEvent& event : plan.events) {
    EXPECT_GE(event.start, 0);
    EXPECT_GT(event.end, event.start);
    EXPECT_LE(event.end, options.horizon);
  }
  // Same options => identical plan (text form compares everything).
  EXPECT_EQ(FormatFaultPlan(plan), FormatFaultPlan(MakeRandomFaultPlan(options)));
  options.seed = 100;
  EXPECT_NE(FormatFaultPlan(plan), FormatFaultPlan(MakeRandomFaultPlan(options)));
}

TEST(FaultInjectorTest, LossWindowDropsOnlyInsideWindow) {
  LinkHarness h;
  FaultPlan plan;
  FaultEvent loss = LinkEvent(FaultType::kLinkLoss, Seconds(1), Seconds(2));
  loss.b = 2;
  loss.probability = 1.0;
  plan.events.push_back(loss);
  FaultInjector injector(h.net, plan);
  injector.Arm();
  h.SendPeriodically(Milliseconds(100), Seconds(3));  // 30 datagrams.
  h.loop.Run();
  // The 10 sends inside [1s, 2s) are dropped.
  EXPECT_EQ(h.b.payloads.size(), 20u);
  EXPECT_EQ(injector.datagrams_dropped(), 10u);
  for (Time t : h.b.receive_times) {
    EXPECT_TRUE(t < Seconds(1) || t >= Seconds(2)) << t;
  }
}

TEST(FaultInjectorTest, DelaySpikeShiftsDeliveries) {
  EventLoop loop;
  Network net(loop, Milliseconds(1));
  RecordingNode a, b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  FaultPlan plan;
  FaultEvent spike = LinkEvent(FaultType::kLinkDelay, Seconds(1), Seconds(2));
  spike.delay = Milliseconds(200);
  plan.events.push_back(spike);
  FaultInjector injector(net, plan);
  injector.Arm();
  loop.ScheduleAt(Milliseconds(500), [&net] {
    net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
  });
  loop.ScheduleAt(Milliseconds(1500), [&net] {
    net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {2});
  });
  loop.Run();
  ASSERT_EQ(b.receive_times.size(), 2u);
  EXPECT_EQ(b.receive_times[0], Milliseconds(501));   // Outside the spike.
  EXPECT_EQ(b.receive_times[1], Milliseconds(1701));  // +200 ms inside it.
}

TEST(FaultInjectorTest, FlapAlternatesDownAndUpPhases) {
  LinkHarness h;
  FaultPlan plan;
  FaultEvent flap = LinkEvent(FaultType::kLinkFlap, 0, Seconds(4));
  flap.period = Seconds(2);
  flap.duty_down = 0.5;
  plan.events.push_back(flap);
  FaultInjector injector(h.net, plan);
  injector.Arm();
  // One send per 100 ms, offset 50 ms so no send lands exactly on a phase
  // flip (event order at equal timestamps is insertion order, which would
  // make the boundary sends see the previous phase).
  // Phases are [down 1s][up 1s][down 1s][up 1s].
  h.SendPeriodically(Milliseconds(100), Seconds(4), {0xab}, Milliseconds(50));
  h.loop.Run();
  EXPECT_EQ(h.b.payloads.size(), 20u);
  for (Time t : h.b.receive_times) {
    const Time phase = t % Seconds(2);
    EXPECT_GE(phase, Seconds(1)) << t;  // Deliveries only in up phases.
  }
}

TEST(FaultInjectorTest, PartitionCutsOnlyCrossGroupLinks) {
  EventLoop loop;
  Network net(loop);
  RecordingNode n1, n2, n3;
  net.RegisterNode(&n1, 1);
  net.RegisterNode(&n2, 2);
  net.RegisterNode(&n3, 3);
  FaultPlan plan;
  FaultEvent part = LinkEvent(FaultType::kPartition, Seconds(1), Seconds(2));
  part.group_a = {1};
  part.group_b = {2, 3};
  plan.events.push_back(part);
  FaultInjector injector(net, plan);
  injector.Arm();
  auto send_all = [&net](Time t, EventLoop& l) {
    l.ScheduleAt(t, [&net] {
      net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, {1});
      net.Send(Endpoint{1, 1000}, Endpoint{3, 53}, {1});
      net.Send(Endpoint{2, 1000}, Endpoint{3, 53}, {1});
      net.Send(Endpoint{2, 1000}, Endpoint{1, 53}, {1});
    });
  };
  send_all(Milliseconds(1500), loop);  // During the partition.
  send_all(Milliseconds(2500), loop);  // After it heals.
  loop.Run();
  // During: only 2->3 passes. After: everything passes.
  EXPECT_EQ(n2.payloads.size(), 1u);
  EXPECT_EQ(n3.payloads.size(), 3u);
  EXPECT_EQ(n1.payloads.size(), 1u);
}

TEST(FaultInjectorTest, CrashInvokesHandlersAndBlocksHost) {
  LinkHarness h;
  FaultPlan plan;
  FaultEvent crash = LinkEvent(FaultType::kCrash, Seconds(1), Seconds(2));
  crash.a = 2;
  plan.events.push_back(crash);
  FaultInjector injector(h.net, plan);
  int crashes = 0;
  int restarts = 0;
  injector.SetCrashHandler(
      2, [&crashes] { ++crashes; }, [&restarts] { ++restarts; });
  injector.Arm();
  h.SendPeriodically(Milliseconds(500), Seconds(3));
  h.loop.Run();
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(restarts, 1);
  // Sends at 1.0s and 1.5s hit the downed host.
  EXPECT_EQ(h.b.payloads.size(), 4u);
}

TEST(FaultInjectorTest, CorruptionSurvivesCodec) {
  LinkHarness h;
  FaultPlan plan;
  plan.seed = 5;
  FaultEvent corrupt = LinkEvent(FaultType::kCorruption, 0, Seconds(10));
  corrupt.probability = 1.0;
  plan.events.push_back(corrupt);
  FaultInjector injector(h.net, plan);
  injector.Arm();
  Message query;
  query.header.id = 1234;
  query.question.push_back(Question{*Name::Parse("a.example"), RecordType::kA});
  h.SendPeriodically(Milliseconds(100), Seconds(5), EncodeMessage(query));
  h.loop.Run();
  ASSERT_EQ(h.b.payloads.size(), 50u);
  EXPECT_EQ(injector.datagrams_corrupted(), 50u);
  // Every payload must decode cleanly or fail cleanly — never crash. With
  // 1-3 flipped bytes most are damaged in a detectable way; at least the
  // header id or question differs for some.
  size_t intact = 0;
  for (const auto& payload : h.b.payloads) {
    auto decoded = DecodeMessage(payload);
    if (decoded.has_value() && decoded->header.id == 1234 &&
        !decoded->question.empty() && decoded->Q().qname == query.Q().qname) {
      ++intact;
    }
  }
  EXPECT_LT(intact, h.b.payloads.size());
}

TEST(FaultInjectorTest, TruncationShortensButNeverEmpties) {
  LinkHarness h;
  FaultPlan plan;
  plan.seed = 6;
  FaultEvent trunc = LinkEvent(FaultType::kTruncation, 0, Seconds(10));
  trunc.probability = 1.0;
  plan.events.push_back(trunc);
  FaultInjector injector(h.net, plan);
  injector.Arm();
  Message query;
  query.header.id = 77;
  query.question.push_back(Question{*Name::Parse("b.example"), RecordType::kA});
  const std::vector<uint8_t> wire = EncodeMessage(query);
  h.SendPeriodically(Milliseconds(100), Seconds(5), wire);
  h.loop.Run();
  ASSERT_EQ(h.b.payloads.size(), 50u);
  EXPECT_EQ(injector.datagrams_truncated(), 50u);
  for (const auto& payload : h.b.payloads) {
    EXPECT_GE(payload.size(), 1u);
    EXPECT_LT(payload.size(), wire.size());
    DecodeMessage(payload);  // Must not crash.
  }
}

// Keeps each delivered payload as it came, so the receiver reads no bytes.
class PayloadSink : public Node {
 public:
  void OnDatagram(Datagram dgram) override { payloads.push_back(std::move(dgram.payload)); }
  std::vector<WireBytes> payloads;
};

// A truncate window reads the bytes of the datagrams it truncates and of no
// other: a message payload it passes over is delivered without an encode.
TEST(FaultInjectorTest, TruncationEncodesOnlyWhatItTruncates) {
  EventLoop loop;
  Network net(loop);
  RecordingNode a;
  PayloadSink b;
  net.RegisterNode(&a, 1);
  net.RegisterNode(&b, 2);
  FaultPlan plan;
  plan.seed = 8;
  FaultEvent trunc = LinkEvent(FaultType::kTruncation, 0, Seconds(10));
  trunc.probability = 0.5;
  plan.events.push_back(trunc);
  FaultInjector injector(net, plan);
  injector.Arm();
  Message query;
  query.header.id = 78;
  query.question.push_back(Question{*Name::Parse("c.example"), RecordType::kA});
  for (Time t = 0; t < Seconds(5); t += Milliseconds(100)) {
    loop.ScheduleAt(t, [&net, query] {
      net.Send(Endpoint{1, 1000}, Endpoint{2, 53}, WireBytes(query));
    });
  }
  prof::Reset();
  prof::Enable();
  loop.Run();
  prof::Disable();
  const prof::CopyCounters copies = prof::Snapshot().copies;
  prof::Reset();

  ASSERT_EQ(b.payloads.size(), 50u);
  EXPECT_GT(injector.datagrams_truncated(), 0u);
  EXPECT_LT(injector.datagrams_truncated(), 50u);
  EXPECT_EQ(copies.encode_calls, injector.datagrams_truncated());
  size_t carried = 0;
  for (const WireBytes& payload : b.payloads) {
    carried += payload.Carried<Message>() != nullptr ? 1 : 0;
  }
  EXPECT_EQ(carried, 50u - injector.datagrams_truncated());
}

TEST(FaultInjectorTest, SeededPlanReplaysIdentically) {
  auto run = [](uint64_t seed) {
    LinkHarness h;
    FaultPlan plan;
    plan.seed = seed;
    FaultEvent loss = LinkEvent(FaultType::kLinkLoss, 0, Seconds(5));
    loss.probability = 0.4;
    plan.events.push_back(loss);
    FaultEvent corrupt = LinkEvent(FaultType::kCorruption, 0, Seconds(5));
    corrupt.probability = 0.3;
    plan.events.push_back(corrupt);
    FaultInjector injector(h.net, plan);
    injector.Arm();
    h.SendPeriodically(Milliseconds(10), Seconds(5), {1, 2, 3, 4, 5, 6, 7, 8});
    h.loop.Run();
    return h.b.payloads;
  };
  const auto first = run(42);
  EXPECT_EQ(first, run(42));   // Bit-for-bit replay.
  EXPECT_NE(first, run(43));   // Seed changes the fault stream.
}

TEST(FaultInjectorTest, CountsActivationsInTelemetry) {
  LinkHarness h;
  telemetry::MetricsRegistry registry;
  FaultPlan plan;
  FaultEvent black = LinkEvent(FaultType::kBlackout, Seconds(1), Seconds(2));
  black.a = 2;
  plan.events.push_back(black);
  FaultEvent loss = LinkEvent(FaultType::kLinkLoss, 0, Seconds(3));
  loss.probability = 1.0;
  loss.b = 2;
  plan.events.push_back(loss);
  telemetry::Observer obs(&registry, nullptr, nullptr);
  FaultInjector injector(h.net, plan, &obs);
  injector.Arm();
  h.SendPeriodically(Milliseconds(500), Seconds(3));
  h.loop.Run();
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("fault_events_total", {{"type", "blackout"}}), 1.0);
  EXPECT_EQ(snapshot.Value("fault_events_total", {{"type", "link_loss"}}), 1.0);
  EXPECT_EQ(snapshot.Value("fault_datagrams_total", {{"effect", "dropped"}}),
            static_cast<double>(injector.datagrams_dropped()));
  EXPECT_EQ(injector.activations(), 2u);
}

TEST(FaultInjectorTest, CrashCoversServersAddedAfterPlanInstall) {
  // Regression: InstallFaultPlan used to register crash handlers only for
  // servers that already existed, so a plan installed before topology
  // construction silently skipped the CrashReset. Handlers must cover
  // servers added after the plan too.
  Testbed bed;
  FaultPlan plan;
  FaultEvent crash;
  crash.type = FaultType::kCrash;
  crash.start = Seconds(2);
  crash.end = Milliseconds(2100);
  crash.a = 0x0a000002;  // The resolver below — not yet built.
  plan.events.push_back(crash);
  FaultInjector& injector = bed.InstallFaultPlan(plan);

  const Name apex = *Name::Parse("target-domain");
  const HostAddress ans_addr = bed.NextAddress();
  AuthoritativeServer& ans = bed.AddAuthoritative(ans_addr);
  ans.AddZone(MakeTargetZone(apex, ans_addr));

  const HostAddress resolver_addr = bed.NextAddress();
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr);
  resolver.AddAuthorityHint(apex, ans_addr);

  // One fixed name (600 s TTL), asked once before and once after the crash;
  // both queries land outside the [2.0 s, 2.1 s) outage window.
  StubConfig config;
  config.stop = Seconds(10);
  config.timeout = Seconds(1);
  StubClient& stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(apex, 7, 1));
  stub.AddResolver(resolver_addr);
  stub.StartWithSchedule({Seconds(1), Seconds(3)});
  bed.RunFor(Milliseconds(1500));
  const uint64_t cold_queries = ans.queries_received();
  EXPECT_GT(cold_queries, 0u);
  bed.RunFor(Milliseconds(4500));

  EXPECT_EQ(injector.activations(), 1u);
  EXPECT_EQ(stub.succeeded(), 2u);
  // The crash cleared the resolver cache: the second, otherwise cache-hit
  // resolution repeats the full cold-cache upstream sequence.
  EXPECT_EQ(ans.queries_received(), 2 * cold_queries);
}

}  // namespace
}  // namespace fault
}  // namespace dcc
