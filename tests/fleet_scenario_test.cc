// Fleet scenario-layer tests: replicate materialization determinism, the
// JSON-path-qualified diagnostics for malformed frontend specs, and the
// seeded fleet_blackout.json deliverable (benign success floor, budget-
// bounded re-steer burst, replay-identical event counts).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"
#include "src/search/mutation.h"
#include "tests/example_specs.h"

namespace dcc {
namespace scenario {
namespace {

using testing_specs::LoadExampleSpec;

// A frontend spec built in code: one auth, a 3-member replicated fleet, one
// client. Tests perturb copies.
ScenarioSpec FleetSpec() {
  ScenarioSpec spec;
  spec.name = "fleet";
  spec.horizon = Seconds(5);
  ZoneSpec zone;
  zone.id = "target";
  zone.apex = "target-domain";
  spec.zones.push_back(zone);
  NodeSpec ans;
  ans.id = "ans";
  ans.kind = NodeKind::kAuthoritative;
  ans.zones.push_back("target");
  spec.nodes.push_back(ans);
  NodeSpec frontend;
  frontend.id = "front";
  frontend.kind = NodeKind::kFrontend;
  frontend.replicate = 3;
  frontend.has_member_template = true;
  frontend.member_template.hints.push_back({"target", "ans"});
  spec.nodes.push_back(frontend);
  ClientSpec client;
  client.label = "c";
  client.qps = 10;
  client.zone = "target";
  client.resolvers.push_back("front");
  spec.clients.push_back(client);
  return spec;
}

std::string ValidationError(ScenarioSpec spec) {
  std::string error;
  EXPECT_FALSE(ValidateScenarioSpec(&spec, &error));
  return error;
}

// --- satellite: replicate materialization is spec-order deterministic -------

TEST(FleetMaterializeTest, ReplicateInsertsMembersRightAfterTheFrontend) {
  ScenarioSpec spec = FleetSpec();
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  // Node order after materialization: ans, front, front-r1..front-r3. The
  // address assigned to every node is a pure function of this order, so the
  // generated ids must land at fixed indices (10.0.0.3 .. 10.0.0.5).
  ASSERT_EQ(spec.nodes.size(), 5u);
  EXPECT_EQ(spec.nodes[0].id, "ans");
  EXPECT_EQ(spec.nodes[1].id, "front");
  EXPECT_EQ(spec.nodes[2].id, "front-r1");
  EXPECT_EQ(spec.nodes[3].id, "front-r2");
  EXPECT_EQ(spec.nodes[4].id, "front-r3");
  EXPECT_EQ(spec.nodes[1].members,
            (std::vector<std::string>{"front-r1", "front-r2", "front-r3"}));
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(spec.nodes[i].kind, NodeKind::kResolver);
    ASSERT_EQ(spec.nodes[i].hints.size(), 1u);
    EXPECT_EQ(spec.nodes[i].hints[0].node, "ans");
  }
  // Materialization zeroed `replicate`, so re-validating is a no-op: no
  // duplicate members, identical node list.
  ScenarioSpec again = spec;
  ASSERT_TRUE(ValidateScenarioSpec(&again, &error)) << error;
  ASSERT_EQ(again.nodes.size(), spec.nodes.size());
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    EXPECT_EQ(again.nodes[i].id, spec.nodes[i].id);
  }
  EXPECT_EQ(again.nodes[1].members, spec.nodes[1].members);
}

TEST(FleetMaterializeTest, RoundTripThroughJsonPreservesMaterializedOrder) {
  ScenarioSpec spec = FleetSpec();
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  const std::string text = WriteScenarioSpec(spec);
  ScenarioSpec parsed;
  ASSERT_TRUE(ParseScenarioSpec(text, &parsed, &error)) << error;
  ASSERT_TRUE(ValidateScenarioSpec(&parsed, &error)) << error;
  ASSERT_EQ(parsed.nodes.size(), spec.nodes.size());
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    EXPECT_EQ(parsed.nodes[i].id, spec.nodes[i].id);
  }
}

// --- satellite: path-qualified diagnostics ----------------------------------

TEST(FleetParseTest, UnknownNodeKindNamesThePath) {
  const char* text = R"({
    "name": "x", "zones": [], "clients": [],
    "nodes": [{"id": "n", "kind": "balancer"}]
  })";
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(text, &spec, &error));
  EXPECT_NE(error.find("nodes[0].kind"), std::string::npos) << error;
  EXPECT_NE(error.find("balancer"), std::string::npos) << error;
  EXPECT_NE(error.find("frontend"), std::string::npos) << error;
}

TEST(FleetParseTest, BadSteeringPolicyNamesThePath) {
  const char* text = R"({
    "name": "x", "zones": [], "clients": [],
    "nodes": [{"id": "n", "kind": "frontend",
               "frontend": {"steering": "random"}, "members": ["r"]}]
  })";
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(text, &spec, &error));
  EXPECT_NE(error.find("nodes[0].frontend.steering"), std::string::npos)
      << error;
}

TEST(FleetParseTest, ResolverOnlyKeysAreRejectedOnFrontends) {
  const char* text = R"({
    "name": "x", "zones": [], "clients": [],
    "nodes": [{"id": "n", "kind": "frontend", "members": ["r"],
               "dcc_enabled": true}]
  })";
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(text, &spec, &error));
  EXPECT_NE(error.find("nodes[0]"), std::string::npos) << error;
  EXPECT_NE(error.find("dcc_enabled"), std::string::npos) << error;
}

TEST(FleetValidateTest, EmptyMemberListNamesThePath) {
  ScenarioSpec spec = FleetSpec();
  spec.nodes[1].replicate = 0;
  spec.nodes[1].has_member_template = false;
  const std::string error = ValidationError(std::move(spec));
  EXPECT_NE(error.find("nodes[1].members"), std::string::npos) << error;
}

TEST(FleetValidateTest, ReplicateWithoutTemplateNamesThePath) {
  ScenarioSpec spec = FleetSpec();
  spec.nodes[1].has_member_template = false;
  const std::string error = ValidationError(std::move(spec));
  EXPECT_NE(error.find("nodes[1].member_template"), std::string::npos)
      << error;
}

TEST(FleetValidateTest, MemberMustBeAResolverOrForwarder) {
  ScenarioSpec spec = FleetSpec();
  spec.nodes[1].replicate = 0;
  spec.nodes[1].has_member_template = false;
  spec.nodes[1].members.push_back("ans");  // An authoritative: rejected.
  const std::string error = ValidationError(std::move(spec));
  EXPECT_NE(error.find("nodes[1].members[0]"), std::string::npos) << error;
}

TEST(FleetValidateTest, RotationActiveBeyondFleetSizeNamesThePath) {
  ScenarioSpec spec = FleetSpec();
  spec.nodes[1].frontend.rotation_active = 4;  // Fleet has 3 members.
  const std::string error = ValidationError(std::move(spec));
  EXPECT_NE(error.find("nodes[1].frontend.rotation_active"),
            std::string::npos)
      << error;
}

// --- satellite: failover robustness on the seeded deliverable spec ----------

TEST(FleetBlackoutTest, BenignClientsStayAboveFloorWithBoundedResteerBurst) {
  const ScenarioSpec spec = LoadExampleSpec("fleet_blackout.json");
  ScenarioOutcome outcome;
  std::string error;
  ASSERT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;

  // Documented benign floor for the seeded run (EXPERIMENTS.md): every
  // benign client rides through the 15 s member blackout at >= 97%.
  ASSERT_EQ(outcome.clients.size(), 3u);
  for (const ClientOutcome& client : outcome.clients) {
    EXPECT_FALSE(client.is_attacker);
    EXPECT_GE(client.success_ratio, 0.97) << client.label;
  }

  ASSERT_EQ(outcome.frontends.size(), 1u);
  const FrontendOutcome& frontend = outcome.frontends[0];
  EXPECT_EQ(frontend.members.size(), 3u);
  // The blackout forced failover, and every member recovered by the end.
  EXPECT_GT(frontend.resteers, 0u);
  for (const FrontendMemberOutcome& member : frontend.members) {
    EXPECT_TRUE(member.healthy_at_end) << member.node;
    EXPECT_GT(member.steered, 0u) << member.node;
  }
  // Re-steer burst is token-bucket bounded: grants can never exceed
  // burst + rate * horizon, independent of attack or fault pressure.
  const auto& config = spec.nodes[1].frontend;
  const double bound = config.resteer_budget_burst +
                       config.resteer_budget_qps * ToSeconds(spec.horizon);
  EXPECT_LE(static_cast<double>(frontend.resteers), bound);
}

TEST(FleetBlackoutTest, ReplayIsEventForEventIdentical) {
  const ScenarioSpec spec = LoadExampleSpec("fleet_blackout.json");
  ScenarioOutcome first;
  ScenarioOutcome second;
  std::string error;
  ASSERT_TRUE(RunScenarioSpec(spec, {}, &first, &error)) << error;
  ASSERT_TRUE(RunScenarioSpec(spec, {}, &second, &error)) << error;
  EXPECT_EQ(first.events_executed, second.events_executed);
  ASSERT_EQ(first.frontends.size(), 1u);
  ASSERT_EQ(second.frontends.size(), 1u);
  EXPECT_EQ(first.frontends[0].resteers, second.frontends[0].resteers);
  for (size_t i = 0; i < first.frontends[0].members.size(); ++i) {
    EXPECT_EQ(first.frontends[0].members[i].steered,
              second.frontends[0].members[i].steered);
  }
}

TEST(FleetRotationTest, RotationSpecRunsAndRotates) {
  const ScenarioSpec spec = LoadExampleSpec("fleet_rotation_ff.json");
  ScenarioOutcome outcome;
  std::string error;
  ASSERT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
  ASSERT_EQ(outcome.frontends.size(), 1u);
  const FrontendOutcome& frontend = outcome.frontends[0];
  // 2 s period over a 40 s horizon: the epoch kept moving.
  EXPECT_GE(frontend.rotations, 15u);
  // Documented floor: benign clients keep >= 85% under the FF flood (the
  // pinned single-resolver baseline in EXPERIMENTS.md sits near 52%).
  for (const ClientOutcome& client : outcome.clients) {
    if (!client.is_attacker) {
      EXPECT_GE(client.success_ratio, 0.85) << client.label;
    }
  }
}

// --- fleet-aware search mutations -------------------------------------------

TEST(FleetMutationTest, OpsApplyDeterministicallyAndRevalidate) {
  using search::ApplyMutation;
  using search::MutationStep;
  ScenarioSpec base = LoadExampleSpec("fleet_blackout.json");
  std::string validate_error;
  ASSERT_TRUE(ValidateScenarioSpec(&base, &validate_error)) << validate_error;
  const search::MutationOp ops[] = {search::MutationOp::kRotatePeriod,
                                    search::MutationOp::kFleetSize,
                                    search::MutationOp::kSteeringPolicy};
  for (search::MutationOp op : ops) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      MutationStep step{op, seed};
      ScenarioSpec a = base;
      ScenarioSpec b = base;
      std::string error_a;
      std::string error_b;
      const bool ok_a = ApplyMutation(&a, step, &error_a);
      const bool ok_b = ApplyMutation(&b, step, &error_b);
      EXPECT_EQ(ok_a, ok_b) << search::MutationOpName(op);
      ASSERT_TRUE(ok_a) << search::MutationOpName(op) << ": " << error_a;
      EXPECT_EQ(WriteScenarioSpec(a), WriteScenarioSpec(b))
          << search::MutationOpName(op) << " seed " << seed;
    }
  }
}

TEST(FleetMutationTest, OpsFailGracefullyWithoutFrontends) {
  ScenarioSpec spec = LoadExampleSpec("fig8_wc.json");
  std::string error;
  EXPECT_FALSE(search::ApplyMutation(
      &spec, {search::MutationOp::kRotatePeriod, 1}, &error));
  EXPECT_NE(error.find("no frontend"), std::string::npos) << error;
}

TEST(FleetMutationTest, FleetSizeStaysWithinBounds) {
  using search::ApplyMutation;
  ScenarioSpec base = LoadExampleSpec("fleet_blackout.json");
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&base, &error)) << error;
  ScenarioSpec spec = base;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ScenarioSpec next = spec;
    if (search::ApplyMutation(&next, {search::MutationOp::kFleetSize, seed},
                              &error)) {
      spec = std::move(next);
    }
    const NodeSpec* frontend = nullptr;
    for (const NodeSpec& node : spec.nodes) {
      if (node.kind == NodeKind::kFrontend) {
        frontend = &node;
      }
    }
    ASSERT_NE(frontend, nullptr);
    EXPECT_GE(frontend->members.size(), 1u);
    EXPECT_LE(frontend->members.size(), search::kMaxFleetMembers);
  }
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
