// Tests for the declarative scenario layer (src/scenario): JSON parse and
// validation diagnostics, write -> parse round-trip exactness of every
// committed spec under examples/scenarios/, and golden runs of the
// paper-figure spec files (and their JSON round-trips).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"
#include "tests/example_specs.h"

namespace dcc {
namespace scenario {
namespace {

// A minimal valid spec: one auth serving the target zone, one resolver, one
// client. Tests below perturb copies of it.
ScenarioSpec BaseSpec() {
  ScenarioSpec spec;
  spec.name = "base";
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
  NodeSpec resolver;
  resolver.id = "resolver";
  resolver.kind = NodeKind::kResolver;
  resolver.hints.push_back({"target", "ans"});
  spec.nodes.push_back(resolver);
  ClientSpec client;
  client.label = "c";
  client.qps = 10;
  client.zone = "target";
  client.resolvers.push_back("resolver");
  spec.clients.push_back(client);
  return spec;
}

std::string ValidationError(ScenarioSpec spec) {
  std::string error;
  EXPECT_FALSE(ValidateScenarioSpec(&spec, &error));
  return error;
}

TEST(SpecParseTest, MalformedJsonReportsByteOffset) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec("{\"name\": }", &spec, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(SpecParseTest, UnknownKeyReportsJsonPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"nodes\": [{\"id\": \"a\", \"kind\": \"auth\", \"bogus\": 1}]}",
      &spec, &error));
  EXPECT_NE(error.find("nodes[0]"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(SpecParseTest, WrongTypeReportsJsonPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"clients\": [{\"label\": \"c\", \"qps\": \"fast\"}]}", &spec, &error));
  EXPECT_NE(error.find("clients[0]"), std::string::npos) << error;
}

TEST(SpecParseTest, BadPatternNameReportsPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"clients\": [{\"label\": \"c\", \"pattern\": \"zz\"}]}", &spec,
      &error));
  EXPECT_NE(error.find("pattern"), std::string::npos) << error;
}

TEST(SpecValidateTest, AcceptsBaseSpecAndMaterializes) {
  ScenarioSpec spec = BaseSpec();
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  // Derived fields are pinned: client stop -> horizon, seed -> seed*101+i,
  // jitter seed -> seed*13+1.
  EXPECT_EQ(spec.clients[0].stop, spec.horizon);
  EXPECT_TRUE(spec.clients[0].has_seed);
  EXPECT_EQ(spec.clients[0].seed, spec.seed * 101);
  EXPECT_EQ(spec.network.jitter_seed, spec.seed * 13 + 1);
  // Idempotent: a second pass changes nothing.
  const std::string once = WriteScenarioSpec(spec);
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  EXPECT_EQ(once, WriteScenarioSpec(spec));
}

TEST(SpecValidateTest, DanglingReferencesAreRejectedWithPaths) {
  {
    ScenarioSpec spec = BaseSpec();
    spec.clients[0].resolvers[0] = "nope";
    EXPECT_NE(ValidationError(spec).find("clients[0]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.nodes[1].hints[0].node = "nope";
    EXPECT_NE(ValidationError(spec).find("nodes[1]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.nodes[0].zones[0] = "nope";
    EXPECT_NE(ValidationError(spec).find("nodes[0]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.measure.trackers.push_back("nope");
    EXPECT_NE(ValidationError(spec).find("trackers"), std::string::npos);
  }
}

TEST(SpecValidateTest, KindMismatchesAreRejected) {
  {
    // DCC shim on an authoritative.
    ScenarioSpec spec = BaseSpec();
    spec.nodes[0].dcc_enabled = true;
    EXPECT_FALSE(ValidationError(spec).empty());
  }
  {
    // Forwarder without upstreams.
    ScenarioSpec spec = BaseSpec();
    NodeSpec fwd;
    fwd.id = "fwd";
    fwd.kind = NodeKind::kForwarder;
    spec.nodes.push_back(fwd);
    EXPECT_NE(ValidationError(spec).find("upstreams"), std::string::npos);
  }
  {
    // Clients cannot resolve via an authoritative.
    ScenarioSpec spec = BaseSpec();
    spec.clients[0].resolvers[0] = "ans";
    EXPECT_FALSE(ValidationError(spec).empty());
  }
  {
    // Bad ranges.
    ScenarioSpec spec = BaseSpec();
    spec.network.loss_probability = 1.5;
    EXPECT_NE(ValidationError(spec).find("loss_probability"), std::string::npos);
  }
}

// Every committed spec — the paper-figure setups, the fleet and chain
// examples, and the search corpus under found/ — parses, writes back to text
// that re-parses to the same spec, and validates; its materialized form
// round-trips too.
TEST(SpecRoundTripTest, ExampleSpecsParseAndValidate) {
  const std::filesystem::path root =
      std::filesystem::path(DCC_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::path& dir : {root, root / "found"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 16u) << "examples/scenarios/ lost its spec files";
  for (const std::filesystem::path& file : files) {
    SCOPED_TRACE(file.string());
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(LoadScenarioSpecFile(file.string(), &spec, &error)) << error;
    const std::string text = WriteScenarioSpec(spec);
    ScenarioSpec reparsed;
    ASSERT_TRUE(ParseScenarioSpec(text, &reparsed, &error)) << error;
    EXPECT_EQ(text, WriteScenarioSpec(reparsed));

    ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
    EXPECT_FALSE(spec.nodes.empty());
    EXPECT_FALSE(spec.clients.empty());
    const std::string materialized = WriteScenarioSpec(spec);
    ASSERT_TRUE(ParseScenarioSpec(materialized, &reparsed, &error)) << error;
    EXPECT_EQ(materialized, WriteScenarioSpec(reparsed));
  }
}

// Golden runs of the paper-figure spec files at trimmed horizons: the loop
// events executed and each client's (sent, succeeded). The numbers were
// recorded from the option-struct runners these files replaced, so a spec
// file that drifts from the topology the paper figures were produced with
// fails here. Fig. 8 runs also end every client schedule at the trimmed
// horizon, as the Fig. 8 command line always did; the other runs only move
// the horizon.
struct GoldenPin {
  const char* file;
  int horizon_s;
  bool trim_schedules;
  size_t events;
  std::vector<std::pair<uint64_t, uint64_t>> clients;
};

const std::vector<GoldenPin>& GoldenPins() {
  static const std::vector<GoldenPin> pins = {
      {"fig4_a.json", 50, false, 112920, {{250, 0}, {90, 44}, {90, 42}, {90, 39}}},
      {"fig4_b.json", 50, false, 121158, {{250, 0}, {143, 58}, {144, 62}, {140, 59}}},
      {"fig4_c.json", 50, false, 119189, {{5000, 715}, {90, 5}, {90, 4}, {90, 4}}},
      {"fig4_d.json", 50, false, 88027, {{250, 0}, {90, 80}, {90, 75}, {90, 75}}},
      {"fig8_wc.json", 12, true, 132097, {{7200, 6702}, {4200, 4198}, {0, 0}, {2200, 703}}},
      {"fig8_nx.json", 12, true, 132162, {{7200, 6702}, {4200, 4198}, {0, 0}, {2200, 704}}},
      {"fig8_cq.json", 12, true, 132635, {{7200, 6707}, {4200, 4198}, {0, 0}, {200, 0}}},
      {"fig8_ff.json", 12, true, 130442, {{7200, 6703}, {4200, 4198}, {0, 0}, {100, 0}}},
      {"fig9_nx.json", 12, false, 188974, {{9004, 8437}, {5251, 5245}, {0, 0}, {1001, 809}}},
      {"fig9_ff.json", 12, false, 205189, {{9004, 7268}, {5251, 5246}, {0, 0}, {101, 0}}},
      {"chaos.json", 20, false, 4844, {{800, 800}}},
      {"chaos_dcc.json", 20, false, 4946, {{800, 800}}},
  };
  return pins;
}

void ExpectPinned(const GoldenPin& pin, const ScenarioOutcome& outcome) {
  EXPECT_EQ(outcome.events_executed, pin.events);
  ASSERT_EQ(outcome.clients.size(), pin.clients.size());
  for (size_t i = 0; i < pin.clients.size(); ++i) {
    EXPECT_EQ(outcome.clients[i].sent, pin.clients[i].first) << "client " << i;
    EXPECT_EQ(outcome.clients[i].succeeded, pin.clients[i].second)
        << "client " << i;
  }
}

TEST(GoldenPinTest, SpecFilesReplayPinnedRuns) {
  for (const GoldenPin& pin : GoldenPins()) {
    SCOPED_TRACE(pin.file);
    ScenarioSpec spec = testing_specs::LoadExampleSpec(pin.file);
    if (pin.trim_schedules) {
      testing_specs::TrimToHorizon(&spec, Seconds(pin.horizon_s));
    } else {
      spec.horizon = Seconds(pin.horizon_s);
    }
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
    ExpectPinned(pin, outcome);

    // The materialized spec's JSON round-trip replays the same run.
    ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
    ScenarioSpec reparsed;
    ASSERT_TRUE(ParseScenarioSpec(WriteScenarioSpec(spec), &reparsed, &error))
        << error;
    ASSERT_TRUE(RunScenarioSpec(reparsed, {}, &outcome, &error)) << error;
    ExpectPinned(pin, outcome);
  }
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
