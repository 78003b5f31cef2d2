// Tests for the declarative scenario layer (src/scenario): JSON parse and
// validation diagnostics, numbers outside their member's type, seeded
// mutations of every committed spec, write -> parse round-trip exactness of
// every committed spec under examples/scenarios/, and golden runs of the
// paper-figure spec files (and their JSON round-trips).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
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

// A number is read through its member's C++ type: one the member cannot
// hold is rejected at its JSON path instead of wrapping, truncating or
// running as infinity.
TEST(SpecParseTest, NumbersTheMemberCannotHoldAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"nodes": [{"id": "r", "kind": "resolver",
                      "resolver": {"upstream_retries": 1e10}}]})",
       "nodes[0].resolver.upstream_retries: out of range [-2147483648, 2147483647]"},
      {R"({"nodes": [{"id": "r", "kind": "resolver",
                      "resolver": {"stale_answer_ttl": -5}}]})",
       "nodes[0].resolver.stale_answer_ttl: expected a non-negative integer"},
      {R"({"clients": [{"retries": 2.5}]})", "clients[0].retries: expected an integer"},
      {R"({"nodes": [{"id": "r", "kind": "resolver",
                      "dcc": {"countdown_relay_decrement": 70000}}]})",
       "nodes[0].dcc.countdown_relay_decrement: out of range [0, 65535]"},
      {R"({"clients": [{"qps": 1e400}]})", "clients[0].qps: expected a finite number"},
      {R"({"run": {"horizon": 1e300}})",
       "run.horizon: out of range for a duration in microseconds"},
  };
  for (const auto& [text, expected] : cases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ParseScenarioSpec(text, &spec, &error)) << text;
    EXPECT_EQ(error, expected);
  }
}

// The extremes each member type holds still parse, and write back exactly.
TEST(SpecParseTest, NumbersAtTheMembersLimitsParseAndRoundTrip) {
  const std::string text = R"({
    "run": {"horizon": 9000000000000, "seed": 18446744073709549568},
    "zones": [{"id": "t", "apex": "t", "ttl": 4294967295}],
    "nodes": [{"id": "r", "kind": "resolver",
               "resolver": {"upstream_retries": -2147483648},
               "dcc": {"countdown_relay_decrement": 65535}}]})";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenarioSpec(text, &spec, &error)) << error;
  EXPECT_EQ(spec.horizon, Seconds(9000000000000));
  EXPECT_EQ(spec.seed, 18446744073709549568ull);
  EXPECT_EQ(spec.zones[0].target.ttl, 4294967295u);
  EXPECT_EQ(spec.nodes[0].resolver.upstream_retries, -2147483647 - 1);
  EXPECT_EQ(spec.nodes[0].dcc.countdown_relay_decrement, 65535);
  const std::string written = WriteScenarioSpec(spec);
  ScenarioSpec reparsed;
  ASSERT_TRUE(ParseScenarioSpec(written, &reparsed, &error)) << error;
  EXPECT_EQ(written, WriteScenarioSpec(reparsed));
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

TEST(SpecValidateTest, DefaultFfSizingThatOverflowsIntIsRejected) {
  // fig8_ff's attacker zone leaves `instances` to the default sizing, FF
  // qps x horizon + 8; a qps that pushes it past int is a spec error at
  // the zone's path, not a wrapped instance count.
  const ScenarioSpec base = testing_specs::LoadExampleSpec("fig8_ff.json");
  size_t zone_index = base.zones.size();
  size_t ff_client = base.clients.size();
  for (size_t i = 0; i < base.zones.size(); ++i) {
    if (base.zones[i].kind == ZoneKind::kAttacker) {
      zone_index = i;
    }
  }
  for (size_t i = 0; i < base.clients.size(); ++i) {
    if (base.clients[i].pattern == QueryPattern::kFf) {
      ff_client = i;
    }
  }
  ASSERT_LT(zone_index, base.zones.size());
  ASSERT_LT(ff_client, base.clients.size());
  ASSERT_LE(base.zones[zone_index].attacker.instances, 0);
  const std::string path = "zones[" + std::to_string(zone_index) + "].instances: ";
  for (double qps : {1e12, 1e300}) {
    ScenarioSpec spec = base;
    spec.clients[ff_client].qps = qps;
    EXPECT_EQ(ValidationError(spec).rfind(path, 0), 0u) << qps;
  }
  // The largest sizing that fits is kept exactly.
  ScenarioSpec spec = base;
  spec.horizon = Seconds(1);
  spec.clients[ff_client].qps = std::numeric_limits<int>::max() - 8;
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  EXPECT_EQ(spec.zones[zone_index].attacker.instances, std::numeric_limits<int>::max());
  spec = base;
  spec.horizon = Seconds(1);
  spec.clients[ff_client].qps = std::numeric_limits<int>::max() - 7;
  EXPECT_EQ(ValidationError(spec).rfind(path, 0), 0u);
}

TEST(SpecValidateTest, ReplicateIsBoundedBeforeAnythingIsBuilt) {
  const ScenarioSpec base = testing_specs::LoadExampleSpec("fleet_blackout.json");
  size_t frontend = base.nodes.size();
  for (size_t i = 0; i < base.nodes.size(); ++i) {
    if (base.nodes[i].replicate > 0) {
      frontend = i;
    }
  }
  ASSERT_LT(frontend, base.nodes.size());
  const std::string path = "nodes[" + std::to_string(frontend) + "].replicate: ";
  for (int replicate : {kMaxReplicate + 1, std::numeric_limits<int>::max(), -1}) {
    ScenarioSpec spec = base;
    spec.nodes[frontend].replicate = replicate;
    EXPECT_EQ(ValidationError(spec).rfind(path, 0), 0u) << replicate;
  }
  ScenarioSpec spec = base;
  spec.nodes[frontend].replicate = kMaxReplicate;
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  EXPECT_EQ(spec.nodes[frontend].members.size(), static_cast<size_t>(kMaxReplicate));
}

// Every committed spec: the paper-figure setups, the fleet and chain
// examples, and the search corpus under found/.
std::vector<std::filesystem::path> CommittedSpecFiles() {
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
  EXPECT_GE(files.size(), 16u) << "examples/scenarios/ lost its spec files";
  return files;
}

// Each committed spec parses, writes back to text that re-parses to the same
// spec, and validates; its materialized form round-trips too.
TEST(SpecRoundTripTest, ExampleSpecsParseAndValidate) {
  for (const std::filesystem::path& file : CommittedSpecFiles()) {
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

// Structure-aware mutations of a spec document. Each mutant edits one to
// three values of the parsed tree: a number becomes huge, negative,
// fractional or non-finite; a string becomes another spec name; a value
// becomes another JSON type; an object key is dropped or renamed. One
// mutant in eight is also truncated as text.
class SpecMutator {
 public:
  explicit SpecMutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const json::Value& doc) {
    std::vector<size_t> numbers;
    std::vector<size_t> strings;
    size_t count = 0;
    Index(doc, &count, &numbers, &strings);
    edits_.clear();
    const int edits = 1 + static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < edits; ++i) {
      const uint64_t pick = rng_.NextBelow(8);
      if (pick < 3 && !numbers.empty()) {
        edits_[numbers[rng_.NextBelow(numbers.size())]] = Edit::kNumber;
      } else if (pick < 4 && !strings.empty()) {
        edits_[strings[rng_.NextBelow(strings.size())]] = Edit::kName;
      } else {
        // Node 0 is the document itself.
        const Edit edit = pick < 6 ? Edit::kType : pick < 7 ? Edit::kDrop : Edit::kRename;
        edits_[1 + rng_.NextBelow(count - 1)] = edit;
      }
    }
    size_t index = 0;
    std::string text = json::Write(Copy(doc, &index), rng_.NextBool(0.5) ? 2 : -1);
    // The writer cannot print a non-finite number; a sentinel stands in.
    for (size_t at; (at = text.find(kInfinitySentinel)) != std::string::npos;) {
      text.replace(at, std::strlen(kInfinitySentinel), "1e400");
    }
    if (rng_.NextBool(0.125)) {
      text.resize(rng_.NextBelow(text.size()));
    }
    return text;
  }

 private:
  enum class Edit { kNumber, kName, kType, kDrop, kRename };
  static constexpr const char* kInfinitySentinel = "1.2345678e+299";

  static void Index(const json::Value& value, size_t* count,
                    std::vector<size_t>* numbers, std::vector<size_t>* strings) {
    const size_t self = (*count)++;
    if (value.is_number()) {
      numbers->push_back(self);
    } else if (value.is_string()) {
      strings->push_back(self);
    }
    for (const json::Value& item : value.AsArray()) {
      Index(item, count, numbers, strings);
    }
    for (const auto& [key, item] : value.AsObject()) {
      Index(item, count, numbers, strings);
    }
  }

  json::Value Replacement(const json::Value& value, Edit edit) {
    static constexpr double kNumbers[] = {
        1e10, -5, 2.5, 70000, -0.5, 4294967296.0, 2147483648.0, 1e19,
        1e300, -1e300, 1.2345678e299, -1.2345678e299, 0.1, 0, 65536, -1};
    static constexpr const char* kNames[] = {
        "auth", "resolver", "forwarder", "frontend", "target", "attacker",
        "ff", "nx_then_wc", "cq", "block", "refused", "least_loaded", "",
        "bogus", "loss start=infs end=25s a=* b=* p=0.5",
        "blackout start=1e300 end=2e300 host=10.0.0.1"};
    if (edit == Edit::kNumber) {
      return json::Value::OfNumber(kNumbers[rng_.NextBelow(std::size(kNumbers))]);
    }
    if (edit == Edit::kName) {
      return json::Value::OfString(kNames[rng_.NextBelow(std::size(kNames))]);
    }
    switch ((static_cast<int>(value.type()) + 1 + rng_.NextBelow(5)) % 6) {
      case 0: return json::Value();
      case 1: return json::Value::OfBool(true);
      case 2: return json::Value::OfNumber(1);
      case 3: return json::Value::OfString("x");
      case 4: return json::Value::MakeArray();
      default: return json::Value::MakeObject();
    }
  }

  // Copies `value` (pre-order node *index), applying the edits.
  json::Value Copy(const json::Value& value, size_t* index) {
    const auto edit = edits_.find((*index)++);
    if (edit != edits_.end() && edit->second != Edit::kDrop &&
        edit->second != Edit::kRename) {
      // The replaced subtree's nodes keep their numbers.
      size_t skipped = 0;
      std::vector<size_t> unused;
      Index(value, &skipped, &unused, &unused);
      *index += skipped - 1;
      return Replacement(value, edit->second);
    }
    if (value.is_array()) {
      json::Value out = json::Value::MakeArray();
      for (const json::Value& item : value.AsArray()) {
        const size_t at = *index;
        json::Value copy = Copy(item, index);
        const auto item_edit = edits_.find(at);
        if (item_edit == edits_.end() || item_edit->second != Edit::kDrop) {
          out.PushBack(std::move(copy));
        }
      }
      return out;
    }
    if (value.is_object()) {
      json::Value out = json::Value::MakeObject();
      for (const auto& [key, item] : value.AsObject()) {
        const size_t at = *index;
        json::Value copy = Copy(item, index);
        const auto item_edit = edits_.find(at);
        if (item_edit == edits_.end()) {
          out.Set(key, std::move(copy));
        } else if (item_edit->second == Edit::kRename) {
          out.Set(key + "x", std::move(copy));
        } else if (item_edit->second != Edit::kDrop) {
          out.Set(key, std::move(copy));
        }
      }
      return out;
    }
    return value;
  }

  Rng rng_;
  std::map<size_t, Edit> edits_;
};

// Whether `error` starts with a JSON path ("nodes[2].dcc.window: ...") or,
// for malformed JSON, ends with the parser's byte offset.
bool Located(const std::string& error) {
  const size_t colon = error.find(": ");
  if (colon != std::string::npos && colon > 0 &&
      error.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_.[]") == colon) {
    return true;
  }
  const size_t offset = error.rfind(" at offset ");
  return offset != std::string::npos &&
         error.find_first_not_of("0123456789", offset + 11) == std::string::npos &&
         offset + 11 < error.size();
}

// Seeded mutants of every committed spec: none may crash or trip a
// sanitizer, each rejection names the JSON path of the bad value (or, for
// broken JSON, its byte offset), and an accepted mutant means what it says:
// it writes back to text that parses to the same spec.
TEST(SpecFuzzTest, MutantsAreRejectedAtAPathOrParseToWhatTheySay) {
  constexpr int kMutantsPerFile = 120;
  int accepted = 0;
  int rejected = 0;
  uint64_t seed = 20;
  for (const std::filesystem::path& file : CommittedSpecFiles()) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    json::Value doc;
    ASSERT_TRUE(json::Parse(text.str(), &doc)) << file;
    SpecMutator mutator(seed++);
    for (int i = 0; i < kMutantsPerFile; ++i) {
      const std::string mutant = mutator.Mutate(doc);
      ScenarioSpec spec;
      std::string error;
      if (!ParseScenarioSpec(mutant, &spec, &error)) {
        ++rejected;
        EXPECT_TRUE(Located(error)) << error << "\n" << mutant;
        continue;
      }
      ++accepted;
      const std::string written = WriteScenarioSpec(spec);
      ScenarioSpec reparsed;
      ASSERT_TRUE(ParseScenarioSpec(written, &reparsed, &error)) << error << "\n" << mutant;
      EXPECT_EQ(written, WriteScenarioSpec(reparsed)) << mutant;
    }
  }
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 500);
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
      {"fig4_a.json", 50, false, 107936, {{250, 0}, {90, 44}, {90, 42}, {90, 39}}},
      {"fig4_b.json", 50, false, 113930, {{250, 0}, {143, 58}, {144, 62}, {140, 59}}},
      {"fig4_c.json", 50, false, 102892, {{5000, 715}, {90, 5}, {90, 4}, {90, 4}}},
      {"fig4_d.json", 50, false, 81840, {{250, 0}, {90, 80}, {90, 75}, {90, 75}}},
      {"fig8_wc.json", 12, true, 93344, {{7200, 6702}, {4200, 4198}, {0, 0}, {2200, 703}}},
      {"fig8_nx.json", 12, true, 93406, {{7200, 6702}, {4200, 4198}, {0, 0}, {2200, 704}}},
      {"fig8_cq.json", 12, true, 95572, {{7200, 6707}, {4200, 4198}, {0, 0}, {200, 0}}},
      {"fig8_ff.json", 12, true, 91471, {{7200, 6703}, {4200, 4198}, {0, 0}, {100, 0}}},
      {"fig9_nx.json", 12, false, 140014, {{9004, 8437}, {5251, 5245}, {0, 0}, {1001, 809}}},
      {"fig9_ff.json", 12, false, 149135, {{9004, 7268}, {5251, 5246}, {0, 0}, {101, 0}}},
      {"chaos.json", 20, false, 3579, {{800, 800}}},
      {"chaos_dcc.json", 20, false, 3681, {{800, 800}}},
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
