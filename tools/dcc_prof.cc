// dcc_prof — renders hot-path profiles captured by the scoped profiler
// (src/telemetry/profiler.h) into human- and flamegraph-readable reports.
//
// Input is either a single profile (dcc_sim run --profile-out) or a
// per-bench collection (dcc_bench --profile-out); both are auto-detected.
//
//   dcc_prof top    PROFILE [--bench NAME] [--limit N]
//   dcc_prof tree   PROFILE [--bench NAME]
//   dcc_prof folded PROFILE [--bench NAME]      # a;b;c <self_us> per line,
//                                               # feed to flamegraph.pl etc.
//   dcc_prof events PROFILE [--bench NAME]
//   dcc_prof copies PROFILE [--bench NAME]
//
// PROFILE may be '-' for stdin. With a bench collection and no --bench,
// top/tree/events/copies print every bench under a header; folded needs a
// single profile (one flamegraph per bench), so --bench is required there.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "tools/cli.h"

namespace {

using dcc::cli::FlagValue;
using dcc::json::Value;

// One selected (label, profile) pair; label is empty for a bare profile.
struct Selected {
  std::string label;
  const Value* profile;
};

// Accepts either the single-profile schema ("tool": "dcc_prof") or the
// dcc_bench collection ("tool": "dcc_bench_profile").
bool SelectProfiles(const Value& doc, const char* bench_filter,
                    std::vector<Selected>* out, std::string* error) {
  const std::string tool = doc.String("tool");
  if (tool == "dcc_prof") {
    out->push_back(Selected{"", &doc});
    return true;
  }
  if (tool != "dcc_bench_profile") {
    *error = "not a dcc_prof or dcc_bench_profile document (tool=\"" + tool +
             "\")";
    return false;
  }
  const Value* benches = doc.Find("benches");
  if (benches == nullptr || !benches->is_array()) {
    *error = "dcc_bench_profile document has no benches array";
    return false;
  }
  for (const Value& row : benches->AsArray()) {
    const std::string name = row.String("name");
    if (bench_filter != nullptr &&
        name.find(bench_filter) == std::string::npos) {
      continue;
    }
    const Value* profile = row.Find("profile");
    if (profile != nullptr && profile->is_object()) {
      out->push_back(Selected{name, profile});
    }
  }
  if (out->empty()) {
    *error = bench_filter != nullptr
                 ? std::string("no bench matches --bench ") + bench_filter
                 : "collection contains no profiles";
    return false;
  }
  return true;
}

void PrintHeaderLine(const Selected& selected) {
  if (!selected.label.empty()) {
    std::printf("== %s ==\n", selected.label.c_str());
  }
}

void PrintSummary(const Value& profile) {
  std::printf("enabled %.1f ms, attributed %.1f ms (%.1f%%), unattributed "
              "%.1f ms\n",
              profile.Number("enabled_wall_ms"),
              profile.Number("attributed_ms"),
              profile.Number("attributed_fraction") * 100.0,
              profile.Number("unattributed_ms"));
}

int CmdTop(const Selected& selected, int limit) {
  PrintHeaderLine(selected);
  const Value& profile = *selected.profile;
  PrintSummary(profile);
  const Value* sites = profile.Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    std::fprintf(stderr, "dcc_prof: profile has no sites\n");
    return 1;
  }
  const double attributed = profile.Number("attributed_ms");
  std::printf("%-28s %12s %12s %12s %7s\n", "site", "calls", "self_ms",
              "total_ms", "self%");
  int shown = 0;
  for (const Value& site : sites->AsArray()) {
    if (limit > 0 && shown >= limit) {
      break;
    }
    const double self_ms = site.Number("self_ms");
    std::printf("%-28s %12.0f %12.3f %12.3f %6.1f%%\n",
                site.String("name").c_str(), site.Number("calls"), self_ms,
                site.Number("total_ms"),
                attributed > 0 ? self_ms / attributed * 100.0 : 0.0);
    ++shown;
  }
  return 0;
}

// The folded rows are an exact path tree; rebuild it for indented display.
struct TreeNode {
  double self_us = 0;
  double calls = 0;
  double subtree_us = 0;  // self + descendants, for ordering.
  std::map<std::string, TreeNode> children;
};

void AccumulateSubtree(TreeNode* node) {
  node->subtree_us = node->self_us;
  for (auto& [name, child] : node->children) {
    AccumulateSubtree(&child);
    node->subtree_us += child.subtree_us;
  }
}

void PrintTree(const TreeNode& node, const std::string& name, int depth) {
  if (depth >= 0) {
    std::printf("%*s%-*s %10.3f ms self %10.3f ms total %10.0f calls\n",
                depth * 2, "", 30 - depth * 2, name.c_str(),
                node.self_us / 1000.0, node.subtree_us / 1000.0, node.calls);
  }
  // Heaviest subtree first.
  std::vector<const std::pair<const std::string, TreeNode>*> ordered;
  for (const auto& entry : node.children) {
    ordered.push_back(&entry);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return a->second.subtree_us != b->second.subtree_us
               ? a->second.subtree_us > b->second.subtree_us
               : a->first < b->first;
  });
  for (const auto* entry : ordered) {
    PrintTree(entry->second, entry->first, depth + 1);
  }
}

bool BuildTree(const Value& profile, TreeNode* root) {
  const Value* folded = profile.Find("folded");
  if (folded == nullptr || !folded->is_array()) {
    return false;
  }
  for (const Value& row : folded->AsArray()) {
    const std::string stack = row.String("stack");
    TreeNode* node = root;
    size_t start = 0;
    while (start <= stack.size()) {
      const size_t sep = stack.find(';', start);
      const std::string frame =
          stack.substr(start, sep == std::string::npos ? sep : sep - start);
      node = &node->children[frame];
      if (sep == std::string::npos) {
        break;
      }
      start = sep + 1;
    }
    node->self_us += row.Number("self_us");
    node->calls += row.Number("calls");
  }
  AccumulateSubtree(root);
  return true;
}

int CmdTree(const Selected& selected) {
  PrintHeaderLine(selected);
  PrintSummary(*selected.profile);
  TreeNode root;
  if (!BuildTree(*selected.profile, &root)) {
    std::fprintf(stderr, "dcc_prof: profile has no folded stacks\n");
    return 1;
  }
  PrintTree(root, "", -1);
  return 0;
}

int CmdFolded(const Selected& selected) {
  const Value* folded = selected.profile->Find("folded");
  if (folded == nullptr || !folded->is_array()) {
    std::fprintf(stderr, "dcc_prof: profile has no folded stacks\n");
    return 1;
  }
  for (const Value& row : folded->AsArray()) {
    const long long weight = static_cast<long long>(row.Number("self_us"));
    if (weight <= 0) {
      continue;  // Flamegraph scripts reject zero-weight frames.
    }
    std::printf("%s %lld\n", row.String("stack").c_str(), weight);
  }
  return 0;
}

int CmdEvents(const Selected& selected) {
  PrintHeaderLine(selected);
  const Value* events = selected.profile->Find("events");
  const Value* categories =
      events != nullptr ? events->Find("categories") : nullptr;
  if (categories == nullptr || !categories->is_array()) {
    std::fprintf(stderr, "dcc_prof: profile has no event categories\n");
    return 1;
  }
  std::printf("queue depth high-watermark: %.0f\n",
              events->Number("queue_depth_max"));
  std::printf("%-24s %12s %12s %14s %12s\n", "category", "count", "wall_ms",
              "avg_lag_us", "max_lag_us");
  for (const Value& cat : categories->AsArray()) {
    const double count = cat.Number("count");
    std::printf("%-24s %12.0f %12.3f %14.1f %12.0f\n",
                cat.String("category").c_str(), count, cat.Number("wall_ms"),
                count > 0 ? cat.Number("lag_us_sum") / count : 0.0,
                cat.Number("lag_us_max"));
  }
  return 0;
}

int CmdCopies(const Selected& selected) {
  PrintHeaderLine(selected);
  const Value* copies = selected.profile->Find("copies");
  if (copies == nullptr || !copies->is_object()) {
    std::fprintf(stderr, "dcc_prof: profile has no copy counters\n");
    return 1;
  }
  for (const auto& [key, value] : copies->AsObject()) {
    std::printf("%-20s %14.0f\n", key.c_str(), value.AsNumber());
  }
  // Derived ratios: the raw counters above are inputs, these are the
  // numbers the acceptance criteria and docs actually talk about.
  const double hops = copies->Number("payload_hops");
  if (hops > 0) {
    // A cache hit resends a prior encoding without calling EncodeMessage,
    // so encode_calls already reflects the saving.
    std::printf("%-20s %14.2f\n%-20s %14.2f\n%-20s %14.1f\n",
                "msg_copies_per_hop", copies->Number("msg_copies") / hops,
                "encodes_per_hop", copies->Number("encode_calls") / hops,
                "bytes_encoded_per_hop",
                copies->Number("encode_bytes") / hops);
  }
  return 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(
      stream,
      "usage: dcc_prof COMMAND PROFILE [--bench NAME] [--limit N]\n"
      "\n"
      "  top      ranked sites by self wall time, with coverage summary\n"
      "  tree     indented site tree rebuilt from the exact folded stacks\n"
      "  folded   'a;b;c <self_us>' lines for flamegraph tooling\n"
      "  events   per-category event-loop stats (count, wall, lag, queue)\n"
      "  copies   message/buffer churn counters with derived ratios:\n"
      "           copies, encodes and bytes encoded per network hop\n"
      "\n"
      "PROFILE is the JSON written by `dcc_sim run --profile-out` or\n"
      "`dcc_bench --profile-out` ('-' reads stdin). For bench collections,\n"
      "--bench NAME selects by substring; folded requires exactly one\n"
      "matching profile.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    PrintUsage(argc >= 2 && (std::string_view(argv[1]) == "--help" ||
                             std::string_view(argv[1]) == "-h")
                   ? stdout
                   : stderr);
    return argc >= 2 ? 0 : 2;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  const char* bench_filter = FlagValue(argc, argv, "--bench");
  const int limit = static_cast<int>(dcc::cli::FlagU64(argc, argv, "--limit", 20));

  std::string text;
  if (!dcc::cli::ReadFile(path, &text)) {
    std::fprintf(stderr, "dcc_prof: cannot read %s\n", path.c_str());
    return 2;
  }
  Value doc;
  std::string error;
  if (!dcc::json::Parse(text, &doc, &error)) {
    std::fprintf(stderr, "dcc_prof: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  std::vector<Selected> selected;
  if (!SelectProfiles(doc, bench_filter, &selected, &error)) {
    std::fprintf(stderr, "dcc_prof: %s\n", error.c_str());
    return 2;
  }
  if (command == "folded" && selected.size() != 1) {
    std::fprintf(stderr,
                 "dcc_prof: folded needs exactly one profile; %zu match — "
                 "narrow with --bench NAME\n",
                 selected.size());
    return 2;
  }

  int rc = 0;
  for (size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) {
      std::printf("\n");
    }
    if (command == "top") {
      rc |= CmdTop(selected[i], limit);
    } else if (command == "tree") {
      rc |= CmdTree(selected[i]);
    } else if (command == "folded") {
      rc |= CmdFolded(selected[i]);
    } else if (command == "events") {
      rc |= CmdEvents(selected[i]);
    } else if (command == "copies") {
      rc |= CmdCopies(selected[i]);
    } else {
      std::fprintf(stderr, "dcc_prof: unknown command '%s'\n", command.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  return rc;
}
