// dcc_trace — offline forensics over dcc_sim trace dumps.
//
// Reads the JSONL span-event dumps written by `dcc_sim ... --trace-out`,
// rebuilds the causal span trees, and answers the questions an operator asks
// after an attack run: where did a query's latency go, which chain of
// sub-queries determined it, and which clients are amplifying (the FF/CQ
// fingerprint from paper §2.2).
//
//   dcc_trace summary t.jsonl            per-trace fan-out/latency table
//   dcc_trace top t.jsonl [--top N]      "top amplifiers" forensics report
//   dcc_trace tree t.jsonl --trace ID    ASCII causal tree of one trace
//   dcc_trace report t.jsonl --trace ID  stage-by-stage latency breakdown
//   dcc_trace chrome t.jsonl [--out F]   re-emit as Chrome trace-event JSON
//
// The tool is read-only and has no simulator dependencies: it links only the
// telemetry analysis layer and the in-tree JSON parser.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/trace.h"
#include "tools/cli.h"

namespace {

using namespace dcc;
using cli::FlagValue;

std::vector<telemetry::SpanEvent> LoadEvents(const char* path, bool* ok) {
  std::vector<telemetry::SpanEvent> events;
  std::string text;
  *ok = cli::ReadFile(path, &text);
  if (!*ok) {
    std::fprintf(stderr, "dcc_trace: cannot open %s\n", path);
    return events;
  }
  size_t line_no = 0;
  size_t skipped = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    telemetry::SpanEvent event;
    std::string error;
    if (!telemetry::ParseSpanJsonLine(line, &event, &error)) {
      if (skipped == 0) {
        std::fprintf(stderr, "dcc_trace: %s:%zu: %s (skipping)\n", path,
                     line_no, error.c_str());
      }
      ++skipped;
      continue;
    }
    events.push_back(event);
  }
  if (skipped > 0) {
    std::fprintf(stderr, "dcc_trace: skipped %zu unparsable line(s)\n",
                 skipped);
  }
  return events;
}

// --trace HEXID filter; 0 means "all traces".
uint64_t TraceFilter(int argc, char** argv) {
  const char* value = FlagValue(argc, argv, "--trace");
  return value != nullptr ? std::strtoull(value, nullptr, 16) : 0;
}

std::vector<telemetry::SpanTree> SelectTrees(
    std::vector<telemetry::SpanTree> trees, uint64_t filter) {
  if (filter == 0) {
    return trees;
  }
  std::vector<telemetry::SpanTree> selected;
  for (auto& tree : trees) {
    if (tree.trace_id == filter) {
      selected.push_back(std::move(tree));
    }
  }
  return selected;
}

int RunSummary(const std::vector<telemetry::SpanTree>& trees) {
  std::printf("%-18s %-12s %6s %7s %5s %8s %12s %s\n", "trace", "client",
              "subq", "retries", "depth", "complete", "latency-us",
              "critical-path");
  for (const auto& tree : trees) {
    const telemetry::TraceStats stats = telemetry::ComputeStats(tree);
    std::string path;
    for (size_t i = 0; i < stats.critical_path.size(); ++i) {
      if (i > 0) {
        path += ">";
      }
      path += std::to_string(stats.critical_path[i]);
    }
    std::printf("%016" PRIx64 "   %-12s %6zu %7zu %5d %8s %12" PRId64 " %s\n",
                stats.trace_id, FormatAddress(stats.client).c_str(),
                stats.subqueries, stats.retries, stats.max_depth,
                stats.complete ? "yes" : "no",
                static_cast<int64_t>(stats.latency), path.c_str());
  }
  std::printf("%zu trace(s)\n", trees.size());
  return 0;
}

int RunTop(int argc, char** argv,
           const std::vector<telemetry::SpanTree>& trees) {
  const size_t top_n = cli::FlagU64(argc, argv, "--top", 10);
  const telemetry::AmplificationReport report = telemetry::Attribute(trees);
  std::fputs(telemetry::RenderTopAmplifiers(report, top_n).c_str(), stdout);
  return 0;
}

int RunTree(const std::vector<telemetry::SpanTree>& trees) {
  for (const auto& tree : trees) {
    std::fputs(telemetry::RenderTree(tree).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

// Stage-by-stage latency breakdown: every retained event of the trace with
// its offset from the trace start and delta from the previous stage, then
// the critical path that determined the client-observed latency.
int RunReport(const std::vector<telemetry::SpanTree>& trees) {
  for (const auto& tree : trees) {
    // Re-flatten into timestamp order: tree nodes keep per-span order, the
    // report wants the interleaved global timeline.
    std::vector<telemetry::SpanEvent> events;
    for (const auto& node : tree.nodes) {
      events.insert(events.end(), node.events.begin(), node.events.end());
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const telemetry::SpanEvent& a,
                        const telemetry::SpanEvent& b) { return a.at < b.at; });
    const telemetry::TraceStats stats = telemetry::ComputeStats(tree);
    std::printf("trace %016" PRIx64 " client %s%s\n", tree.trace_id,
                FormatAddress(tree.client).c_str(),
                tree.truncated ? "  [TRUNCATED: head evicted from ring]" : "");
    const Time start = events.empty() ? 0 : events.front().at;
    Time prev = start;
    for (const auto& event : events) {
      std::printf("  +%8" PRId64 " us (d %6" PRId64
                  ")  %-17s span=%-4u parent=%-4u actor=%-12s detail=%d\n",
                  static_cast<int64_t>(event.at - start),
                  static_cast<int64_t>(event.at - prev),
                  telemetry::SpanKindName(event.kind), event.span_id,
                  event.parent_span_id, FormatAddress(event.actor).c_str(),
                  event.detail);
      prev = event.at;
    }
    std::printf("  stats: %zu subqueries, %zu retries, depth %d, %s\n",
                stats.subqueries, stats.retries, stats.max_depth,
                stats.complete ? "complete" : "incomplete");
    std::string path;
    for (size_t i = 0; i < stats.critical_path.size(); ++i) {
      if (i > 0) {
        path += " -> ";
      }
      path += "span " + std::to_string(stats.critical_path[i]);
    }
    std::printf("  critical path: %s (%" PRId64 " us)\n\n",
                path.empty() ? "(none)" : path.c_str(),
                static_cast<int64_t>(stats.critical_path_latency));
  }
  return 0;
}

int RunChrome(int argc, char** argv,
              const std::vector<telemetry::SpanTree>& trees) {
  const std::string out = telemetry::ExportChromeTrace(trees);
  const char* path = FlagValue(argc, argv, "--out");
  if (path == nullptr || std::strcmp(path, "-") == 0) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  if (!cli::WriteFile(path, out)) {
    std::fprintf(stderr, "dcc_trace: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(stderr, "dcc_trace: %zu trace(s) -> %s\n", trees.size(), path);
  return 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_trace COMMAND TRACE.jsonl [options]\n"
      "\n"
      "Offline forensics over `dcc_sim ... --trace-out` JSONL dumps: rebuilds\n"
      "the causal span trees and attributes upstream amplification to the\n"
      "clients that caused it. TRACE.jsonl may be '-' for stdin.\n"
      "\n"
      "commands:\n"
      "  summary   one line per trace: sub-query fan-out, retries, causal\n"
      "            depth, completion, client latency, critical-path span ids\n"
      "  top       the \"top amplifiers\" report: clients ranked by mean\n"
      "            upstream queries caused per request, with the cause mix\n"
      "            (qmin/ns/cname) that fingerprints FF and CQ attacks, and\n"
      "            the busiest resolver->auth channels\n"
      "  tree      ASCII rendering of each causal span tree\n"
      "  report    stage-by-stage latency breakdown per trace: every span\n"
      "            event with offset/delta, then the critical path\n"
      "  chrome    convert the dump to Chrome trace-event JSON for\n"
      "            chrome://tracing or ui.perfetto.dev\n"
      "\n"
      "options:\n"
      "  --trace HEXID   restrict to one trace id (as printed by summary)\n"
      "  --top N         rows in the top-amplifiers table (default 10)\n"
      "  --out FILE      chrome: write to FILE instead of stdout\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 3) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  bool ok = false;
  const std::vector<telemetry::SpanEvent> events = LoadEvents(argv[2], &ok);
  if (!ok) {
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "dcc_trace: no span events in %s\n", argv[2]);
    return 1;
  }
  std::vector<telemetry::SpanTree> trees =
      SelectTrees(telemetry::BuildSpanTrees(events), TraceFilter(argc, argv));
  if (trees.empty()) {
    std::fprintf(stderr, "dcc_trace: no matching traces\n");
    return 1;
  }
  if (command == "summary") {
    return RunSummary(trees);
  }
  if (command == "top") {
    return RunTop(argc, argv, trees);
  }
  if (command == "tree") {
    return RunTree(trees);
  }
  if (command == "report") {
    return RunReport(trees);
  }
  if (command == "chrome") {
    return RunChrome(argc, argv, trees);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  PrintUsage(stderr);
  return 2;
}
