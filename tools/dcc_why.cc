// dcc_why — offline drop-cause forensics over dcc_sim audit dumps.
//
// Reads the JSONL decision-audit trail written by `dcc_sim ... --audit-out`
// (src/telemetry/audit.h) and answers the operator question metrics and
// traces leave open: *why* did this query die — which component decided,
// against which limit, under what observed state. With a matching
// `--trace-out` dump the audit records join the causal span trees, so the
// breakdown separates attacker losses from benign collateral.
//
//   dcc_why causes AUDIT.jsonl                 per-cause rollup table
//   dcc_why clients AUDIT.jsonl [--top N]      per-client rollup, worst first
//   dcc_why why AUDIT.jsonl QNAME|TRACEID      death narrative for one query
//   dcc_why collateral AUDIT.jsonl --trace-file T.jsonl [--attackers A,B]
//                                              benign-vs-attacker breakdown
//   dcc_why coverage AUDIT.jsonl --trace-file T.jsonl [--min RATIO]
//                                              failed-query cause coverage
//   dcc_why check AUDIT.jsonl [--trace-file T.jsonl]
//                                              validate a dump (CI gate)
//
// `check` (also spelled `--check`) verifies every line parses, every cause
// names a known taxonomy entry, and every span coordinate either is the
// client root span or resolves against the trace dump when one is given.
// Read-only; links only the telemetry analysis layer and the JSON parser.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/trace.h"
#include "tools/cli.h"

namespace {

using namespace dcc;
using cli::FlagValue;

// DNS SERVFAIL rcode as recorded in kResolverResponse span details; spelled
// numerically so the tool keeps zero simulator dependencies.
constexpr int32_t kServFailRcode = 2;

// Audit record as loaded back from JSONL — the qname regains std::string
// form and the cause keeps its dotted name so `check` can report unknown
// causes without losing the original spelling.
struct LoadedRecord {
  Time at = 0;
  telemetry::AuditCause cause = telemetry::AuditCause::kPolicerRateExceeded;
  std::string cause_name;
  bool cause_known = false;
  HostAddress actor = 0;
  HostAddress client = 0;
  HostAddress channel = 0;
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;
  double observed = 0;
  double limit = 0;
  std::string qname;
};

bool ParseRecordLine(const std::string& line, LoadedRecord* out,
                     std::string* error) {
  json::Value doc;
  if (!json::Parse(line, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "not a JSON object";
    return false;
  }
  out->cause_name = doc.String("cause");
  if (out->cause_name.empty()) {
    *error = "missing cause";
    return false;
  }
  out->cause_known = telemetry::AuditCauseFromName(out->cause_name, &out->cause);
  out->at = static_cast<Time>(doc.Number("ts_us"));
  const std::string id_hex = doc.String("trace_id");
  out->trace_id = std::strtoull(id_hex.c_str(), nullptr, 16);
  out->span_id = static_cast<uint32_t>(doc.Number("span_id"));
  out->parent_span_id = static_cast<uint32_t>(doc.Number("parent_span_id"));
  out->observed = doc.Number("observed");
  out->limit = doc.Number("limit");
  out->qname = doc.String("qname");
  HostAddress addr = kInvalidAddress;
  if (ParseAddress(doc.String("actor"), &addr)) {
    out->actor = addr;
  }
  addr = kInvalidAddress;
  if (ParseAddress(doc.String("client"), &addr)) {
    out->client = addr;
  }
  addr = kInvalidAddress;
  if (ParseAddress(doc.String("channel"), &addr)) {
    out->channel = addr;
  }
  return true;
}

struct LoadStats {
  size_t lines = 0;
  size_t parsed = 0;
  size_t malformed = 0;
  size_t unknown_cause = 0;
  std::string first_error;
};

std::vector<LoadedRecord> LoadRecords(const char* path, LoadStats* stats,
                                      bool* ok) {
  std::vector<LoadedRecord> records;
  std::string text;
  *ok = cli::ReadFile(path, &text);
  if (!*ok) {
    std::fprintf(stderr, "dcc_why: cannot open %s\n", path);
    return records;
  }
  size_t pos = 0;
  size_t line_no = 0;
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
    ++stats->lines;
    LoadedRecord record;
    std::string error;
    if (!ParseRecordLine(line, &record, &error)) {
      ++stats->malformed;
      if (stats->first_error.empty()) {
        stats->first_error =
            std::string(path) + ":" + std::to_string(line_no) + ": " + error;
      }
      continue;
    }
    if (!record.cause_known) {
      ++stats->unknown_cause;
      if (stats->first_error.empty()) {
        stats->first_error = std::string(path) + ":" + std::to_string(line_no) +
                             ": unknown cause '" + record.cause_name + "'";
      }
    }
    ++stats->parsed;
    records.push_back(std::move(record));
  }
  return records;
}

// Loads a --trace-out dump when --trace-file is given; empty vector + false
// `present` otherwise. Reuses the audit parser's tolerance: unparsable span
// lines are skipped (they fail `check` through the trace tool, not here).
std::vector<telemetry::SpanEvent> LoadTraceFile(int argc, char** argv,
                                                bool* present, bool* ok) {
  std::vector<telemetry::SpanEvent> events;
  *ok = true;
  const char* path = FlagValue(argc, argv, "--trace-file");
  *present = path != nullptr;
  if (!*present) {
    return events;
  }
  std::string text;
  if (!cli::ReadFile(path, &text)) {
    std::fprintf(stderr, "dcc_why: cannot open %s\n", path);
    *ok = false;
    return events;
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    telemetry::SpanEvent event;
    std::string error;
    if (!telemetry::ParseSpanJsonLine(line, &event, &error)) {
      continue;
    }
    events.push_back(event);
  }
  return events;
}

// Parses --attackers a.b.c.d[,a.b.c.d...] into a set of host addresses.
std::unordered_set<HostAddress> AttackerSet(int argc, char** argv) {
  std::unordered_set<HostAddress> attackers;
  const char* text = FlagValue(argc, argv, "--attackers");
  if (text == nullptr) {
    return attackers;
  }
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      HostAddress addr = kInvalidAddress;
      if (!item.empty() && ParseAddress(item, &addr)) {
        attackers.insert(addr);
      } else if (!item.empty()) {
        std::fprintf(stderr, "dcc_why: bad --attackers entry '%s'\n",
                     item.c_str());
        std::exit(2);
      }
      item.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      item.push_back(*p);
    }
  }
  return attackers;
}

// ---- causes ----------------------------------------------------------------

int RunCauses(const std::vector<LoadedRecord>& records) {
  struct CauseAgg {
    size_t count = 0;
    std::set<HostAddress> clients;
    Time first = 0;
    Time last = 0;
    std::string example;
  };
  std::map<std::string, CauseAgg> by_cause;
  for (const LoadedRecord& record : records) {
    CauseAgg& agg = by_cause[record.cause_name];
    if (agg.count == 0) {
      agg.first = record.at;
      agg.example = record.qname;
    }
    agg.last = record.at;
    ++agg.count;
    if (record.client != 0) {
      agg.clients.insert(record.client);
    }
  }
  std::vector<std::pair<std::string, CauseAgg>> rows(by_cause.begin(),
                                                     by_cause.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.count > b.second.count;
                   });
  std::printf("%-28s %10s %8s %12s %12s  %s\n", "cause", "records", "clients",
              "first-s", "last-s", "example");
  for (const auto& [name, agg] : rows) {
    std::printf("%-28s %10zu %8zu %12.3f %12.3f  %s\n", name.c_str(),
                agg.count, agg.clients.size(), ToSeconds(agg.first),
                ToSeconds(agg.last), agg.example.c_str());
  }
  std::printf("%zu record(s), %zu cause(s)\n", records.size(), rows.size());
  return 0;
}

// ---- clients ---------------------------------------------------------------

int RunClients(int argc, char** argv,
               const std::vector<LoadedRecord>& records) {
  const size_t top_n = cli::FlagU64(argc, argv, "--top", 20);
  struct ClientAgg {
    size_t count = 0;
    std::map<std::string, size_t> causes;
  };
  std::map<HostAddress, ClientAgg> by_client;
  for (const LoadedRecord& record : records) {
    ClientAgg& agg = by_client[record.client];
    ++agg.count;
    ++agg.causes[record.cause_name];
  }
  std::vector<std::pair<HostAddress, ClientAgg>> rows(by_client.begin(),
                                                      by_client.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.count > b.second.count;
                   });
  std::printf("%-14s %10s  %s\n", "client", "records", "dominant causes");
  size_t shown = 0;
  for (const auto& [client, agg] : rows) {
    if (shown++ >= top_n) {
      break;
    }
    std::vector<std::pair<std::string, size_t>> causes(agg.causes.begin(),
                                                       agg.causes.end());
    std::stable_sort(causes.begin(), causes.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    std::string mix;
    for (size_t i = 0; i < causes.size() && i < 3; ++i) {
      if (i > 0) {
        mix += ", ";
      }
      mix += causes[i].first + " x" + std::to_string(causes[i].second);
    }
    std::printf("%-14s %10zu  %s\n",
                client == 0 ? "(unattributed)" : FormatAddress(client).c_str(),
                agg.count, mix.c_str());
  }
  std::printf("%zu client(s)\n", rows.size());
  return 0;
}

// ---- why -------------------------------------------------------------------

// True when `text` looks like a trace id as printed in the dumps: all hex,
// at least 8 digits (qnames always contain dots/letters beyond hex).
bool LooksLikeTraceId(const std::string& text) {
  if (text.size() < 8 || text.size() > 16) {
    return false;
  }
  return text.find_first_not_of("0123456789abcdefABCDEF") == std::string::npos;
}

void PrintRecord(const LoadedRecord& record) {
  std::printf("  t=%10.3fs  %-26s actor=%-12s", ToSeconds(record.at),
              record.cause_name.c_str(), FormatAddress(record.actor).c_str());
  if (record.client != 0) {
    std::printf(" client=%-12s", FormatAddress(record.client).c_str());
  }
  if (record.channel != 0) {
    std::printf(" channel=%-12s", FormatAddress(record.channel).c_str());
  }
  std::printf(" observed=%g limit=%g", record.observed, record.limit);
  if (record.trace_id != 0) {
    std::printf(" trace=%016" PRIx64 " span=%u", record.trace_id,
                record.span_id);
  }
  if (!record.qname.empty()) {
    std::printf(" qname=%s", record.qname.c_str());
  }
  std::printf("\n");
}

int RunWhy(int argc, char** argv, const std::vector<LoadedRecord>& records) {
  if (argc < 4) {
    std::fprintf(stderr, "dcc_why: why needs a QNAME or TRACEID argument\n");
    return 2;
  }
  const std::string target = argv[3];
  const bool by_trace = LooksLikeTraceId(target);
  const uint64_t trace_id =
      by_trace ? std::strtoull(target.c_str(), nullptr, 16) : 0;
  std::vector<const LoadedRecord*> matches;
  for (const LoadedRecord& record : records) {
    const bool hit = by_trace
                         ? record.trace_id == trace_id
                         : record.qname.find(target) != std::string::npos;
    if (hit) {
      matches.push_back(&record);
    }
  }
  if (matches.empty()) {
    std::printf("no audit records match %s '%s' — the query was not killed\n"
                "by an instrumented decision (network loss, fault window, or\n"
                "it simply succeeded)\n",
                by_trace ? "trace" : "qname", target.c_str());
    return 1;
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const LoadedRecord* a, const LoadedRecord* b) {
                     return a->at < b->at;
                   });
  std::printf("%zu decision(s) for %s '%s':\n", matches.size(),
              by_trace ? "trace" : "qname", target.c_str());
  for (const LoadedRecord* record : matches) {
    PrintRecord(*record);
  }
  // Per-client context: convictions/alarms against the clients involved,
  // even when those records carry no trace id (the policy decision that
  // killed later queries).
  std::unordered_set<HostAddress> clients;
  for (const LoadedRecord* record : matches) {
    if (record->client != 0) {
      clients.insert(record->client);
    }
  }
  bool header = false;
  for (const LoadedRecord& record : records) {
    if (record.trace_id != 0 || record.client == 0 ||
        clients.find(record.client) == clients.end()) {
      continue;
    }
    if (!header) {
      std::printf("related client-level decisions (no trace id):\n");
      header = true;
    }
    PrintRecord(record);
  }
  return 0;
}

// ---- trace joining (collateral / coverage) ---------------------------------

struct TraceVerdict {
  bool failed = false;      // Dropped (incomplete) or answered SERVFAIL.
  bool servfail = false;
  uint32_t client = 0;
};

// Classifies every trace in the dump: a query failed when its root span
// never completed (the stub timed it out) or when a response event carries
// rcode SERVFAIL. Only traces with a retained root are classified — a
// ring-evicted head leaves failure unknowable offline.
std::unordered_map<uint64_t, TraceVerdict> ClassifyTraces(
    const std::vector<telemetry::SpanTree>& trees) {
  std::unordered_map<uint64_t, TraceVerdict> verdicts;
  for (const auto& tree : trees) {
    if (tree.Root() == nullptr) {
      continue;
    }
    TraceVerdict verdict;
    verdict.client = tree.client;
    const telemetry::TraceStats stats = telemetry::ComputeStats(tree);
    for (const auto& node : tree.nodes) {
      for (const auto& event : node.events) {
        if (event.kind == telemetry::SpanKind::kResolverResponse &&
            event.detail == kServFailRcode) {
          verdict.servfail = true;
        }
      }
    }
    verdict.failed = verdict.servfail || !stats.complete;
    verdicts.emplace(tree.trace_id, verdict);
  }
  return verdicts;
}

int RunCollateral(int argc, char** argv,
                  const std::vector<LoadedRecord>& records) {
  bool trace_present = false;
  bool trace_ok = false;
  const std::vector<telemetry::SpanEvent> events =
      LoadTraceFile(argc, argv, &trace_present, &trace_ok);
  if (!trace_present) {
    std::fprintf(stderr, "dcc_why: collateral requires --trace-file\n");
    return 2;
  }
  if (!trace_ok) {
    return 1;
  }
  const std::unordered_set<HostAddress> attackers = AttackerSet(argc, argv);
  const std::unordered_map<uint64_t, TraceVerdict> verdicts =
      ClassifyTraces(telemetry::BuildSpanTrees(events));

  struct SideAgg {
    size_t failed_traces = 0;
    size_t audited_traces = 0;
    std::map<std::string, size_t> causes;
  };
  SideAgg benign;
  SideAgg attacker;
  std::unordered_map<uint64_t, std::vector<const LoadedRecord*>> by_trace;
  for (const LoadedRecord& record : records) {
    if (record.trace_id != 0) {
      by_trace[record.trace_id].push_back(&record);
    }
  }
  for (const auto& [trace_id, verdict] : verdicts) {
    if (!verdict.failed) {
      continue;
    }
    SideAgg& side =
        attackers.find(verdict.client) != attackers.end() ? attacker : benign;
    ++side.failed_traces;
    auto it = by_trace.find(trace_id);
    if (it == by_trace.end()) {
      continue;
    }
    ++side.audited_traces;
    for (const LoadedRecord* record : it->second) {
      ++side.causes[record->cause_name];
    }
  }
  auto print_side = [](const char* label, const SideAgg& side) {
    std::printf("%s: %zu failed quer%s, %zu with an audited cause\n", label,
                side.failed_traces, side.failed_traces == 1 ? "y" : "ies",
                side.audited_traces);
    std::vector<std::pair<std::string, size_t>> causes(side.causes.begin(),
                                                       side.causes.end());
    std::stable_sort(causes.begin(), causes.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [cause, count] : causes) {
      std::printf("  %-28s %10zu\n", cause.c_str(), count);
    }
  };
  if (attackers.empty()) {
    std::printf("(no --attackers given: everything is reported as benign)\n");
  }
  print_side("benign", benign);
  print_side("attacker", attacker);
  return 0;
}

int RunCoverage(int argc, char** argv,
                const std::vector<LoadedRecord>& records) {
  bool trace_present = false;
  bool trace_ok = false;
  const std::vector<telemetry::SpanEvent> events =
      LoadTraceFile(argc, argv, &trace_present, &trace_ok);
  if (!trace_present) {
    std::fprintf(stderr, "dcc_why: coverage requires --trace-file\n");
    return 2;
  }
  if (!trace_ok) {
    return 1;
  }
  const std::unordered_map<uint64_t, TraceVerdict> verdicts =
      ClassifyTraces(telemetry::BuildSpanTrees(events));
  std::unordered_set<uint64_t> audited_traces;
  std::unordered_set<HostAddress> audited_clients;
  for (const LoadedRecord& record : records) {
    if (record.trace_id != 0) {
      audited_traces.insert(record.trace_id);
    }
    if (record.client != 0) {
      audited_clients.insert(record.client);
    }
  }
  size_t failed = 0;
  size_t covered_direct = 0;
  size_t covered_client = 0;
  for (const auto& [trace_id, verdict] : verdicts) {
    if (!verdict.failed) {
      continue;
    }
    ++failed;
    if (audited_traces.find(trace_id) != audited_traces.end()) {
      ++covered_direct;
    } else if (audited_clients.find(verdict.client) != audited_clients.end()) {
      // No per-query record, but a client-level decision (conviction,
      // policer policy) explains the death indirectly.
      ++covered_client;
    }
  }
  const size_t covered = covered_direct + covered_client;
  const double ratio =
      failed == 0 ? 1.0 : static_cast<double>(covered) / failed;
  std::printf("failed queries: %zu\n", failed);
  std::printf("  with a per-query cause chain:   %zu\n", covered_direct);
  std::printf("  with a client-level cause only: %zu\n", covered_client);
  std::printf("coverage: %.4f\n", ratio);
  const char* min_text = FlagValue(argc, argv, "--min");
  if (min_text != nullptr && ratio < cli::ParseDouble("--min", min_text)) {
    std::fprintf(stderr, "dcc_why: coverage %.4f below --min %s\n", ratio,
                 min_text);
    return 1;
  }
  return 0;
}

// ---- check -----------------------------------------------------------------

int RunCheck(int argc, char** argv, const std::vector<LoadedRecord>& records,
             const LoadStats& stats) {
  bool trace_present = false;
  bool trace_ok = false;
  const std::vector<telemetry::SpanEvent> events =
      LoadTraceFile(argc, argv, &trace_present, &trace_ok);
  if (!trace_ok) {
    return 1;
  }
  size_t span_zero = 0;         // trace_id set but span_id == 0.
  size_t span_unresolved = 0;   // span absent from an intact trace.
  size_t span_evicted = 0;      // span absent, but the trace shows eviction
                                // damage (missing root / orphaned nodes).
  size_t trace_missing = 0;     // trace absent from the dump (informational:
                                // ring eviction can eat whole traces).
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> spans;
  std::unordered_set<uint64_t> damaged;  // Traces with eviction evidence.
  if (trace_present) {
    for (const auto& event : events) {
      spans[event.trace_id].insert(event.span_id);
    }
    for (const auto& tree : telemetry::BuildSpanTrees(events)) {
      bool orphans = tree.Root() == nullptr;
      for (const auto& node : tree.nodes) {
        orphans = orphans || node.orphaned;
      }
      if (orphans) {
        damaged.insert(tree.trace_id);
      }
    }
  }
  for (const LoadedRecord& record : records) {
    if (record.trace_id == 0) {
      continue;  // Client/channel-level decision; no span to resolve.
    }
    if (record.span_id == 0) {
      ++span_zero;
      continue;
    }
    if (record.span_id == telemetry::kClientSpanId) {
      continue;  // Root span: always resolvable by construction.
    }
    if (trace_present) {
      auto it = spans.find(record.trace_id);
      if (it == spans.end()) {
        ++trace_missing;
      } else if (it->second.find(record.span_id) == it->second.end()) {
        if (damaged.find(record.trace_id) != damaged.end()) {
          ++span_evicted;
        } else {
          ++span_unresolved;
        }
      }
    }
  }
  // A leaf span's events can be ring-evicted without leaving orphan
  // evidence, so once the dump shows any eviction at all (damaged trees or
  // whole traces gone) an unresolved span cannot be distinguished from an
  // evicted one — downgrade to informational. On an eviction-free dump (the
  // CI case) unresolved spans stay hard failures.
  if (!damaged.empty() || trace_missing > 0) {
    span_evicted += span_unresolved;
    span_unresolved = 0;
  }
  const bool failed = stats.malformed > 0 || stats.unknown_cause > 0 ||
                      span_zero > 0 || span_unresolved > 0;
  std::printf("records: %zu parsed / %zu lines\n", stats.parsed, stats.lines);
  std::printf("malformed lines:     %zu\n", stats.malformed);
  std::printf("unknown causes:      %zu\n", stats.unknown_cause);
  std::printf("zero span ids:       %zu\n", span_zero);
  if (trace_present) {
    std::printf("unresolved span ids: %zu\n", span_unresolved);
    std::printf("evicted span ids:    %zu (eviction; not an error)\n",
                span_evicted);
    std::printf("traces not in dump:  %zu (eviction; not an error)\n",
                trace_missing);
  }
  if (!stats.first_error.empty()) {
    std::printf("first error: %s\n", stats.first_error.c_str());
  }
  std::printf("%s\n", failed ? "CHECK FAILED" : "CHECK OK");
  return failed ? 1 : 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_why COMMAND AUDIT.jsonl [options]\n"
      "\n"
      "Drop-cause forensics over `dcc_sim ... --audit-out` JSONL dumps: why\n"
      "each query died, which limit tripped, and who ate the collateral.\n"
      "AUDIT.jsonl may be '-' for stdin.\n"
      "\n"
      "commands:\n"
      "  causes      per-cause rollup: record count, distinct clients,\n"
      "              active window, example qname\n"
      "  clients     per-client rollup ranked by records, with each\n"
      "              client's dominant cause mix\n"
      "  why Q|ID    death narrative for one query: every decision matching\n"
      "              the qname substring or %%016x trace id, in time order,\n"
      "              plus related client-level policy decisions\n"
      "  collateral  benign-vs-attacker breakdown of failed queries\n"
      "              (requires --trace-file; --attackers marks the guilty)\n"
      "  coverage    fraction of failed queries (dropped or SERVFAIL in the\n"
      "              trace dump) with an audited cause chain\n"
      "  check       validate a dump: every line parses, every cause is a\n"
      "              known taxonomy entry, every span id is the client root\n"
      "              or resolves against --trace-file. Exit 1 on failure.\n"
      "              (Also spelled `dcc_why --check AUDIT.jsonl`.)\n"
      "\n"
      "options:\n"
      "  --trace-file FILE  matching --trace-out dump to join span trees\n"
      "  --attackers A,B    attacker client addresses for `collateral`\n"
      "  --top N            rows in the `clients` table (default 20)\n"
      "  --min RATIO        coverage: fail (exit 1) below this ratio\n");
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
  std::string command = argv[1];
  if (command == "--check") {
    command = "check";
  }
  LoadStats stats;
  bool ok = false;
  const std::vector<LoadedRecord> records = LoadRecords(argv[2], &stats, &ok);
  if (!ok) {
    return 1;
  }
  if (command == "check") {
    return RunCheck(argc, argv, records, stats);
  }
  if (stats.malformed > 0) {
    std::fprintf(stderr, "dcc_why: skipped %zu unparsable line(s) (%s)\n",
                 stats.malformed, stats.first_error.c_str());
  }
  if (records.empty()) {
    std::fprintf(stderr, "dcc_why: no audit records in %s\n", argv[2]);
    return 1;
  }
  if (command == "causes") {
    return RunCauses(records);
  }
  if (command == "clients") {
    return RunClients(argc, argv, records);
  }
  if (command == "why") {
    return RunWhy(argc, argv, records);
  }
  if (command == "collateral") {
    return RunCollateral(argc, argv, records);
  }
  if (command == "coverage") {
    return RunCoverage(argc, argv, records);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  PrintUsage(stderr);
  return 2;
}
