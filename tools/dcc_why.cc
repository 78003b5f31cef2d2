// dcc_why — one offline reader for every artifact a dcc_sim or dcc_bench
// run writes: the audit dump (--audit-out), the trace dump (--trace-out)
// and the profile (--profile-out). Each input is a positional file told
// apart by content, so commands join them: `why` over an audit and a trace
// dump prints the decisions that killed a query, then what its resolution
// cost. PrintUsage lists the commands and the exit codes.
// Read-only; links only the telemetry analysis layer and the JSON parser.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/trace.h"
#include "tools/cli.h"

namespace {

using namespace dcc;
using cli::FlagValue;
using json::Value;

// DNS SERVFAIL rcode as recorded in kResolverResponse span details; spelled
// numerically so the tool keeps zero simulator dependencies.
constexpr int32_t kServFailRcode = 2;

// Audit record as loaded back from JSONL — the qname regains std::string
// form and the cause keeps its dotted name so `check` can report unknown
// causes without losing the original spelling.
struct LoadedRecord {
  Time at = 0;
  std::string cause_name;
  HostAddress actor = 0;
  HostAddress client = 0;
  HostAddress channel = 0;
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  double observed = 0;
  double limit = 0;
  std::string qname;
};

bool ParseRecordLine(std::string_view line, LoadedRecord* out,
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
  out->at = static_cast<Time>(doc.Number("ts_us"));
  out->trace_id = std::strtoull(doc.String("trace_id").c_str(), nullptr, 16);
  out->span_id = static_cast<uint32_t>(doc.Number("span_id"));
  out->observed = doc.Number("observed");
  out->limit = doc.Number("limit");
  out->qname = doc.String("qname");
  // Absent or unparsable addresses stay 0 (unattributed).
  const std::pair<const char*, HostAddress*> addresses[] = {
      {"actor", &out->actor}, {"client", &out->client},
      {"channel", &out->channel}};
  for (const auto& [key, addr] : addresses) {
    if (HostAddress parsed; ParseAddress(doc.String(key), &parsed)) {
      *addr = parsed;
    }
  }
  return true;
}

// Line tallies of one JSONL input, for `check` and the skip warning.
struct LoadStats {
  size_t lines = 0;
  size_t parsed = 0;
  size_t malformed = 0;
  size_t unknown_cause = 0;
  std::string first_error;
};

void NoteError(LoadStats* stats, const char* path, size_t line_no,
               const std::string& error) {
  if (stats->first_error.empty()) {
    stats->first_error =
        std::string(path) + ":" + std::to_string(line_no) + ": " + error;
  }
}

// Calls `fn(line, line_no)` on every non-blank line until it returns true.
template <typename Fn>
void ForEachLine(const std::string& text, Fn fn) {
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") != std::string_view::npos &&
        fn(line, line_no)) {
      return;
    }
  }
}

// The one JSONL loader: `parse(line, line_no, &error)` takes each line, and
// the lines it rejects are counted as malformed.
template <typename Parse>
void LoadLines(const std::string& text, const char* path, LoadStats* stats,
               Parse parse) {
  ForEachLine(text, [&](std::string_view line, size_t line_no) {
    ++stats->lines;
    std::string error;
    if (parse(line, line_no, &error)) {
      ++stats->parsed;
    } else {
      ++stats->malformed;
      NoteError(stats, path, line_no, error);
    }
    return false;
  });
}

// Input kinds, as bits so a command can name the set it reads.
constexpr unsigned kAuditIn = 1, kTraceIn = 2, kProfileIn = 4;

// A profile is one JSON document naming its "tool"; a dump's first
// parsable line names a "cause" (audit) or a "span" or "ring" (trace).
// 0 when `text` is none of them.
unsigned DetectKind(const std::string& text, Value* profile) {
  if (json::Parse(text, profile) && profile->Find("tool") != nullptr) {
    return kProfileIn;
  }
  unsigned kind = 0;
  ForEachLine(text, [&](std::string_view line, size_t) {
    Value doc;
    if (!json::Parse(line, &doc)) {
      return false;
    }
    if (doc.Find("cause") != nullptr) {
      kind = kAuditIn;
    } else if (doc.Find("span") != nullptr || doc.Find("ring") != nullptr) {
      kind = kTraceIn;
    }
    return kind != 0;
  });
  return kind;
}

// Every input of one invocation; a null path means that kind was not given.
struct Inputs {
  unsigned given = 0;  // Input kind bits.

  const char* audit_path = nullptr;
  std::vector<LoadedRecord> records;
  LoadStats audit_stats;

  const char* trace_path = nullptr;
  std::vector<telemetry::SpanEvent> events;
  telemetry::RingState ring;
  LoadStats trace_stats;

  const char* profile_path = nullptr;
  Value profile;
};

// Reads `path` into the slot its content selects. Returns an exit code: 1
// when it cannot be read or recognized, 2 when two inputs are one kind.
int LoadInput(const char* path, Inputs* in) {
  std::string text;
  if (!cli::ReadFile(path, &text)) {
    std::fprintf(stderr, "dcc_why: cannot open %s\n", path);
    return 1;
  }
  Value whole;
  const unsigned kind = DetectKind(text, &whole);
  if (kind == 0) {
    std::fprintf(stderr,
                 "dcc_why: %s is not an audit dump, a trace dump or a "
                 "profile\n",
                 path);
    return 1;
  }
  const char** slot = kind == kAuditIn   ? &in->audit_path
                      : kind == kTraceIn ? &in->trace_path
                                         : &in->profile_path;
  if (*slot != nullptr) {
    std::fprintf(stderr, "dcc_why: %s and %s are both %s; give one\n", *slot,
                 path,
                 kind == kAuditIn   ? "audit dumps"
                 : kind == kTraceIn ? "trace dumps"
                                    : "profiles");
    return 2;
  }
  *slot = path;
  in->given |= kind;
  switch (kind) {
    case kProfileIn:
      in->profile = std::move(whole);
      break;
    case kAuditIn:
      LoadLines(text, path, &in->audit_stats,
                [&](std::string_view line, size_t line_no, std::string* error) {
                  LoadedRecord record;
                  if (!ParseRecordLine(line, &record, error)) {
                    return false;
                  }
                  telemetry::AuditCause cause;
                  if (!telemetry::AuditCauseFromName(record.cause_name,
                                                     &cause)) {
                    ++in->audit_stats.unknown_cause;
                    NoteError(&in->audit_stats, path, line_no,
                              "unknown cause '" + record.cause_name + "'");
                  }
                  in->records.push_back(std::move(record));
                  return true;
                });
      break;
    case kTraceIn:
      LoadLines(text, path, &in->trace_stats,
                [&](std::string_view line, size_t, std::string* error) {
                  if (in->trace_stats.lines == 1 &&
                      telemetry::ParseRingStateLine(line, &in->ring)) {
                    return true;
                  }
                  telemetry::SpanEvent event;
                  if (!telemetry::ParseSpanJsonLine(line, &event, error)) {
                    return false;
                  }
                  in->events.push_back(event);
                  return true;
                });
      break;
  }
  return 0;
}

void WarnSkipped(const LoadStats& stats) {
  if (stats.malformed > 0) {
    std::fprintf(stderr, "dcc_why: skipped %zu unparsable line(s) (%s)\n",
                 stats.malformed, stats.first_error.c_str());
  }
}

// Parses --attackers a.b.c.d[,a.b.c.d...] into a set of host addresses;
// exits 2 on an entry that is not an address.
std::unordered_set<HostAddress> AttackerSet(int argc, char** argv) {
  std::unordered_set<HostAddress> attackers;
  const char* text = FlagValue(argc, argv, "--attackers");
  std::string_view rest = text != nullptr ? text : "";
  while (!rest.empty()) {
    const size_t comma = std::min(rest.find(','), rest.size());
    const std::string item(rest.substr(0, comma));
    rest.remove_prefix(std::min(comma + 1, rest.size()));
    HostAddress addr = kInvalidAddress;
    if (!item.empty() && !ParseAddress(item, &addr)) {
      std::fprintf(stderr, "dcc_why: bad --attackers entry '%s'\n",
                   item.c_str());
      std::exit(2);
    }
    if (!item.empty()) {
      attackers.insert(addr);
    }
  }
  return attackers;
}

// The entries of `rows` ranked by count — the value itself, or its `count`
// member — highest first; ties keep key order.
template <typename K, typename V>
std::vector<std::pair<K, V>> Ranked(const std::map<K, V>& rows) {
  auto count = [](const V& value) {
    if constexpr (std::is_arithmetic_v<V>) {
      return value;
    } else {
      return value.count;
    }
  };
  std::vector<std::pair<K, V>> ranked(rows.begin(), rows.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const auto& a, const auto& b) {
                     return count(a.second) > count(b.second);
                   });
  return ranked;
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
  const auto rows = Ranked(by_cause);
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
  const auto rows = Ranked(by_client);
  std::printf("%-14s %10s  %s\n", "client", "records", "dominant causes");
  size_t shown = 0;
  for (const auto& [client, agg] : rows) {
    if (shown++ >= top_n) {
      break;
    }
    const auto causes = Ranked(agg.causes);
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

// The trace half of `why`: each trace's stage-by-stage latency and critical
// path, rebuilt from the trace dump.
void PrintTraceCosts(const Inputs& in, const std::vector<uint64_t>& ids) {
  const std::vector<telemetry::SpanTree> trees =
      telemetry::BuildSpanTrees(in.events, in.ring);
  std::unordered_map<uint64_t, const telemetry::SpanTree*> by_id;
  for (const auto& tree : trees) {
    by_id.emplace(tree.trace_id, &tree);
  }
  std::printf("\nwhat it cost (%s):\n", in.trace_path);
  for (uint64_t id : ids) {
    auto it = by_id.find(id);
    if (it == by_id.end()) {
      std::printf("trace %016" PRIx64 ": no span events in the dump\n", id);
    } else {
      std::fputs(telemetry::RenderReport(*it->second).c_str(), stdout);
    }
  }
}

int RunWhy(const Inputs& in, const std::string& target) {
  const std::vector<LoadedRecord>& records = in.records;
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
  std::stable_sort(matches.begin(), matches.end(),
                   [](const LoadedRecord* a, const LoadedRecord* b) {
                     return a->at < b->at;
                   });
  std::vector<uint64_t> trace_ids;
  if (by_trace) {
    trace_ids.push_back(trace_id);
  }
  for (const LoadedRecord* record : matches) {
    if (record->trace_id != 0 &&
        std::find(trace_ids.begin(), trace_ids.end(), record->trace_id) ==
            trace_ids.end()) {
      trace_ids.push_back(record->trace_id);
    }
  }
  if (matches.empty()) {
    std::printf("no audit records match %s '%s' — the query was not killed\n"
                "by an instrumented decision (network loss, fault window, or\n"
                "it simply succeeded)\n",
                by_trace ? "trace" : "qname", target.c_str());
  } else {
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
  }
  if (in.trace_path != nullptr) {
    PrintTraceCosts(in, trace_ids);
  }
  return matches.empty() ? 1 : 0;
}

// ---- trace joining (collateral / coverage) ---------------------------------

// The failed queries of the trace dump, trace id -> client: a query failed
// when its root span never completed (the stub timed it out) or when a
// response event carries rcode SERVFAIL. Only traces with a retained root
// are judged — a ring-evicted head leaves failure unknowable offline.
std::unordered_map<uint64_t, HostAddress> FailedTraces(const Inputs& in) {
  std::unordered_map<uint64_t, HostAddress> failed;
  for (const auto& tree : telemetry::BuildSpanTrees(in.events)) {
    if (tree.Root() == nullptr) {
      continue;
    }
    bool dead = !telemetry::ComputeStats(tree).complete;
    for (const auto& node : tree.nodes) {
      for (const auto& event : node.events) {
        dead |= event.kind == telemetry::SpanKind::kResolverResponse &&
                event.detail == kServFailRcode;
      }
    }
    if (dead) {
      failed.emplace(tree.trace_id, tree.client);
    }
  }
  return failed;
}

int RunCollateral(int argc, char** argv, const Inputs& in) {
  const std::vector<LoadedRecord>& records = in.records;
  const std::unordered_set<HostAddress> attackers = AttackerSet(argc, argv);

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
  for (const auto& [trace_id, client] : FailedTraces(in)) {
    SideAgg& side = attackers.find(client) != attackers.end() ? attacker : benign;
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
    for (const auto& [cause, count] : Ranked(side.causes)) {
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

int RunCoverage(int argc, char** argv, const Inputs& in) {
  const std::vector<LoadedRecord>& records = in.records;
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
  const std::unordered_map<uint64_t, HostAddress> failed_traces =
      FailedTraces(in);
  const size_t failed = failed_traces.size();
  size_t covered_direct = 0;
  size_t covered_client = 0;
  for (const auto& [trace_id, client] : failed_traces) {
    if (audited_traces.find(trace_id) != audited_traces.end()) {
      ++covered_direct;
    } else if (audited_clients.find(client) != audited_clients.end()) {
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

// Validates whichever dumps were given: every line parses, every cause is a
// known taxonomy entry, and every audited span id is the client root or
// resolves against the trace dump.
int RunCheck(const Inputs& in) {
  const bool audit = in.audit_path != nullptr;
  const bool trace = in.trace_path != nullptr;
  size_t span_zero = 0;        // trace_id set but span_id == 0.
  size_t span_unresolved = 0;  // span absent from the dump.
  size_t trace_missing = 0;    // trace absent from the dump.
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> spans;
  if (trace) {
    for (const auto& event : in.events) {
      spans[event.trace_id].insert(event.span_id);
    }
  }
  for (const LoadedRecord& record : in.records) {
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
    if (trace) {
      auto it = spans.find(record.trace_id);
      if (it == spans.end()) {
        ++trace_missing;
      } else if (it->second.find(record.span_id) == it->second.end()) {
        ++span_unresolved;
      }
    }
  }
  // Once the ring has evicted, an absent span may be an evicted one, so
  // unresolved spans are informational; on an eviction-free dump (the CI
  // case) they are hard failures.
  size_t span_evicted = 0;
  if (in.ring.dropped > 0) {
    std::swap(span_evicted, span_unresolved);
  }
  const LoadStats& stats = in.audit_stats;
  const bool failed = stats.malformed > 0 || stats.unknown_cause > 0 ||
                      span_zero > 0 || span_unresolved > 0 ||
                      in.trace_stats.malformed > 0;
  if (audit) {
    std::printf("records: %zu parsed / %zu lines\n", stats.parsed,
                stats.lines);
    std::printf("malformed lines:     %zu\n", stats.malformed);
    std::printf("unknown causes:      %zu\n", stats.unknown_cause);
    std::printf("zero span ids:       %zu\n", span_zero);
  }
  if (audit && trace) {
    std::printf("unresolved span ids: %zu\n", span_unresolved);
    std::printf("evicted span ids:    %zu (eviction; not an error)\n",
                span_evicted);
    std::printf("traces not in dump:  %zu (eviction; not an error)\n",
                trace_missing);
  }
  if (trace && (!audit || in.trace_stats.malformed > 0)) {
    std::printf("span lines: %zu parsed / %zu lines\n", in.trace_stats.parsed,
                in.trace_stats.lines);
    std::printf("malformed span lines: %zu\n", in.trace_stats.malformed);
  }
  const std::string& first_error = !stats.first_error.empty()
                                       ? stats.first_error
                                       : in.trace_stats.first_error;
  if (!first_error.empty()) {
    std::printf("first error: %s\n", first_error.c_str());
  }
  std::printf("%s\n", failed ? "CHECK FAILED" : "CHECK OK");
  return failed ? 1 : 0;
}

// ---- trace dump commands ---------------------------------------------------

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

int RunChrome(int argc, char** argv,
              const std::vector<telemetry::SpanTree>& trees) {
  const std::string out = telemetry::ExportChromeTrace(trees);
  const char* path = FlagValue(argc, argv, "--out");
  if (path == nullptr || std::strcmp(path, "-") == 0) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  if (!cli::WriteFile(path, out)) {
    std::fprintf(stderr, "dcc_why: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(stderr, "dcc_why: %zu trace(s) -> %s\n", trees.size(), path);
  return 0;
}

int RunTraceCommand(const std::string& command, int argc, char** argv,
                    const Inputs& in) {
  if (in.events.empty()) {
    std::fprintf(stderr, "dcc_why: no span events in %s\n", in.trace_path);
    return 1;
  }
  std::vector<telemetry::SpanTree> trees =
      telemetry::BuildSpanTrees(in.events, in.ring);
  const char* id = FlagValue(argc, argv, "--trace");
  if (const uint64_t filter = id ? std::strtoull(id, nullptr, 16) : 0;
      filter != 0) {
    std::erase_if(trees, [filter](const telemetry::SpanTree& tree) {
      return tree.trace_id != filter;
    });
  }
  if (trees.empty()) {
    std::fprintf(stderr, "dcc_why: no matching traces\n");
    return 1;
  }
  if (command == "summary") {
    return RunSummary(trees);
  }
  if (command == "top") {
    const size_t top_n = cli::FlagU64(argc, argv, "--top", 10);
    std::fputs(telemetry::RenderTopAmplifiers(telemetry::Attribute(trees), top_n)
                   .c_str(),
               stdout);
    return 0;
  }
  if (command == "chrome") {
    return RunChrome(argc, argv, trees);
  }
  for (const auto& tree : trees) {
    std::fputs((command == "tree" ? telemetry::RenderTree(tree)
                                  : telemetry::RenderReport(tree))
                   .c_str(),
               stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

// ---- profile commands ------------------------------------------------------

// One selected (label, profile) pair; label is empty for a bare profile.
struct Selected {
  std::string label;
  const Value* profile;
};

// Accepts either the single-profile schema ("tool": "dcc_prof", the
// profile format's tag) or the dcc_bench collection ("tool":
// "dcc_bench_profile").
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
    std::fprintf(stderr, "dcc_why: profile has no sites\n");
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
    std::fprintf(stderr, "dcc_why: profile has no folded stacks\n");
    return 1;
  }
  PrintTree(root, "", -1);
  return 0;
}

int CmdFolded(const Selected& selected) {
  const Value* folded = selected.profile->Find("folded");
  if (folded == nullptr || !folded->is_array()) {
    std::fprintf(stderr, "dcc_why: profile has no folded stacks\n");
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
    std::fprintf(stderr, "dcc_why: profile has no event categories\n");
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
    std::fprintf(stderr, "dcc_why: profile has no copy counters\n");
    return 1;
  }
  for (const auto& [key, value] : copies->AsObject()) {
    std::printf("%-20s %14.0f\n", key.c_str(), value.AsNumber());
  }
  // Derived ratios: the raw counters above are inputs, these are the
  // numbers the acceptance criteria and docs actually talk about.
  const double hops = copies->Number("payload_hops");
  if (hops > 0) {
    // Datagrams carry messages, so encodes happen only where bytes are
    // read (corrupt/truncate faults); these read 0 on fault-free runs.
    std::printf("%-20s %14.2f\n%-20s %14.2f\n%-20s %14.1f\n",
                "msg_copies_per_hop", copies->Number("msg_copies") / hops,
                "encodes_per_hop", copies->Number("encode_calls") / hops,
                "bytes_encoded_per_hop",
                copies->Number("encode_bytes") / hops);
  }
  return 0;
}

int RunProfileCommand(const std::string& command, int argc, char** argv,
                      const Inputs& in) {
  const char* bench_filter = FlagValue(argc, argv, "--bench");
  std::vector<Selected> selected;
  std::string error;
  if (!SelectProfiles(in.profile, bench_filter, &selected, &error)) {
    std::fprintf(stderr, "dcc_why: %s: %s\n", in.profile_path, error.c_str());
    return 1;
  }
  if (command == "folded" && selected.size() != 1) {
    std::fprintf(stderr,
                 "dcc_why: folded needs exactly one profile; %zu match — "
                 "narrow with --bench NAME\n",
                 selected.size());
    return 2;
  }
  const int limit = static_cast<int>(cli::FlagU64(argc, argv, "--top", 20));
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
    } else {
      rc |= CmdCopies(selected[i]);
    }
  }
  return rc;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_why COMMAND FILE... [options]\n"
      "\n"
      "One reader for every artifact a run writes. Each FILE ('-' for stdin)\n"
      "is told apart by content: an audit dump (dcc_sim --audit-out), a trace\n"
      "dump (dcc_sim --trace-out) or a profile (dcc_sim or dcc_bench\n"
      "--profile-out). A is an audit dump, T a trace dump, P a profile.\n"
      "\n"
      "audit commands:\n"
      "  causes A           per-cause rollup: record count, distinct clients,\n"
      "                     active window, example qname\n"
      "  clients A          per-client rollup ranked by records, with each\n"
      "                     client's dominant cause mix (--top, default 20)\n"
      "  why A [T] Q|ID     death narrative for one query: every decision\n"
      "                     matching the qname substring or %%016x trace id,\n"
      "                     in time order, plus related client-level policy\n"
      "                     decisions; given T, then what each matched trace\n"
      "                     cost: its stage-by-stage latency and critical path\n"
      "  collateral A T     benign-vs-attacker breakdown of failed queries\n"
      "                     (--attackers marks the guilty)\n"
      "  coverage A T       fraction of failed queries (dropped or SERVFAIL in\n"
      "                     T) with an audited cause chain\n"
      "  check A [T] | T    validate dumps: every line parses, every cause is\n"
      "                     a known taxonomy entry, every span id is the\n"
      "                     client root or resolves against T. Exit 1 on\n"
      "                     failure. (Also spelled `dcc_why --check`.)\n"
      "\n"
      "trace commands (--trace HEXID restricts to one trace):\n"
      "  summary T          one line per trace: sub-query fan-out, retries,\n"
      "                     causal depth, completion, client latency,\n"
      "                     critical-path span ids\n"
      "  top T              the \"top amplifiers\" report: clients ranked by\n"
      "                     mean upstream queries caused per request, with the\n"
      "                     cause mix (qmin/ns/cname) that fingerprints FF and\n"
      "                     CQ attacks, and the busiest resolver->auth\n"
      "                     channels (--top, default 10)\n"
      "  tree T             ASCII rendering of each causal span tree\n"
      "  report T           stage-by-stage latency breakdown per trace, then\n"
      "                     the critical path\n"
      "  chrome T           Chrome trace-event JSON for chrome://tracing or\n"
      "                     ui.perfetto.dev (--out FILE, default stdout)\n"
      "\n"
      "profile commands (--bench NAME selects by substring in a dcc_bench\n"
      "collection):\n"
      "  top P              ranked sites by self wall time, with coverage\n"
      "                     summary (--top, default 20; 0 = all)\n"
      "  tree P             indented site tree rebuilt from the exact folded\n"
      "                     stacks\n"
      "  folded P           'a;b;c <self_us>' lines for flamegraph tooling;\n"
      "                     needs exactly one matching profile\n"
      "  events P           per-category event-loop stats (count, wall, lag,\n"
      "                     queue)\n"
      "  copies P           message/buffer churn counters with derived\n"
      "                     ratios: copies, encodes and bytes encoded per hop\n"
      "\n"
      "options:\n"
      "  --top N            rows in a ranked table\n"
      "  --attackers A,B    attacker client addresses for `collateral`\n"
      "  --min RATIO        coverage: fail (exit 1) below this ratio\n"
      "  --trace HEXID      trace commands: one trace only\n"
      "  --out FILE         chrome: write to FILE instead of stdout\n"
      "  --bench NAME       profile commands: benches whose name contains NAME\n"
      "\n"
      "exit codes: 0 success; 1 unreadable or empty input, a failed check, or\n"
      "a selection that matches nothing; 2 a usage error.\n");
}

// Flags that take a value; every other non-flag argument is positional.
bool TakesValue(const char* flag) {
  for (const char* name :
       {"--top", "--attackers", "--min", "--trace", "--out", "--bench"}) {
    if (std::strcmp(flag, name) == 0) {
      return true;
    }
  }
  return false;
}

// A command and the inputs it reads: all of `needs`, nothing outside
// `takes`.
struct Command {
  const char* name;
  unsigned needs;
  unsigned takes;
  const char* synopsis;
};

// `top` and `tree` have one entry per input kind they read.
constexpr Command kCommands[] = {
    {"causes", kAuditIn, kAuditIn, "causes A"},
    {"clients", kAuditIn, kAuditIn, "clients A [--top N]"},
    {"why", kAuditIn, kAuditIn | kTraceIn, "why A [T] QNAME|TRACEID"},
    {"collateral", kAuditIn | kTraceIn, kAuditIn | kTraceIn,
     "collateral A T [--attackers A,B]"},
    {"coverage", kAuditIn | kTraceIn, kAuditIn | kTraceIn,
     "coverage A T [--min R]"},
    {"check", 0, kAuditIn | kTraceIn, "check A [T] | check T"},
    {"summary", kTraceIn, kTraceIn, "summary T [--trace ID]"},
    {"report", kTraceIn, kTraceIn, "report T [--trace ID]"},
    {"chrome", kTraceIn, kTraceIn, "chrome T [--trace ID] [--out F]"},
    {"top", kTraceIn, kTraceIn, "top T [--top N] | top P"},
    {"top", kProfileIn, kProfileIn, "top P [--top N] | top T"},
    {"tree", kTraceIn, kTraceIn, "tree T [--trace ID] | tree P"},
    {"tree", kProfileIn, kProfileIn, "tree P | tree T"},
    {"folded", kProfileIn, kProfileIn, "folded P [--bench NAME]"},
    {"events", kProfileIn, kProfileIn, "events P [--bench NAME]"},
    {"copies", kProfileIn, kProfileIn, "copies P [--bench NAME]"},
};

// The entry for `name` that reads a kind in `given` (else its first one);
// nullptr for an unknown command.
const Command* FindCommand(const std::string& name, unsigned given) {
  const Command* found = nullptr;
  for (const Command& command : kCommands) {
    if (name == command.name &&
        (found == nullptr || (command.takes & given) != 0)) {
      found = &command;
    }
  }
  return found;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "dcc_why: %s\n", message.c_str());
  return 2;
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
  if (FindCommand(command, 0) == nullptr) {
    std::fprintf(stderr, "dcc_why: unknown command '%s'\n", command.c_str());
    PrintUsage(stderr);
    return 2;
  }
  std::vector<const char*> files;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      files.push_back(argv[i]);
    } else if (TakesValue(argv[i])) {
      FlagValue(argc, argv, argv[i]);  // Exits 2 when the value is missing.
      ++i;
    } else {
      return UsageError(std::string("unknown option '") + argv[i] + "'");
    }
  }
  std::string target;
  if (command == "why" && !files.empty()) {
    target = files.back();
    files.pop_back();
  }
  if (files.empty()) {
    return UsageError("usage: dcc_why " +
                      std::string(FindCommand(command, 0)->synopsis));
  }
  Inputs in;
  for (const char* path : files) {
    if (const int rc = LoadInput(path, &in); rc != 0) {
      return rc;
    }
  }
  const Command& reads = *FindCommand(command, in.given);
  if ((in.given & reads.needs) != reads.needs ||
      (in.given & ~reads.takes) != 0) {
    return UsageError("usage: dcc_why " + std::string(reads.synopsis) +
                      " (A: audit dump, T: trace dump, P: profile)");
  }
  if (command == "check") {
    return RunCheck(in);
  }
  WarnSkipped(in.audit_stats);
  WarnSkipped(in.trace_stats);
  if (reads.takes == kTraceIn) {
    return RunTraceCommand(command, argc, argv, in);
  }
  if (reads.takes == kProfileIn) {
    return RunProfileCommand(command, argc, argv, in);
  }
  if (in.records.empty()) {
    std::fprintf(stderr, "dcc_why: no audit records in %s\n", in.audit_path);
    return 1;
  }
  if (command == "causes") {
    return RunCauses(in.records);
  }
  if (command == "clients") {
    return RunClients(argc, argv, in.records);
  }
  if (command == "why") {
    return RunWhy(in, target);
  }
  if (command == "collateral") {
    return RunCollateral(argc, argv, in);
  }
  return RunCoverage(argc, argv, in);
}
