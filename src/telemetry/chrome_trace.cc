#include "src/telemetry/chrome_trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/ids.h"

namespace dcc {
namespace telemetry {
namespace {

void AppendEvent(std::string& out, bool& first, const char* event_json) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  out += "  ";
  out += event_json;
}

// DFS pre-order walk assigning display sort indices so a tree reads
// top-down in the viewer even though tids are span ids.
void SortOrder(const SpanTree& tree, size_t index, std::vector<size_t>& order) {
  order.push_back(index);
  for (size_t child : tree.nodes[index].children) {
    SortOrder(tree, child, order);
  }
}

}  // namespace

std::string ExportChromeTrace(const std::vector<SpanTree>& trees) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  int pid = 0;
  for (const SpanTree& tree : trees) {
    ++pid;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"name\":\"trace %016" PRIx64 " client %s%s\"}}",
                  pid, tree.trace_id, FormatAddress(tree.client).c_str(),
                  tree.truncated ? " [truncated]" : "");
    AppendEvent(out, first, buf);

    std::vector<size_t> order;
    const size_t start = tree.root != kNoNode ? tree.root
                         : tree.nodes.empty() ? kNoNode
                                              : 0;
    if (start != kNoNode) {
      SortOrder(tree, start, order);
    }
    // Orphan subtrees disconnected from the root still get emitted, after
    // the reachable ones.
    std::vector<bool> seen(tree.nodes.size(), false);
    for (size_t index : order) {
      seen[index] = true;
    }
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      if (!seen[i]) {
        order.push_back(i);
      }
    }

    int sort_index = 0;
    for (size_t index : order) {
      const SpanNode& node = tree.nodes[index];
      const Time dur = node.end > node.start ? node.end - node.start : 1;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                    "\"tid\":%u,\"args\":{\"name\":\"span %u %s%s\"}}",
                    pid, node.span_id, node.span_id,
                    SubQueryCauseName(node.cause),
                    node.orphaned ? " (orphaned)" : "");
      AppendEvent(out, first, buf);
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":%d,"
                    "\"tid\":%u,\"args\":{\"sort_index\":%d}}",
                    pid, node.span_id, sort_index++);
      AppendEvent(out, first, buf);
      std::snprintf(
          buf, sizeof(buf),
          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"dns\",\"ts\":%" PRId64
          ",\"dur\":%" PRId64
          ",\"pid\":%d,\"tid\":%u,\"args\":{\"span_id\":%u,"
          "\"parent_span_id\":%u,\"peer\":\"%s\",\"depth\":%d,\"events\":%zu}}",
          SubQueryCauseName(node.cause), node.start, dur, pid, node.span_id,
          node.span_id, node.parent_span_id, FormatAddress(node.peer).c_str(),
          node.depth, node.events.size());
      AppendEvent(out, first, buf);
      // Each recorded stage becomes an instant event on the span's track, so
      // the policer/scheduler/egress hops are visible inside the slice.
      for (const SpanEvent& event : node.events) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"dns\",\"s\":\"t\","
                      "\"ts\":%" PRId64
                      ",\"pid\":%d,\"tid\":%u,\"args\":{\"actor\":\"%s\","
                      "\"detail\":%d}}",
                      SpanKindName(event.kind), event.at, pid, node.span_id,
                      FormatAddress(event.actor).c_str(), event.detail);
        AppendEvent(out, first, buf);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace telemetry
}  // namespace dcc
