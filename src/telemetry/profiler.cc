#include "src/telemetry/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/json.h"

namespace dcc {
namespace prof {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- global site registry ---------------------------------------------------
//
// Append-only: sites are registered once (static init or first intern) and
// never freed, so a site id indexes the names table for the process
// lifetime. The mutex guards registration only — the hot path never takes
// it.

struct SiteRegistry {
  std::mutex mu;
  std::vector<const char*> names;                  // Indexed by site id.
  std::unordered_map<std::string, std::unique_ptr<Site>> interned;
};

SiteRegistry& Registry() {
  static SiteRegistry* registry = new SiteRegistry();  // Leaked: outlives TLS.
  return *registry;
}

uint32_t RegisterSite(const char* name) {
  SiteRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.names.push_back(name);
  return static_cast<uint32_t>(registry.names.size() - 1);
}

std::vector<const char*> SiteNames() {
  SiteRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.names;
}

// --- thread-local profile state ---------------------------------------------

struct SiteStat {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint32_t active = 0;  // Live entries; total_ns only counts the outermost.
};

struct Frame {
  uint32_t site;
  uint64_t start_ns;
  uint64_t child_ns;
  int32_t path_node;
};

// One node of the interned path tree: the stack [root..this] identified by
// following `parent`. Exact folded stacks fall out of walking the nodes.
struct PathNode {
  int32_t parent;  // -1 for roots.
  uint32_t site;
  uint64_t calls = 0;
  uint64_t self_ns = 0;
};

struct EventCatStat {
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t lag_us_sum = 0;
  uint64_t lag_us_max = 0;
};

struct ProfState {
  uint64_t enable_start_ns = 0;
  uint64_t enabled_accum_ns = 0;

  std::vector<SiteStat> sites;
  std::vector<Frame> frames;
  std::vector<PathNode> nodes;
  std::unordered_map<uint64_t, int32_t> node_index;  // (parent, site) -> node.
  std::unordered_map<const void*, Site*> category_sites;
  std::unordered_map<const void*, EventCatStat> event_categories;
  uint64_t queue_depth_max = 0;
  CopyCounters copies;

  int32_t InternPath(int32_t parent, uint32_t site) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(parent + 1)) << 32) | site;
    auto [it, inserted] =
        node_index.emplace(key, static_cast<int32_t>(nodes.size()));
    if (inserted) {
      nodes.push_back(PathNode{parent, site, 0, 0});
    }
    return it->second;
  }

  SiteStat& StatFor(uint32_t site) {
    if (site >= sites.size()) {
      sites.resize(site + 1);
    }
    return sites[site];
  }
};

ProfState& State() {
  static thread_local ProfState state;
  return state;
}

// Closes the duration of the top frame and attributes it; returns the
// frame's inclusive wall time.
uint64_t PopScopeInternal(ProfState& state) {
  const uint64_t now = NowNs();
  Frame frame = state.frames.back();
  state.frames.pop_back();
  const uint64_t dur = now >= frame.start_ns ? now - frame.start_ns : 0;
  const uint64_t self = dur >= frame.child_ns ? dur - frame.child_ns : 0;
  SiteStat& stat = state.StatFor(frame.site);
  stat.self_ns += self;
  if (stat.active > 0 && --stat.active == 0) {
    stat.total_ns += dur;
  }
  state.nodes[frame.path_node].self_ns += self;
  if (!state.frames.empty()) {
    state.frames.back().child_ns += dur;
  }
  return dur;
}

}  // namespace

Site::Site(const char* name) : name_(name), id_(RegisterSite(name)) {}

Site* InternSite(const char* name) {
  SiteRegistry& registry = Registry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.interned.find(name);
    if (it != registry.interned.end()) {
      return it->second.get();
    }
  }
  // Construct outside the lock: the Site ctor re-takes the registry mutex.
  // Racing threads may both construct; first emplace wins, the loser's site
  // stays registered but unused (ids are cheap and never freed).
  auto site = std::make_unique<Site>(name);
  std::lock_guard<std::mutex> lock(registry.mu);
  auto [it, inserted] = registry.interned.emplace(name, std::move(site));
  return it->second.get();
}

void Enable() {
  ProfState& state = State();
  if (TlsEnabled()) {
    return;
  }
  TlsEnabled() = true;
  state.enable_start_ns = NowNs();
}

void Disable() {
  ProfState& state = State();
  if (!TlsEnabled()) {
    return;
  }
  TlsEnabled() = false;
  state.enabled_accum_ns += NowNs() - state.enable_start_ns;
  state.enable_start_ns = 0;
}

void Reset() {
  ProfState& state = State();
  TlsEnabled() = false;
  state = ProfState();
}

void PushScope(const Site& site) {
  ProfState& state = State();
  SiteStat& stat = state.StatFor(site.id());
  ++stat.calls;
  ++stat.active;
  const int32_t parent =
      state.frames.empty() ? -1 : state.frames.back().path_node;
  const int32_t node = state.InternPath(parent, site.id());
  ++state.nodes[node].calls;
  state.frames.push_back(Frame{site.id(), NowNs(), 0, node});
}

void PopScope() {
  ProfState& state = State();
  if (!state.frames.empty()) {
    PopScopeInternal(state);
  }
}

void RecordEventSlow(const char* category, uint64_t wall_ns, uint64_t lag_us) {
  EventCatStat& stat = State().event_categories[category];
  ++stat.count;
  stat.wall_ns += wall_ns;
  stat.lag_us_sum += lag_us;
  stat.lag_us_max = std::max(stat.lag_us_max, lag_us);
}

void RecordQueueDepthSlow(uint64_t depth) {
  ProfState& state = State();
  state.queue_depth_max = std::max(state.queue_depth_max, depth);
}

CopyCounters& MutableCopyCounters() { return State().copies; }

EventScope::EventScope(const char* category, uint64_t lag_us)
    : active_(TlsEnabled()), category_(category), lag_us_(lag_us) {
  if (!active_) {
    return;
  }
  ProfState& state = State();
  auto [it, inserted] = state.category_sites.emplace(category, nullptr);
  if (inserted) {
    it->second = InternSite(category);
  }
  PushScope(*it->second);
  start_ns_ = state.frames.back().start_ns;
}

EventScope::~EventScope() {
  if (!active_) {
    return;
  }
  ProfState& state = State();
  const uint64_t wall_ns =
      state.frames.empty() ? 0 : PopScopeInternal(state);
  RecordEventSlow(category_, wall_ns, lag_us_);
}

ProfileReport Snapshot() {
  ProfState& state = State();
  const std::vector<const char*> names = SiteNames();
  ProfileReport report;
  report.enabled_wall_ns = state.enabled_accum_ns;
  if (TlsEnabled()) {
    report.enabled_wall_ns += NowNs() - state.enable_start_ns;
  }
  for (uint32_t id = 0; id < state.sites.size(); ++id) {
    const SiteStat& stat = state.sites[id];
    if (stat.calls == 0) {
      continue;
    }
    SiteReport site;
    site.name = id < names.size() ? names[id] : "?";
    site.calls = stat.calls;
    site.total_ns = stat.total_ns;
    site.self_ns = stat.self_ns;
    report.attributed_ns += stat.self_ns;
    report.sites.push_back(std::move(site));
  }
  std::sort(report.sites.begin(), report.sites.end(),
            [](const SiteReport& a, const SiteReport& b) {
              return a.self_ns != b.self_ns ? a.self_ns > b.self_ns
                                            : a.name < b.name;
            });
  for (const PathNode& node : state.nodes) {
    if (node.calls == 0) {
      continue;
    }
    PathReport path;
    path.calls = node.calls;
    path.self_ns = node.self_ns;
    // Walk parents to the root, then reverse into outermost-first order.
    for (int32_t cursor = static_cast<int32_t>(&node - state.nodes.data());
         cursor >= 0; cursor = state.nodes[cursor].parent) {
      const uint32_t site = state.nodes[cursor].site;
      path.stack.push_back(site < names.size() ? names[site] : "?");
    }
    std::reverse(path.stack.begin(), path.stack.end());
    report.folded.push_back(std::move(path));
  }
  // Merge category stats by name (the map is keyed by pointer; identical
  // literals in different TUs may have distinct addresses).
  std::unordered_map<std::string, EventCategoryReport> merged;
  for (const auto& [key, stat] : state.event_categories) {
    const char* name = static_cast<const char*>(key);
    EventCategoryReport& row = merged[name];
    row.category = name;
    row.count += stat.count;
    row.wall_ns += stat.wall_ns;
    row.lag_us_sum += stat.lag_us_sum;
    row.lag_us_max = std::max(row.lag_us_max, stat.lag_us_max);
  }
  for (auto& [name, row] : merged) {
    report.event_categories.push_back(std::move(row));
  }
  std::sort(report.event_categories.begin(), report.event_categories.end(),
            [](const EventCategoryReport& a, const EventCategoryReport& b) {
              return a.wall_ns != b.wall_ns ? a.wall_ns > b.wall_ns
                                            : a.category < b.category;
            });
  report.queue_depth_max = state.queue_depth_max;
  report.copies = state.copies;
  return report;
}

json::Value ProfileJsonValue(const ProfileReport& report) {
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  json::Value root = json::Value::MakeObject();
  root.Set("tool", json::Value::OfString("dcc_prof"));
  root.Set("version", json::Value::OfNumber(1));
  root.Set("enabled_wall_ms", json::Value::OfNumber(ms(report.enabled_wall_ns)));
  root.Set("attributed_ms", json::Value::OfNumber(ms(report.attributed_ns)));
  const uint64_t unattributed_ns =
      report.enabled_wall_ns >= report.attributed_ns
          ? report.enabled_wall_ns - report.attributed_ns
          : 0;
  root.Set("unattributed_ms", json::Value::OfNumber(ms(unattributed_ns)));
  root.Set("attributed_fraction",
           json::Value::OfNumber(
               report.enabled_wall_ns > 0
                   ? static_cast<double>(report.attributed_ns) /
                         static_cast<double>(report.enabled_wall_ns)
                   : 0));

  json::Value sites = json::Value::MakeArray();
  for (const SiteReport& site : report.sites) {
    json::Value row = json::Value::MakeObject();
    row.Set("name", json::Value::OfString(site.name));
    row.Set("calls", json::Value::OfNumber(static_cast<double>(site.calls)));
    row.Set("total_ms", json::Value::OfNumber(ms(site.total_ns)));
    row.Set("self_ms", json::Value::OfNumber(ms(site.self_ns)));
    sites.PushBack(std::move(row));
  }
  root.Set("sites", std::move(sites));

  json::Value folded = json::Value::MakeArray();
  for (const PathReport& path : report.folded) {
    std::string stack;
    for (size_t i = 0; i < path.stack.size(); ++i) {
      if (i > 0) {
        stack += ';';
      }
      stack += path.stack[i];
    }
    json::Value row = json::Value::MakeObject();
    row.Set("stack", json::Value::OfString(std::move(stack)));
    row.Set("calls", json::Value::OfNumber(static_cast<double>(path.calls)));
    row.Set("self_us",
            json::Value::OfNumber(static_cast<double>(path.self_ns / 1000)));
    folded.PushBack(std::move(row));
  }
  root.Set("folded", std::move(folded));

  json::Value categories = json::Value::MakeArray();
  for (const EventCategoryReport& cat : report.event_categories) {
    json::Value row = json::Value::MakeObject();
    row.Set("category", json::Value::OfString(cat.category));
    row.Set("count", json::Value::OfNumber(static_cast<double>(cat.count)));
    row.Set("wall_ms", json::Value::OfNumber(ms(cat.wall_ns)));
    row.Set("lag_us_sum",
            json::Value::OfNumber(static_cast<double>(cat.lag_us_sum)));
    row.Set("lag_us_max",
            json::Value::OfNumber(static_cast<double>(cat.lag_us_max)));
    categories.PushBack(std::move(row));
  }
  json::Value events = json::Value::MakeObject();
  events.Set("categories", std::move(categories));
  events.Set("queue_depth_max",
             json::Value::OfNumber(static_cast<double>(report.queue_depth_max)));
  root.Set("events", std::move(events));

  json::Value copies = json::Value::MakeObject();
  const CopyCounters& c = report.copies;
  auto count = [&copies](const char* key, uint64_t value) {
    copies.Set(key, json::Value::OfNumber(static_cast<double>(value)));
  };
  count("msg_copies", c.msg_copies);
  count("msg_moves", c.msg_moves);
  count("encode_calls", c.encode_calls);
  count("encode_bytes", c.encode_bytes);
  count("decode_calls", c.decode_calls);
  count("decode_bytes", c.decode_bytes);
  count("payload_hops", c.payload_hops);
  count("encode_cache_hits", c.encode_cache_hits);
  root.Set("copies", std::move(copies));

  return root;
}

std::string WriteProfileJson(const ProfileReport& report) {
  return json::Write(ProfileJsonValue(report), 1) + "\n";
}

}  // namespace prof
}  // namespace dcc
