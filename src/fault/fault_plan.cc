#include "src/fault/fault_plan.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/rng.h"

namespace dcc {
namespace fault {
namespace {

struct KeyValue {
  std::string key;
  std::string value;
};

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> SplitWhitespace(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : s) {
    if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

bool ParseDuration(const std::string& s, Duration* out) {
  if (s.empty()) return false;
  double scale = static_cast<double>(kSecond);  // Bare numbers are seconds.
  std::string digits = s;
  if (s.size() >= 2 && s.compare(s.size() - 2, 2, "ms") == 0) {
    scale = static_cast<double>(kMillisecond);
    digits = s.substr(0, s.size() - 2);
  } else if (s.size() >= 2 && s.compare(s.size() - 2, 2, "us") == 0) {
    scale = 1.0;
    digits = s.substr(0, s.size() - 2);
  } else if (s.back() == 's') {
    digits = s.substr(0, s.size() - 1);
  }
  char* end = nullptr;
  double value = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || !(value >= 0)) return false;
  // Non-finite values and microsecond counts past INT64_MAX do not fit.
  const double us = value * scale;
  if (!(us < 0x1p63)) return false;
  *out = static_cast<Duration>(us);
  return true;
}

bool ParseAddress(const std::string& s, HostAddress* out) {
  if (s == "*") {
    *out = kAnyHost;
    return true;
  }
  uint32_t octets[4];
  int parsed = 0;
  size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    size_t dot = (i < 3) ? s.find('.', pos) : s.size();
    if (dot == std::string::npos) return false;
    std::string part = s.substr(pos, dot - pos);
    if (part.empty() || part.size() > 3) return false;
    for (char c : part) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    }
    unsigned long value = std::strtoul(part.c_str(), nullptr, 10);
    if (value > 255) return false;
    octets[i] = static_cast<uint32_t>(value);
    ++parsed;
    pos = dot + 1;
  }
  if (parsed != 4) return false;
  *out = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3];
  return *out != kInvalidAddress;
}

bool ParseGroup(const std::string& s, std::vector<HostAddress>* out) {
  out->clear();
  for (const std::string& part : SplitComma(s)) {
    HostAddress addr = kAnyHost;
    if (part == "*" || !ParseAddress(part, &addr)) return false;
    out->push_back(addr);
  }
  return !out->empty();
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string FormatDuration(Duration d) {
  std::ostringstream out;
  if (d % kSecond == 0) {
    out << (d / kSecond) << "s";
  } else if (d % kMillisecond == 0) {
    out << (d / kMillisecond) << "ms";
  } else {
    out << d << "us";
  }
  return out.str();
}

std::string FormatEndpoint(HostAddress addr) {
  return addr == kAnyHost ? "*" : FormatAddress(addr);
}

std::string FormatGroup(const std::vector<HostAddress>& group) {
  std::string out;
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += FormatAddress(group[i]);
  }
  return out;
}

bool TypeFromKeyword(const std::string& keyword, FaultType* out) {
  if (keyword == "loss") *out = FaultType::kLinkLoss;
  else if (keyword == "delay") *out = FaultType::kLinkDelay;
  else if (keyword == "flap") *out = FaultType::kLinkFlap;
  else if (keyword == "partition") *out = FaultType::kPartition;
  else if (keyword == "blackout") *out = FaultType::kBlackout;
  else if (keyword == "crash") *out = FaultType::kCrash;
  else if (keyword == "corrupt") *out = FaultType::kCorruption;
  else if (keyword == "truncate") *out = FaultType::kTruncation;
  else return false;
  return true;
}

const char* KeywordFromType(FaultType type) {
  switch (type) {
    case FaultType::kLinkLoss: return "loss";
    case FaultType::kLinkDelay: return "delay";
    case FaultType::kLinkFlap: return "flap";
    case FaultType::kPartition: return "partition";
    case FaultType::kBlackout: return "blackout";
    case FaultType::kCrash: return "crash";
    case FaultType::kCorruption: return "corrupt";
    case FaultType::kTruncation: return "truncate";
  }
  return "unknown";
}

bool Fail(std::string* error, int line, const std::string& reason) {
  if (error != nullptr) {
    std::ostringstream out;
    out << "line " << line << ": " << reason;
    *error = out.str();
  }
  return false;
}

}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kLinkLoss: return "link_loss";
    case FaultType::kLinkDelay: return "link_delay";
    case FaultType::kLinkFlap: return "link_flap";
    case FaultType::kPartition: return "partition";
    case FaultType::kBlackout: return "blackout";
    case FaultType::kCrash: return "crash";
    case FaultType::kCorruption: return "corruption";
    case FaultType::kTruncation: return "truncation";
  }
  return "unknown";
}

bool ParseFaultPlan(const std::string& text, FaultPlan* plan, std::string* error) {
  FaultPlan result;
  std::istringstream in(text);
  std::string raw_line;
  int line_number = 0;
  while (std::getline(in, raw_line)) {
    ++line_number;
    size_t comment = raw_line.find('#');
    if (comment != std::string::npos) raw_line = raw_line.substr(0, comment);
    std::string line = Trim(raw_line);
    if (line.empty()) continue;
    std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens[0] == "seed") {
      if (tokens.size() != 2) return Fail(error, line_number, "seed takes one value");
      // strtoull wraps a negative value and saturates an overflowing one;
      // both are errors here.
      const char* value = tokens[1].c_str();
      char* end = nullptr;
      errno = 0;
      result.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-' || errno == ERANGE) {
        return Fail(error, line_number, "bad seed value '" + tokens[1] + "'");
      }
      continue;
    }
    FaultEvent event;
    if (!TypeFromKeyword(tokens[0], &event.type)) {
      return Fail(error, line_number, "unknown fault type '" + tokens[0] + "'");
    }
    bool have_start = false;
    bool have_end = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
      size_t eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        return Fail(error, line_number, "expected key=value, got '" + tokens[i] + "'");
      }
      KeyValue kv{tokens[i].substr(0, eq), tokens[i].substr(eq + 1)};
      bool ok = true;
      Duration duration_value = 0;
      if (kv.key == "start") {
        ok = ParseDuration(kv.value, &duration_value);
        event.start = duration_value;
        have_start = ok;
      } else if (kv.key == "end") {
        ok = ParseDuration(kv.value, &duration_value);
        event.end = duration_value;
        have_end = ok;
      } else if (kv.key == "a") {
        ok = ParseAddress(kv.value, &event.a);
      } else if (kv.key == "b") {
        ok = ParseAddress(kv.value, &event.b);
      } else if (kv.key == "host") {
        ok = ParseAddress(kv.value, &event.a) && event.a != kAnyHost;
      } else if (kv.key == "group-a") {
        ok = ParseGroup(kv.value, &event.group_a);
      } else if (kv.key == "group-b") {
        ok = ParseGroup(kv.value, &event.group_b);
      } else if (kv.key == "p") {
        ok = ParseDouble(kv.value, &event.probability) && event.probability >= 0.0 &&
             event.probability <= 1.0;
      } else if (kv.key == "add") {
        ok = ParseDuration(kv.value, &event.delay);
      } else if (kv.key == "period") {
        ok = ParseDuration(kv.value, &event.period);
      } else if (kv.key == "duty") {
        ok = ParseDouble(kv.value, &event.duty_down) && event.duty_down > 0.0 &&
             event.duty_down < 1.0;
      } else {
        return Fail(error, line_number, "unknown key '" + kv.key + "'");
      }
      if (!ok) {
        return Fail(error, line_number, "bad value for '" + kv.key + "': '" + kv.value + "'");
      }
    }
    if (!have_start || !have_end || event.end <= event.start) {
      return Fail(error, line_number, "events need start= and end= with end > start");
    }
    switch (event.type) {
      case FaultType::kBlackout:
      case FaultType::kCrash:
        if (event.a == kAnyHost) return Fail(error, line_number, "needs host=");
        break;
      case FaultType::kPartition:
        if (event.group_a.empty() || event.group_b.empty()) {
          return Fail(error, line_number, "needs group-a= and group-b=");
        }
        break;
      case FaultType::kLinkLoss:
      case FaultType::kCorruption:
      case FaultType::kTruncation:
        if (event.probability <= 0.0) return Fail(error, line_number, "needs p= > 0");
        break;
      case FaultType::kLinkDelay:
        if (event.delay <= 0) return Fail(error, line_number, "needs add= > 0");
        break;
      case FaultType::kLinkFlap:
        if (event.period <= 0) return Fail(error, line_number, "needs period= > 0");
        break;
    }
    result.events.push_back(std::move(event));
  }
  *plan = std::move(result);
  return true;
}

bool LoadFaultPlanFile(const std::string& path, FaultPlan* plan, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseFaultPlan(text.str(), plan, error);
}

std::string FormatFaultPlan(const FaultPlan& plan) {
  std::ostringstream out;
  out << "seed " << plan.seed << "\n";
  for (const FaultEvent& e : plan.events) {
    out << KeywordFromType(e.type) << " start=" << FormatDuration(e.start)
        << " end=" << FormatDuration(e.end);
    switch (e.type) {
      case FaultType::kBlackout:
      case FaultType::kCrash:
        out << " host=" << FormatAddress(e.a);
        break;
      case FaultType::kPartition:
        out << " group-a=" << FormatGroup(e.group_a)
            << " group-b=" << FormatGroup(e.group_b);
        break;
      default:
        out << " a=" << FormatEndpoint(e.a) << " b=" << FormatEndpoint(e.b);
        break;
    }
    switch (e.type) {
      case FaultType::kLinkLoss:
      case FaultType::kCorruption:
      case FaultType::kTruncation:
        out << " p=" << e.probability;
        break;
      case FaultType::kLinkDelay:
        out << " add=" << FormatDuration(e.delay);
        break;
      case FaultType::kLinkFlap:
        out << " period=" << FormatDuration(e.period) << " duty=" << e.duty_down;
        break;
      default:
        break;
    }
    out << "\n";
  }
  return out.str();
}

FaultPlan MakeRandomFaultPlan(const RandomFaultOptions& options) {
  FaultPlan plan;
  plan.seed = options.seed;
  if (options.hosts.empty() || options.events_per_minute <= 0.0) {
    return plan;
  }
  Rng rng(options.seed);
  Rng gap_rng = rng.Fork(1);
  const double mean_gap_us = 60.0 * kSecond / options.events_per_minute;
  const double total_weight = options.weight_loss + options.weight_delay +
                              options.weight_flap + options.weight_blackout +
                              options.weight_corrupt;
  if (total_weight <= 0.0) {
    return plan;
  }
  Time at = 0;
  while (true) {
    at += static_cast<Duration>(gap_rng.NextExponential(mean_gap_us));
    if (at >= options.horizon) break;
    FaultEvent event;
    event.start = at;
    Duration length = static_cast<Duration>(
        rng.NextExponential(static_cast<double>(options.mean_duration)));
    if (length < Milliseconds(100)) length = Milliseconds(100);
    event.end = at + length;
    if (event.end > options.horizon) event.end = options.horizon;
    if (event.end <= event.start) continue;
    double pick = rng.NextDouble() * total_weight;
    HostAddress host = options.hosts[rng.NextBelow(options.hosts.size())];
    if ((pick -= options.weight_loss) < 0.0) {
      event.type = FaultType::kLinkLoss;
      event.a = kAnyHost;
      event.b = host;
      event.probability = 0.1 + 0.4 * rng.NextDouble();
    } else if ((pick -= options.weight_delay) < 0.0) {
      event.type = FaultType::kLinkDelay;
      event.a = kAnyHost;
      event.b = host;
      event.delay = Milliseconds(10 + static_cast<int64_t>(rng.NextBelow(190)));
    } else if ((pick -= options.weight_flap) < 0.0) {
      event.type = FaultType::kLinkFlap;
      event.a = kAnyHost;
      event.b = host;
      event.period = Milliseconds(500 + static_cast<int64_t>(rng.NextBelow(3500)));
      event.duty_down = 0.3 + 0.4 * rng.NextDouble();
    } else if ((pick -= options.weight_blackout) < 0.0) {
      event.type = FaultType::kBlackout;
      event.a = host;
    } else {
      event.type = FaultType::kCorruption;
      event.a = kAnyHost;
      event.b = host;
      event.probability = 0.005 + 0.045 * rng.NextDouble();
    }
    plan.events.push_back(std::move(event));
  }
  return plan;
}

}  // namespace fault
}  // namespace dcc
