#include "src/zone/zone_parser.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

namespace dcc {
namespace {

// One whitespace-separated token stream with ';' comments stripped.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ';') {
      break;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

bool ParseU32(const std::string& token, uint32_t& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

// Parses a dotted-quad or bare integer address.
bool ParseAddress(const std::string& token, HostAddress& out) {
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  char extra = 0;
  if (std::sscanf(token.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) == 4 &&
      a < 256 && b < 256 && c < 256 && d < 256) {
    out = (a << 24) | (b << 16) | (c << 8) | d;
    return true;
  }
  uint32_t raw = 0;
  if (ParseU32(token, raw)) {
    out = raw;
    return true;
  }
  return false;
}

// Resolves a possibly-relative owner/target name against the origin.
std::optional<Name> ResolveName(const std::string& token, const Name& origin) {
  if (token == "@") {
    return origin;
  }
  if (!token.empty() && token.back() == '.') {
    return Name::Parse(token);  // Absolute.
  }
  const auto relative = Name::Parse(token);
  if (!relative.has_value()) {
    return std::nullopt;
  }
  return Name::Concat(*relative, origin);
}

struct PendingRecord {
  Name owner;
  uint32_t ttl = 0;
  RecordType type = RecordType::kA;
  std::vector<std::string> rdata;
  int line = 0;
};

}  // namespace

ZoneParseResult ParseZoneText(std::string_view text, const Name& default_origin) {
  ZoneParseResult result;
  Name origin = default_origin;
  uint32_t default_ttl = 600;
  std::optional<Name> last_owner;

  std::vector<PendingRecord> records;
  std::optional<SoaData> soa;
  Name soa_owner;
  uint32_t soa_ttl = 600;

  int line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
    }
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    auto tokens = Tokenize(line);
    if (tokens.empty()) {
      if (eol == text.size()) {
        break;
      }
      continue;
    }

    // Directives.
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) {
        result.errors.push_back({line_number, "$ORIGIN needs one argument"});
        continue;
      }
      auto parsed = Name::Parse(tokens[1]);
      if (!parsed.has_value()) {
        result.errors.push_back({line_number, "invalid $ORIGIN name"});
        continue;
      }
      origin = *parsed;
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2 || !ParseU32(tokens[1], default_ttl)) {
        result.errors.push_back({line_number, "invalid $TTL"});
      }
      continue;
    }

    // Record line: [owner] [ttl] [class] type rdata...
    size_t index = 0;
    Name owner;
    const bool line_starts_with_space =
        !line.empty() && std::isspace(static_cast<unsigned char>(line[0])) != 0;
    if (line_starts_with_space && last_owner.has_value()) {
      owner = *last_owner;
    } else {
      auto parsed = ResolveName(tokens[0], origin);
      if (!parsed.has_value()) {
        result.errors.push_back({line_number, "invalid owner name: " + tokens[0]});
        continue;
      }
      owner = *parsed;
      ++index;
    }
    last_owner = owner;

    uint32_t ttl = default_ttl;
    if (index < tokens.size()) {
      uint32_t parsed_ttl = 0;
      if (ParseU32(tokens[index], parsed_ttl)) {
        ttl = parsed_ttl;
        ++index;
      }
    }
    if (index < tokens.size() && (tokens[index] == "IN" || tokens[index] == "in")) {
      ++index;
    }
    if (index >= tokens.size()) {
      result.errors.push_back({line_number, "missing record type"});
      continue;
    }
    std::string type_token = tokens[index++];
    for (char& c : type_token) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }

    std::vector<std::string> rdata(tokens.begin() + static_cast<ptrdiff_t>(index),
                                   tokens.end());

    if (type_token == "SOA") {
      if (rdata.size() != 7) {
        result.errors.push_back({line_number, "SOA needs 7 rdata fields"});
        continue;
      }
      SoaData parsed;
      const auto mname = ResolveName(rdata[0], origin);
      const auto rname = ResolveName(rdata[1], origin);
      if (!mname.has_value() || !rname.has_value() ||
          !ParseU32(rdata[2], parsed.serial) || !ParseU32(rdata[3], parsed.refresh) ||
          !ParseU32(rdata[4], parsed.retry) || !ParseU32(rdata[5], parsed.expire) ||
          !ParseU32(rdata[6], parsed.minimum)) {
        result.errors.push_back({line_number, "invalid SOA rdata"});
        continue;
      }
      parsed.mname = *mname;
      parsed.rname = *rname;
      if (!soa.has_value()) {
        soa = parsed;
        soa_owner = owner;
        soa_ttl = ttl;
      }
      continue;
    }

    PendingRecord record;
    record.owner = owner;
    record.ttl = ttl;
    record.rdata = std::move(rdata);
    record.line = line_number;
    if (type_token == "A") {
      record.type = RecordType::kA;
    } else if (type_token == "AAAA") {
      record.type = RecordType::kAaaa;
    } else if (type_token == "NS") {
      record.type = RecordType::kNs;
    } else if (type_token == "CNAME") {
      record.type = RecordType::kCname;
    } else if (type_token == "TXT") {
      record.type = RecordType::kTxt;
    } else {
      result.errors.push_back({line_number, "unsupported record type: " + type_token});
      continue;
    }
    records.push_back(std::move(record));
  }

  // Build the zone.
  const Name apex = soa.has_value() ? soa_owner : origin;
  if (!soa.has_value()) {
    SoaData synthetic;
    synthetic.mname = apex;
    synthetic.rname = apex;
    synthetic.serial = 1;
    synthetic.minimum = default_ttl;
    soa = synthetic;
    soa_ttl = default_ttl;
  }
  std::vector<ResourceRecord> zone_records;
  zone_records.reserve(records.size() + 1);  // Room for the zone SOA.
  for (const auto& record : records) {
    std::optional<ResourceRecord> rr;
    switch (record.type) {
      case RecordType::kA:
      case RecordType::kAaaa: {
        HostAddress addr = 0;
        if (record.rdata.size() == 1 && ParseAddress(record.rdata[0], addr)) {
          rr = ResourceRecord{record.owner, record.type, record.ttl, addr};
        }
        break;
      }
      case RecordType::kNs:
      case RecordType::kCname: {
        if (record.rdata.size() == 1) {
          const auto target = ResolveName(record.rdata[0], origin);
          if (target.has_value()) {
            rr = ResourceRecord{record.owner, record.type, record.ttl, *target};
          }
        }
        break;
      }
      case RecordType::kTxt: {
        std::vector<std::string> strings;
        for (std::string token : record.rdata) {
          // Strip surrounding quotes if present.
          if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
            token = token.substr(1, token.size() - 2);
          }
          strings.push_back(std::move(token));
        }
        if (!strings.empty()) {
          rr = ResourceRecord{record.owner, record.type, record.ttl,
                              TxtData{std::move(strings)}};
        }
        break;
      }
      default:
        break;
    }
    if (rr.has_value() && rr->name.IsSubdomainOf(apex)) {
      zone_records.push_back(std::move(*rr));
    } else {
      std::ostringstream message;
      message << "invalid rdata for " << record.owner.ToString()
              << " (or owner outside zone apex " << apex.ToString() << ")";
      result.errors.push_back({record.line, message.str()});
    }
  }

  result.zone.emplace(apex, *soa, std::move(zone_records),
                      ZoneOptions{.default_ttl = soa_ttl});
  return result;
}

ZoneParseResult ParseZoneFile(const std::string& path, const Name& default_origin) {
  std::ifstream in(path);
  if (!in) {
    ZoneParseResult result;
    result.errors.push_back({0, "cannot open " + path});
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseZoneText(buffer.str(), default_origin);
}

}  // namespace dcc
