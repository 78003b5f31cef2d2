#include "src/dns/rr.h"

namespace dcc {

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kA:
      return "A";
    case RecordType::kNs:
      return "NS";
    case RecordType::kCname:
      return "CNAME";
    case RecordType::kSoa:
      return "SOA";
    case RecordType::kTxt:
      return "TXT";
    case RecordType::kAaaa:
      return "AAAA";
    case RecordType::kOpt:
      return "OPT";
    case RecordType::kNsec:
      return "NSEC";
  }
  return "TYPE?";
}

const char* RcodeName(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError:
      return "NOERROR";
    case Rcode::kFormErr:
      return "FORMERR";
    case Rcode::kServFail:
      return "SERVFAIL";
    case Rcode::kNxDomain:
      return "NXDOMAIN";
    case Rcode::kNotImp:
      return "NOTIMP";
    case Rcode::kRefused:
      return "REFUSED";
  }
  return "RCODE?";
}

std::string ResourceRecord::ToString() const {
  std::string out = name.ToString();
  out += " ";
  out += std::to_string(ttl);
  out += " ";
  out += RecordTypeName(type);
  out += " ";
  switch (type) {
    case RecordType::kA:
    case RecordType::kAaaa:
      out += FormatAddress(address());
      break;
    case RecordType::kNs:
    case RecordType::kCname:
    case RecordType::kNsec:
      out += target().ToString();
      break;
    case RecordType::kSoa: {
      const SoaData& s = soa();
      out += s.mname.ToString() + " " + s.rname.ToString() + " " +
             std::to_string(s.serial) + " min=" + std::to_string(s.minimum);
      break;
    }
    case RecordType::kTxt: {
      for (const auto& s : txt().strings) {
        out += "\"" + s + "\" ";
      }
      break;
    }
    case RecordType::kOpt:
      out += "<opt>";
      break;
  }
  return out;
}

ResourceRecord MakeA(const Name& name, uint32_t ttl, HostAddress addr) {
  return ResourceRecord{name, RecordType::kA, ttl, addr};
}

ResourceRecord MakeNs(const Name& name, uint32_t ttl, const Name& nsdname) {
  return ResourceRecord{name, RecordType::kNs, ttl, nsdname};
}

ResourceRecord MakeCname(const Name& name, uint32_t ttl, const Name& target) {
  return ResourceRecord{name, RecordType::kCname, ttl, target};
}

ResourceRecord MakeSoa(const Name& name, uint32_t ttl, SoaData soa) {
  return ResourceRecord{name, RecordType::kSoa, ttl, SharedSoa(std::move(soa))};
}

ResourceRecord MakeTxt(const Name& name, uint32_t ttl, std::vector<std::string> strings) {
  return ResourceRecord{name, RecordType::kTxt, ttl, TxtData{std::move(strings)}};
}

ResourceRecord MakeNsec(const Name& name, uint32_t ttl, const Name& next) {
  return ResourceRecord{name, RecordType::kNsec, ttl, next};
}

}  // namespace dcc
