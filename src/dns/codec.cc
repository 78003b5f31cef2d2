#include "src/dns/codec.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

constexpr uint16_t kCompressionMask = 0xc000;
constexpr size_t kMaxCompressionJumps = 64;
constexpr size_t kMaxLabelLength = 63;
// Compression pointers carry 14 bits of offset.
constexpr size_t kMaxPointerTarget = 0x3fff;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// A name suffix already in the output: labels [first, end) of `*name`,
// written at `offset`. The names are the message's own, alive for the
// duration of the encode.
struct EmittedSuffix {
  const Name* name;
  size_t first;
  uint16_t offset;
};

// Encoding allocates the output once and nothing per name: the compression
// table is per-thread scratch storage, reused across messages.
class Writer {
 public:
  // `size_bound` >= the encoded size. The capacity is rounded up to a power
  // of two, the capacity push_back growth used to reach: exact-size buffers
  // fall into the same allocator size classes as long-lived copies and
  // fragmented the heap of multi-scenario processes (dcc_bench's per-bench
  // peak RSS grew by up to 11 MB).
  explicit Writer(size_t size_bound) : suffixes_(SuffixScratch()) {
    buf_.reserve(std::bit_ceil(size_bound));
    suffixes_.clear();
  }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v >> 16));
    U16(static_cast<uint16_t>(v));
  }
  template <class Range>
  void Bytes(const Range& b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void PatchU16(size_t pos, uint16_t v) {
    buf_[pos] = static_cast<uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<uint8_t>(v);
  }
  size_t Size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

  // Writes `name`, replacing its longest suffix already in the output with
  // a compression pointer to the earliest copy. Suffixes are recorded only
  // while their offset fits in a pointer.
  void WriteName(const Name& name) {
    const auto& labels = name.labels();
    for (size_t i = 0; i < labels.size(); ++i) {
      if (const EmittedSuffix* match = Find(name, i); match != nullptr) {
        U16(static_cast<uint16_t>(kCompressionMask | match->offset));
        return;
      }
      if (Size() < kMaxPointerTarget) {
        suffixes_.push_back({&name, i, static_cast<uint16_t>(Size())});
      }
      U8(static_cast<uint8_t>(labels[i].size()));
      Bytes(labels[i]);
    }
    U8(0);  // Root label.
  }

 private:
  // The first recorded suffix equal (case-insensitively) to labels
  // [from, end) of `name`, or nullptr.
  const EmittedSuffix* Find(const Name& name, size_t from) const {
    const size_t count = name.LabelCount() - from;
    for (const EmittedSuffix& s : suffixes_) {
      if (s.name->LabelCount() - s.first != count) {
        continue;
      }
      size_t k = 0;
      while (k < count &&
             LabelEqualsIgnoreCase(s.name->Label(s.first + k), name.Label(from + k))) {
        ++k;
      }
      if (k == count) {
        return &s;
      }
    }
    return nullptr;
  }

  static std::vector<EmittedSuffix>& SuffixScratch() {
    thread_local std::vector<EmittedSuffix> suffixes;
    return suffixes;
  }

  std::vector<uint8_t> buf_;
  std::vector<EmittedSuffix>& suffixes_;
};

// Upper bound on the encoded size of `rr`: its names uncompressed.
size_t RecordSizeBound(const ResourceRecord& rr) {
  size_t n = rr.name.WireLength() + 10;  // TYPE, CLASS, TTL, RDLENGTH.
  switch (rr.type) {
    case RecordType::kA:
      return n + 4;
    case RecordType::kAaaa:
      return n + 16;
    case RecordType::kNs:
    case RecordType::kCname:
    case RecordType::kNsec:
      return n + rr.target().WireLength();
    case RecordType::kSoa:
      return n + rr.soa().mname.WireLength() + rr.soa().rname.WireLength() + 20;
    case RecordType::kTxt:
      for (const auto& s : rr.txt().strings) {
        n += 1 + std::min<size_t>(s.size(), 255);
      }
      return n;
    case RecordType::kOpt:
      if (const auto* raw = std::get_if<std::vector<uint8_t>>(&rr.rdata)) {
        n += raw->size();
      }
      return n;
  }
  return n;
}

// Upper bound on the size of EncodeMessage(msg): every name uncompressed.
size_t MessageSizeBound(const Message& msg) {
  size_t n = 12;  // Header.
  for (const auto& q : msg.question) {
    n += q.qname.WireLength() + 4;
  }
  for (const auto* section : {&msg.answers, &msg.authority, &msg.additional}) {
    for (const auto& rr : *section) {
      n += RecordSizeBound(rr);
    }
  }
  if (msg.edns.has_value()) {
    n += 11;
    for (const auto& opt : msg.edns->options) {
      n += 4 + opt.payload.size();
    }
  }
  return n;
}

void WriteRecord(Writer& w, const ResourceRecord& rr) {
  w.WriteName(rr.name);
  w.U16(static_cast<uint16_t>(rr.type));
  w.U16(1);  // CLASS IN
  w.U32(rr.ttl);
  const size_t rdlen_pos = w.Size();
  w.U16(0);  // Placeholder for RDLENGTH.
  const size_t rdata_start = w.Size();
  switch (rr.type) {
    case RecordType::kA:
      w.U32(rr.address());
      break;
    case RecordType::kAaaa:
      // The simulator's flat 32-bit space is embedded in the low bits.
      w.U32(0);
      w.U32(0);
      w.U32(0);
      w.U32(rr.address());
      break;
    case RecordType::kNs:
    case RecordType::kCname:
    case RecordType::kNsec:
      w.WriteName(rr.target());
      break;
    case RecordType::kSoa: {
      const SoaData& s = rr.soa();
      w.WriteName(s.mname);
      w.WriteName(s.rname);
      w.U32(s.serial);
      w.U32(s.refresh);
      w.U32(s.retry);
      w.U32(s.expire);
      w.U32(s.minimum);
      break;
    }
    case RecordType::kTxt:
      for (const auto& s : rr.txt().strings) {
        w.U8(static_cast<uint8_t>(std::min<size_t>(s.size(), 255)));
        for (size_t i = 0; i < std::min<size_t>(s.size(), 255); ++i) {
          w.U8(static_cast<uint8_t>(s[i]));
        }
      }
      break;
    case RecordType::kOpt:
      // OPT is emitted separately by EncodeMessage; treat as opaque here.
      if (const auto* raw = std::get_if<std::vector<uint8_t>>(&rr.rdata)) {
        w.Bytes(*raw);
      }
      break;
  }
  w.PatchU16(rdlen_pos, static_cast<uint16_t>(w.Size() - rdata_start));
}

void WriteOpt(Writer& w, const Edns& edns, Rcode rcode) {
  w.U8(0);  // Root owner name.
  w.U16(static_cast<uint16_t>(RecordType::kOpt));
  w.U16(edns.udp_payload_size);
  // TTL field: extended-rcode(8) | version(8) | DO(1) | zero(15).
  const uint8_t ext = static_cast<uint8_t>((static_cast<uint16_t>(rcode) >> 4) & 0xff);
  w.U8(ext);
  w.U8(edns.version);
  w.U16(edns.dnssec_ok ? 0x8000 : 0);
  const size_t rdlen_pos = w.Size();
  w.U16(0);
  const size_t rdata_start = w.Size();
  for (const auto& opt : edns.options) {
    w.U16(opt.code);
    w.U16(static_cast<uint16_t>(opt.payload.size()));
    w.Bytes(opt.payload);
  }
  w.PatchU16(rdlen_pos, static_cast<uint16_t>(w.Size() - rdata_start));
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> wire) : wire_(wire) {}

  bool U8(uint8_t& out) {
    if (pos_ >= wire_.size()) {
      return false;
    }
    out = wire_[pos_++];
    return true;
  }
  bool U16(uint16_t& out) {
    uint8_t hi = 0;
    uint8_t lo = 0;
    if (!U8(hi) || !U8(lo)) {
      return false;
    }
    out = static_cast<uint16_t>((hi << 8) | lo);
    return true;
  }
  bool U32(uint32_t& out) {
    uint16_t hi = 0;
    uint16_t lo = 0;
    if (!U16(hi) || !U16(lo)) {
      return false;
    }
    out = (static_cast<uint32_t>(hi) << 16) | lo;
    return true;
  }
  bool Bytes(size_t n, std::vector<uint8_t>& out) {
    if (pos_ + n > wire_.size()) {
      return false;
    }
    out.assign(wire_.begin() + static_cast<ptrdiff_t>(pos_),
               wire_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  size_t pos() const { return pos_; }

  // Reads a possibly-compressed name starting at the current position. The
  // first walk validates and counts the labels, so the label vector is
  // sized once; the second copies them.
  bool ReadName(Name& out) {
    size_t count = 0;
    size_t next = 0;
    if (!WalkName(next, [&count](size_t, uint8_t) { ++count; })) {
      return false;
    }
    std::vector<std::string> labels;
    if (count > 0) {  // The root name needs no storage.
      // Power-of-two capacity, as for the encoder's output (see Writer).
      labels.reserve(std::bit_ceil(count));
    }
    WalkName(next, [&](size_t at, uint8_t len) {
      labels.emplace_back(reinterpret_cast<const char*>(&wire_[at]), len);
    });
    pos_ = next;
    out = Name::FromLabels(std::move(labels));
    return true;
  }

 private:
  // Follows the name at the current position, calling `on_label(offset,
  // length)` for each label in order. On success sets `next` to the
  // position after the name; returns false on malformed input.
  template <class OnLabel>
  bool WalkName(size_t& next, OnLabel on_label) const {
    size_t pos = pos_;
    size_t jumps = 0;
    bool jumped = false;
    size_t after_first_pointer = 0;
    while (true) {
      if (pos >= wire_.size()) {
        return false;
      }
      const uint8_t len = wire_[pos];
      if ((len & 0xc0) == 0xc0) {
        if (pos + 1 >= wire_.size() || ++jumps > kMaxCompressionJumps) {
          return false;
        }
        const size_t target =
            (static_cast<size_t>(len & 0x3f) << 8) | wire_[pos + 1];
        if (!jumped) {
          after_first_pointer = pos + 2;
          jumped = true;
        }
        if (target >= pos) {
          return false;  // Forward/self pointers are invalid.
        }
        pos = target;
        continue;
      }
      if ((len & 0xc0) != 0) {
        return false;  // Reserved label types.
      }
      if (len == 0) {
        pos += 1;
        break;
      }
      if (len > kMaxLabelLength || pos + 1 + len > wire_.size()) {
        return false;
      }
      on_label(pos + 1, len);
      pos += 1 + static_cast<size_t>(len);
    }
    next = jumped ? after_first_pointer : pos;
    return true;
  }

  std::span<const uint8_t> wire_;
  size_t pos_ = 0;
};

bool ReadRecord(Reader& r, Message& msg, bool& saw_opt) {
  Name owner;
  if (!r.ReadName(owner)) {
    return false;
  }
  uint16_t type_raw = 0;
  uint16_t clazz = 0;
  uint32_t ttl = 0;
  uint16_t rdlen = 0;
  if (!r.U16(type_raw) || !r.U16(clazz) || !r.U32(ttl) || !r.U16(rdlen)) {
    return false;
  }
  const auto type = static_cast<RecordType>(type_raw);

  if (type == RecordType::kOpt) {
    if (saw_opt) {
      return false;  // At most one OPT per message (RFC 6891 §6.1.1).
    }
    saw_opt = true;
    Edns edns;
    edns.udp_payload_size = clazz;
    edns.extended_rcode = static_cast<uint8_t>(ttl >> 24);
    edns.version = static_cast<uint8_t>(ttl >> 16);
    edns.dnssec_ok = (ttl & 0x8000) != 0;
    size_t remaining = rdlen;
    while (remaining > 0) {
      uint16_t code = 0;
      uint16_t olen = 0;
      if (remaining < 4 || !r.U16(code) || !r.U16(olen)) {
        return false;
      }
      remaining -= 4;
      if (olen > remaining) {
        return false;
      }
      EdnsOption opt;
      opt.code = code;
      if (!r.Bytes(olen, opt.payload)) {
        return false;
      }
      remaining -= olen;
      edns.options.push_back(std::move(opt));
    }
    // Merge the extended rcode into the header's low bits.
    msg.header.rcode = static_cast<Rcode>(
        (static_cast<uint16_t>(edns.extended_rcode) << 4) |
        (static_cast<uint16_t>(msg.header.rcode) & 0x0f));
    msg.edns = std::move(edns);
    return true;
  }

  ResourceRecord rr;
  rr.name = std::move(owner);
  rr.type = type;
  rr.ttl = ttl;
  const size_t rdata_end = r.pos() + rdlen;
  switch (type) {
    case RecordType::kA: {
      uint32_t addr = 0;
      if (rdlen != 4 || !r.U32(addr)) {
        return false;
      }
      rr.rdata = static_cast<HostAddress>(addr);
      break;
    }
    case RecordType::kAaaa: {
      uint32_t ignored = 0;
      uint32_t addr = 0;
      if (rdlen != 16 || !r.U32(ignored) || !r.U32(ignored) || !r.U32(ignored) ||
          !r.U32(addr)) {
        return false;
      }
      rr.rdata = static_cast<HostAddress>(addr);
      break;
    }
    case RecordType::kNs:
    case RecordType::kCname:
    case RecordType::kNsec: {
      Name target;
      if (!r.ReadName(target) || r.pos() != rdata_end) {
        return false;
      }
      rr.rdata = std::move(target);
      break;
    }
    case RecordType::kSoa: {
      SoaData s;
      if (!r.ReadName(s.mname) || !r.ReadName(s.rname) || !r.U32(s.serial) ||
          !r.U32(s.refresh) || !r.U32(s.retry) || !r.U32(s.expire) ||
          !r.U32(s.minimum) || r.pos() != rdata_end) {
        return false;
      }
      rr.rdata = std::move(s);
      break;
    }
    case RecordType::kTxt: {
      TxtData t;
      size_t remaining = rdlen;
      while (remaining > 0) {
        uint8_t slen = 0;
        if (!r.U8(slen)) {
          return false;
        }
        remaining -= 1;
        if (slen > remaining) {
          return false;
        }
        std::vector<uint8_t> raw;
        if (!r.Bytes(slen, raw)) {
          return false;
        }
        remaining -= slen;
        t.strings.emplace_back(raw.begin(), raw.end());
      }
      rr.rdata = std::move(t);
      break;
    }
    case RecordType::kOpt:
      return false;  // Handled above.
    default: {
      std::vector<uint8_t> raw;
      if (!r.Bytes(rdlen, raw)) {
        return false;
      }
      rr.rdata = std::move(raw);
      break;
    }
  }
  if (r.pos() != rdata_end) {
    return false;
  }
  msg.additional.push_back(std::move(rr));
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  DCC_PROF_SCOPE("dns.encode");
  Writer w(MessageSizeBound(msg));
  w.U16(msg.header.id);
  uint16_t flags = 0;
  if (msg.header.qr) {
    flags |= 0x8000;
  }
  flags |= static_cast<uint16_t>((msg.header.opcode & 0x0f) << 11);
  if (msg.header.aa) {
    flags |= 0x0400;
  }
  if (msg.header.tc) {
    flags |= 0x0200;
  }
  if (msg.header.rd) {
    flags |= 0x0100;
  }
  if (msg.header.ra) {
    flags |= 0x0080;
  }
  flags |= static_cast<uint16_t>(msg.header.rcode) & 0x0f;
  w.U16(flags);
  w.U16(static_cast<uint16_t>(msg.question.size()));
  w.U16(static_cast<uint16_t>(msg.answers.size()));
  w.U16(static_cast<uint16_t>(msg.authority.size()));
  const uint16_t arcount = static_cast<uint16_t>(msg.additional.size() +
                                                 (msg.edns.has_value() ? 1 : 0));
  w.U16(arcount);
  for (const auto& q : msg.question) {
    w.WriteName(q.qname);
    w.U16(static_cast<uint16_t>(q.qtype));
    w.U16(1);  // CLASS IN
  }
  for (const auto& rr : msg.answers) {
    WriteRecord(w, rr);
  }
  for (const auto& rr : msg.authority) {
    WriteRecord(w, rr);
  }
  for (const auto& rr : msg.additional) {
    WriteRecord(w, rr);
  }
  if (msg.edns.has_value()) {
    WriteOpt(w, *msg.edns, msg.header.rcode);
  }
  std::vector<uint8_t> wire = w.Take();
  prof::CountEncode(wire.size());
  return wire;
}

std::optional<Message> DecodeMessage(std::span<const uint8_t> wire) {
  DCC_PROF_SCOPE("dns.decode");
  prof::CountDecode(wire.size());
  Reader r(wire);
  Message msg;
  uint16_t flags = 0;
  uint16_t qdcount = 0;
  uint16_t ancount = 0;
  uint16_t nscount = 0;
  uint16_t arcount = 0;
  if (!r.U16(msg.header.id) || !r.U16(flags) || !r.U16(qdcount) ||
      !r.U16(ancount) || !r.U16(nscount) || !r.U16(arcount)) {
    return std::nullopt;
  }
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<uint8_t>((flags >> 11) & 0x0f);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.rcode = static_cast<Rcode>(flags & 0x0f);

  for (uint16_t i = 0; i < qdcount; ++i) {
    Question q;
    uint16_t qtype = 0;
    uint16_t qclass = 0;
    if (!r.ReadName(q.qname) || !r.U16(qtype) || !r.U16(qclass)) {
      return std::nullopt;
    }
    q.qtype = static_cast<RecordType>(qtype);
    msg.question.push_back(std::move(q));
  }

  // ReadRecord appends to msg.additional; move records to the right section
  // after each group.
  bool saw_opt = false;
  auto read_section = [&](uint16_t count,
                          std::vector<ResourceRecord>& section) -> bool {
    for (uint16_t i = 0; i < count; ++i) {
      const size_t before = msg.additional.size();
      if (!ReadRecord(r, msg, saw_opt)) {
        return false;
      }
      if (msg.additional.size() > before) {
        if (&section != &msg.additional) {
          section.push_back(std::move(msg.additional.back()));
          msg.additional.pop_back();
        }
      }
      // If no record was appended, the entry was the OPT pseudo-RR.
    }
    return true;
  };

  if (!read_section(ancount, msg.answers) ||
      !read_section(nscount, msg.authority) ||
      !read_section(arcount, msg.additional)) {
    return std::nullopt;
  }
  return msg;
}

}  // namespace dcc
