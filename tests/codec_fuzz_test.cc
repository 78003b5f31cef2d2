// Randomized robustness tests for the wire codec: round-trip identity over
// randomly generated messages, crash-freedom / memory-safety over mutated
// and purely random byte strings, and byte identity of EncodeMessage with a
// straightforward reference encoder (compression keyed by a lowercased
// suffix string in a std::map).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"

namespace dcc {
namespace {

Name RandomName(Rng& rng, int max_labels = 5) {
  std::vector<std::string> labels;
  const int count = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(max_labels)));
  for (int i = 0; i < count; ++i) {
    labels.push_back(rng.NextLabel(1 + static_cast<int>(rng.NextBelow(12))));
  }
  return Name::FromLabels(std::move(labels));
}

ResourceRecord RandomRecord(Rng& rng) {
  const Name owner = RandomName(rng);
  const auto ttl = static_cast<uint32_t>(rng.NextBelow(86400));
  switch (rng.NextBelow(5)) {
    case 0:
      return MakeA(owner, ttl, static_cast<HostAddress>(rng.Next()));
    case 1:
      return MakeNs(owner, ttl, RandomName(rng));
    case 2:
      return MakeCname(owner, ttl, RandomName(rng));
    case 3: {
      SoaData soa;
      soa.mname = RandomName(rng);
      soa.rname = RandomName(rng);
      soa.serial = static_cast<uint32_t>(rng.Next());
      soa.refresh = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.retry = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.expire = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.minimum = static_cast<uint32_t>(rng.NextBelow(100000));
      return MakeSoa(owner, ttl, soa);
    }
    default: {
      std::vector<std::string> strings;
      for (uint64_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
        strings.push_back(rng.NextLabel(static_cast<int>(1 + rng.NextBelow(30))));
      }
      return MakeTxt(owner, ttl, std::move(strings));
    }
  }
}

Message RandomMessage(Rng& rng) {
  Message msg = MakeQuery(static_cast<uint16_t>(rng.Next()), RandomName(rng),
                          rng.NextBool(0.5) ? RecordType::kA : RecordType::kTxt);
  msg.header.qr = rng.NextBool(0.5);
  msg.header.aa = rng.NextBool(0.3);
  msg.header.tc = rng.NextBool(0.1);
  msg.header.ra = rng.NextBool(0.5);
  msg.header.rcode = rng.NextBool(0.2) ? Rcode::kNxDomain : Rcode::kNoError;
  for (uint64_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
    msg.answers.push_back(RandomRecord(rng));
  }
  for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
    msg.authority.push_back(RandomRecord(rng));
  }
  for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
    msg.additional.push_back(RandomRecord(rng));
  }
  if (rng.NextBool(0.5)) {
    Edns& edns = msg.EnsureEdns();
    edns.udp_payload_size = static_cast<uint16_t>(512 + rng.NextBelow(4096));
    edns.dnssec_ok = rng.NextBool(0.5);
    for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
      EdnsOption opt;
      opt.code = static_cast<uint16_t>(rng.NextBelow(70000));
      for (uint64_t b = 0, len = rng.NextBelow(16); b < len; ++b) {
        opt.payload.push_back(static_cast<uint8_t>(rng.Next()));
      }
      edns.options.push_back(std::move(opt));
    }
  }
  return msg;
}

// Reference encoder: the codec's writer before its compression table
// became a list of (offset, name, first label). Each emitted suffix is keyed
// by its lowercased labels joined with '.', and the first offset stored for
// a key wins.
namespace reference {

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v >> 8));
    U8(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v >> 16));
    U16(static_cast<uint16_t>(v));
  }
  void Bytes(const std::vector<uint8_t>& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void PatchU16(size_t pos, uint16_t v) {
    buf_[pos] = static_cast<uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<uint8_t>(v);
  }
  size_t Size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

  void WriteName(const Name& name) {
    for (size_t i = 0; i < name.LabelCount(); ++i) {
      const std::string key = SuffixKey(name, i);
      if (auto it = offsets_.find(key); it != offsets_.end()) {
        U16(static_cast<uint16_t>(0xc000 | it->second));
        return;
      }
      if (Size() < 0x3fff) {
        offsets_.emplace(key, static_cast<uint16_t>(Size()));
      }
      U8(static_cast<uint8_t>(name.Label(i).size()));
      for (char c : name.Label(i)) {
        U8(static_cast<uint8_t>(c));
      }
    }
    U8(0);
  }

 private:
  static std::string SuffixKey(const Name& name, size_t from) {
    std::string key;
    for (size_t i = from; i < name.LabelCount(); ++i) {
      for (char c : name.Label(i)) {
        key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      key.push_back('.');
    }
    return key;
  }

  std::vector<uint8_t> buf_;
  std::map<std::string, uint16_t> offsets_;
};

void WriteRecord(Writer& w, const ResourceRecord& rr) {
  w.WriteName(rr.name);
  w.U16(static_cast<uint16_t>(rr.type));
  w.U16(1);
  w.U32(rr.ttl);
  const size_t rdlen_pos = w.Size();
  w.U16(0);
  const size_t rdata_start = w.Size();
  switch (rr.type) {
    case RecordType::kA:
      w.U32(rr.address());
      break;
    case RecordType::kAaaa:
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
    case RecordType::kSoa:
      w.WriteName(rr.soa().mname);
      w.WriteName(rr.soa().rname);
      w.U32(rr.soa().serial);
      w.U32(rr.soa().refresh);
      w.U32(rr.soa().retry);
      w.U32(rr.soa().expire);
      w.U32(rr.soa().minimum);
      break;
    case RecordType::kTxt:
      for (const auto& str : rr.txt().strings) {
        const size_t n = std::min<size_t>(str.size(), 255);
        w.U8(static_cast<uint8_t>(n));
        for (size_t i = 0; i < n; ++i) {
          w.U8(static_cast<uint8_t>(str[i]));
        }
      }
      break;
    case RecordType::kOpt:
      if (const auto* raw = std::get_if<std::vector<uint8_t>>(&rr.rdata)) {
        w.Bytes(*raw);
      }
      break;
  }
  w.PatchU16(rdlen_pos, static_cast<uint16_t>(w.Size() - rdata_start));
}

std::vector<uint8_t> Encode(const Message& msg) {
  Writer w;
  w.U16(msg.header.id);
  uint16_t flags = msg.header.qr ? 0x8000 : 0;
  flags |= static_cast<uint16_t>((msg.header.opcode & 0x0f) << 11);
  flags |= msg.header.aa ? 0x0400 : 0;
  flags |= msg.header.tc ? 0x0200 : 0;
  flags |= msg.header.rd ? 0x0100 : 0;
  flags |= msg.header.ra ? 0x0080 : 0;
  flags |= static_cast<uint16_t>(msg.header.rcode) & 0x0f;
  w.U16(flags);
  w.U16(static_cast<uint16_t>(msg.question.size()));
  w.U16(static_cast<uint16_t>(msg.answers.size()));
  w.U16(static_cast<uint16_t>(msg.authority.size()));
  w.U16(static_cast<uint16_t>(msg.additional.size() + (msg.edns.has_value() ? 1 : 0)));
  for (const auto& q : msg.question) {
    w.WriteName(q.qname);
    w.U16(static_cast<uint16_t>(q.qtype));
    w.U16(1);
  }
  for (const auto* section : {&msg.answers, &msg.authority, &msg.additional}) {
    for (const auto& rr : *section) {
      WriteRecord(w, rr);
    }
  }
  if (msg.edns.has_value()) {
    const Edns& edns = *msg.edns;
    w.U8(0);
    w.U16(static_cast<uint16_t>(RecordType::kOpt));
    w.U16(edns.udp_payload_size);
    w.U8(static_cast<uint8_t>((static_cast<uint16_t>(msg.header.rcode) >> 4) & 0xff));
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
  return w.Take();
}

}  // namespace reference

// Encodes `msg`, checks the bytes against the reference encoder, and checks
// that they decode back to `msg`.
void ExpectReferenceBytesAndRoundTrip(const Message& msg, const std::string& what) {
  const std::vector<uint8_t> wire = EncodeMessage(msg);
  EXPECT_EQ(wire, reference::Encode(msg)) << what;
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value()) << what;
  EXPECT_EQ(*decoded, msg) << what;
}

Name N(const char* text) { return *Name::Parse(text); }

// Names drawn from a four-label vocabulary in random case, so most of them
// share suffixes with earlier names in the message.
Name SharedSuffixName(Rng& rng) {
  static const char* const kVocabulary[] = {"www", "example", "com", "ns1"};
  std::vector<std::string> labels;
  for (uint64_t i = 0, n = 1 + rng.NextBelow(4); i < n; ++i) {
    std::string label = kVocabulary[rng.NextBelow(4)];
    for (char& c : label) {
      if (rng.NextBool(0.3)) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    labels.push_back(std::move(label));
  }
  return Name::FromLabels(std::move(labels));
}

TEST(CodecFuzzTest, EncoderMatchesReferenceOnRandomMessages) {
  Rng rng(20240601);
  for (int trial = 0; trial < 2000; ++trial) {
    ExpectReferenceBytesAndRoundTrip(RandomMessage(rng), "random trial " +
                                                             std::to_string(trial));
  }
  Rng shared(4242);
  for (int trial = 0; trial < 500; ++trial) {
    Message msg = MakeResponse(MakeQuery(1, SharedSuffixName(shared), RecordType::kA),
                               Rcode::kNoError);
    for (uint64_t i = 0, n = 1 + shared.NextBelow(6); i < n; ++i) {
      msg.answers.push_back(MakeCname(SharedSuffixName(shared), 60, SharedSuffixName(shared)));
      msg.authority.push_back(MakeNs(SharedSuffixName(shared), 60, SharedSuffixName(shared)));
    }
    ExpectReferenceBytesAndRoundTrip(msg, "shared-suffix trial " + std::to_string(trial));
  }
}

TEST(CodecFuzzTest, MixedCaseSuffixesCompressToFirstCopy) {
  Message msg = MakeResponse(MakeQuery(7, N("WWW.Example.COM"), RecordType::kA),
                             Rcode::kNoError);
  msg.answers.push_back(MakeA(N("www.example.com"), 60, 1));
  msg.answers.push_back(MakeA(N("mail.example.com"), 60, 2));
  ExpectReferenceBytesAndRoundTrip(msg, "mixed case");
  // The answer owner is a pointer to the question name (offset 12), and
  // "mail" is followed by a pointer to "Example.COM" at offset 16.
  const std::vector<uint8_t> wire = EncodeMessage(msg);
  const size_t question_end = 12 + N("WWW.Example.COM").WireLength() + 4;
  EXPECT_EQ(wire[question_end], 0xc0);
  EXPECT_EQ(wire[question_end + 1], 12);
  const std::string text(wire.begin(), wire.end());
  const size_t mail = text.find("mail");
  ASSERT_NE(mail, std::string::npos);
  EXPECT_EQ(wire[mail + 4], 0xc0);
  EXPECT_EQ(wire[mail + 5], 16);
  EXPECT_EQ(text.find("example"), std::string::npos) << "only the first copy is spelled";
}

TEST(CodecFuzzTest, RdataNamesCompress) {
  Message msg = MakeResponse(MakeQuery(9, N("a.b.zone.example"), RecordType::kA),
                             Rcode::kNoError);
  msg.answers.push_back(MakeCname(N("a.b.zone.example"), 60, N("c.zone.example")));
  msg.authority.push_back(MakeNs(N("zone.example"), 60, N("ns1.zone.example")));
  msg.authority.push_back(MakeNs(N("zone.example"), 60, N("NS2.other.example")));
  SoaData soa;
  soa.mname = N("ns1.zone.example");
  soa.rname = N("hostmaster.Other.Example");
  soa.serial = 3;
  soa.minimum = 60;
  msg.authority.push_back(MakeSoa(N("zone.example"), 60, soa));
  msg.additional.push_back(MakeA(N("ns2.other.example"), 60, 5));
  msg.EnsureEdns();
  ExpectReferenceBytesAndRoundTrip(msg, "rdata names");
}

TEST(CodecFuzzTest, OffsetsPastPointerRangeAreNeverTargets) {
  // 70 TXT records of 255-byte strings push everything after them past
  // offset 0x3fff, where a suffix can no longer be a pointer target.
  Message msg = MakeResponse(MakeQuery(11, N("pad.example"), RecordType::kTxt),
                             Rcode::kNoError);
  for (int i = 0; i < 70; ++i) {
    msg.answers.push_back(MakeTxt(N("pad.example"), 60, {std::string(255, 'x')}));
  }
  msg.authority.push_back(MakeNs(N("late.example"), 60, N("ns.late.example")));
  msg.additional.push_back(MakeA(N("ns.late.example"), 60, 9));
  ExpectReferenceBytesAndRoundTrip(msg, "over 16 KiB");
  const std::vector<uint8_t> wire = EncodeMessage(msg);
  ASSERT_GT(wire.size(), 16384u);
  // "late" is first written past 0x3fff, so each later use spells it again
  // (its ".example" suffix still points back into the first 16 KiB).
  const std::string text(wire.begin(), wire.end());
  const size_t first = text.find("late");
  ASSERT_NE(first, std::string::npos);
  EXPECT_GT(first, 0x3fffu);
  size_t copies = 0;
  for (size_t at = first; at != std::string::npos; at = text.find("late", at + 1)) {
    ++copies;
  }
  EXPECT_EQ(copies, 3u);
}

TEST(CodecFuzzTest, LabelsContainingDotsAreNotConflated) {
  // The reference encoder keyed suffixes by their dotted text, so the single
  // label "b.c" and the labels "b", "c" shared a key and the second name was
  // written as a pointer to the first, decoding to the wrong name. Labels
  // are compared as labels now; only the round trip is checked here.
  Message msg = MakeQuery(13, Name::FromLabels({"a", "b.c"}), RecordType::kA);
  msg.question.push_back(Question{Name::FromLabels({"x", "b", "c"}), RecordType::kA});
  const auto decoded = DecodeMessage(EncodeMessage(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
  EXPECT_NE(DecodeMessage(reference::Encode(msg)), msg);
}

TEST(CodecFuzzTest, RandomMessagesRoundTrip) {
  Rng rng(20240601);
  for (int trial = 0; trial < 2000; ++trial) {
    const Message original = RandomMessage(rng);
    const auto wire = EncodeMessage(original);
    const auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_EQ(*decoded, original) << "trial " << trial;
  }
}

TEST(CodecFuzzTest, MutatedWireNeverCrashes) {
  Rng rng(987);
  int decoded_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Message original = RandomMessage(rng);
    auto wire = EncodeMessage(original);
    // Flip a handful of random bytes/bits.
    for (uint64_t i = 0, n = 1 + rng.NextBelow(8); i < n && !wire.empty(); ++i) {
      const size_t pos = rng.NextBelow(wire.size());
      wire[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    // Occasionally truncate.
    if (rng.NextBool(0.3) && !wire.empty()) {
      wire.resize(rng.NextBelow(wire.size()));
    }
    const auto decoded = DecodeMessage(wire);  // Must not crash or hang.
    decoded_ok += decoded.has_value() ? 1 : 0;
    if (decoded.has_value()) {
      // Whatever decoded must re-encode without crashing.
      const auto reencoded = EncodeMessage(*decoded);
      EXPECT_FALSE(reencoded.empty());
    }
  }
  // Sanity: some mutations (e.g. TTL bytes) still decode.
  EXPECT_GT(decoded_ok, 0);
}

TEST(CodecFuzzTest, PureGarbageNeverCrashes) {
  Rng rng(555);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> garbage(rng.NextBelow(300));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const auto decoded = DecodeMessage(garbage);
    if (decoded.has_value()) {
      EncodeMessage(*decoded);
    }
  }
}

TEST(CodecFuzzTest, DccOptionsSurviveHostileOptions) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    Message msg = MakeQuery(1, RandomName(rng), RecordType::kA);
    Edns& edns = msg.EnsureEdns();
    // Hostile option with a DCC code but random payload.
    EdnsOption opt;
    opt.code = kAnomalySignalCode;
    for (uint64_t b = 0, len = rng.NextBelow(12); b < len; ++b) {
      opt.payload.push_back(static_cast<uint8_t>(rng.Next()));
    }
    edns.options.push_back(opt);
    const auto wire = EncodeMessage(msg);
    const auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value());
    // Decoding the signal either fails cleanly or yields a struct; both fine.
    (void)GetAnomalySignal(*decoded);
    Message copy = *decoded;
    StripDccOptions(copy);
    EXPECT_FALSE(GetAnomalySignal(copy).has_value());
  }
}

}  // namespace
}  // namespace dcc
