// Unit tests for src/dns: names, messages, the wire codec, EDNS options.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/dns/message.h"
#include "src/dns/name.h"
#include "src/dns/rr.h"

namespace dcc {
namespace {

// Heap allocations made by this binary; the replaced operator new below
// counts them.
std::atomic<size_t> g_allocations{0};

}  // namespace
}  // namespace dcc

// Both out of line, so no caller sees new's malloc paired with free (GCC's
// -Wmismatched-new-delete would flag it).
[[gnu::noinline]] void* operator new(std::size_t size) {
  dcc::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { ::operator delete(block); }

namespace dcc {
namespace {

TEST(NameTest, ParseBasic) {
  auto name = Name::Parse("www.example.com");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->LabelCount(), 3u);
  EXPECT_EQ(name->Label(0), "www");
  EXPECT_EQ(name->ToString(), "www.example.com");
}

TEST(NameTest, TrailingDotIgnored) {
  EXPECT_EQ(*Name::Parse("a.b."), *Name::Parse("a.b"));
}

TEST(NameTest, RootName) {
  EXPECT_TRUE(Name().IsRoot());
  EXPECT_EQ(Name().ToString(), ".");
  auto parsed = Name::Parse(".");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->IsRoot());
}

TEST(NameTest, RejectsInvalid) {
  EXPECT_FALSE(Name::Parse("a..b").has_value());
  EXPECT_FALSE(Name::Parse(std::string(64, 'x') + ".com").has_value());
  // Total wire length > 255.
  std::string long_name;
  for (int i = 0; i < 30; ++i) {
    long_name += "abcdefghi.";
  }
  long_name += "com";
  EXPECT_FALSE(Name::Parse(long_name).has_value());
}

TEST(NameTest, CaseInsensitiveEquality) {
  EXPECT_EQ(*Name::Parse("WWW.Example.COM"), *Name::Parse("www.example.com"));
  EXPECT_EQ(Name::Parse("WWW.Example.COM")->Hash(),
            Name::Parse("www.example.com")->Hash());
}

TEST(NameTest, SubdomainRelation) {
  const Name parent = *Name::Parse("example.com");
  const Name child = *Name::Parse("a.b.example.com");
  EXPECT_TRUE(child.IsSubdomainOf(parent));
  EXPECT_TRUE(parent.IsSubdomainOf(parent));
  EXPECT_FALSE(parent.IsSubdomainOf(child));
  EXPECT_TRUE(child.IsSubdomainOf(Name()));  // Everything under root.
  EXPECT_FALSE(Name::Parse("badexample.com")->IsSubdomainOf(parent));
}

TEST(NameTest, ParentAndPrepend) {
  const Name name = *Name::Parse("a.b.c");
  EXPECT_EQ(name.Parent().ToString(), "b.c");
  EXPECT_EQ(name.Prepend("x")->ToString(), "x.a.b.c");
  EXPECT_FALSE(name.Prepend("").has_value());
}

TEST(NameTest, ConcatJoinsAndBoundsChecks) {
  const Name left = *Name::Parse("a.b");
  const Name right = *Name::Parse("c.d");
  const auto joined = Name::Concat(left, right);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->ToString(), "a.b.c.d");
  // Concatenation beyond 255 wire octets fails: each operand is a valid
  // 131-octet name, the result would be 261.
  const Name big = *Name::FromLabels(std::vector<std::string>(10, std::string(12, 'x')));
  EXPECT_EQ(big.WireLength(), 131u);
  EXPECT_FALSE(Name::Concat(big, big).has_value());
  // 20 labels of 12 octets (261 on the wire) are not a name at all.
  EXPECT_FALSE(Name::FromLabels(std::vector<std::string>(20, std::string(12, 'x'))).has_value());
}

TEST(NameTest, FromLabelsValidates) {
  EXPECT_EQ(Name::FromLabels({"www", "Example", "com"})->ToString(), "www.Example.com");
  EXPECT_TRUE(Name::FromLabels({})->IsRoot());
  EXPECT_FALSE(Name::FromLabels({"a", "", "b"}).has_value());
  EXPECT_FALSE(Name::FromLabels({std::string(64, 'x')}).has_value());
  EXPECT_TRUE(Name::FromLabels({std::string(63, 'x')}).has_value());
  // 3 x 63-octet labels plus one of 61 octets: 3 * 64 + 62 + 1 = 255.
  std::vector<std::string> labels(3, std::string(63, 'x'));
  labels.push_back(std::string(61, 'y'));
  EXPECT_EQ(Name::FromLabels(labels)->WireLength(), 255u);
  labels.back().push_back('y');
  EXPECT_FALSE(Name::FromLabels(labels).has_value());
}

TEST(NameTest, SuffixKeepsRightmostLabels) {
  const Name name = *Name::Parse("a.b.c.d");
  EXPECT_EQ(name.Suffix(2).ToString(), "c.d");
  EXPECT_EQ(name.Suffix(0).ToString(), ".");
  EXPECT_EQ(name.Suffix(10), name);
}

TEST(NameTest, OrderingGroupsBySuffix) {
  const Name a = *Name::Parse("example.com");
  const Name b = *Name::Parse("sub.example.com");
  const Name c = *Name::Parse("example.net");
  EXPECT_TRUE(a < b);  // Ancestor sorts before descendant.
  EXPECT_TRUE(b < c);  // com < net at the top label.
  EXPECT_FALSE(a < a);
}

TEST(NameTest, WireLength) {
  EXPECT_EQ(Name().WireLength(), 1u);
  EXPECT_EQ(Name::Parse("abc.de")->WireLength(), 1u + 4 + 3);
}

TEST(MessageTest, MakeQueryAndResponse) {
  const Message query = MakeQuery(99, *Name::Parse("x.y"), RecordType::kA);
  EXPECT_TRUE(query.IsQuery());
  EXPECT_TRUE(query.header.rd);
  const Message response = MakeResponse(query, Rcode::kNxDomain);
  EXPECT_TRUE(response.IsResponse());
  EXPECT_EQ(response.header.id, 99);
  EXPECT_EQ(response.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(response.Q().qname, query.Q().qname);
}

Message RoundTrip(const Message& msg) {
  const auto wire = EncodeMessage(msg);
  auto decoded = DecodeMessage(wire);
  EXPECT_TRUE(decoded.has_value());
  return *decoded;
}

TEST(CodecTest, QueryRoundTrip) {
  Message query = MakeQuery(0x1234, *Name::Parse("www.example.com"), RecordType::kA);
  const Message decoded = RoundTrip(query);
  EXPECT_EQ(decoded, query);
}

TEST(CodecTest, ResponseWithAllRecordTypes) {
  const Name apex = *Name::Parse("example.com");
  Message msg = MakeResponse(MakeQuery(7, apex, RecordType::kA), Rcode::kNoError);
  msg.header.aa = true;
  msg.answers.push_back(MakeA(*apex.Prepend("www"), 300, 0x01020304));
  msg.answers.push_back(MakeCname(*apex.Prepend("alias"), 300, *apex.Prepend("www")));
  msg.authority.push_back(MakeNs(apex, 600, *apex.Prepend("ns1")));
  SoaData soa;
  soa.mname = *apex.Prepend("ns1");
  soa.rname = *apex.Prepend("hostmaster");
  soa.serial = 42;
  soa.minimum = 600;
  msg.authority.push_back(MakeSoa(apex, 600, soa));
  msg.additional.push_back(MakeTxt(apex, 60, {"hello", "world"}));
  const Message decoded = RoundTrip(msg);
  EXPECT_EQ(decoded, msg);
}

TEST(CodecTest, CompressionShrinksRepeatedNames) {
  const Name apex = *Name::Parse("a-rather-long-zone-name.example.com");
  Message msg = MakeResponse(MakeQuery(1, apex, RecordType::kNs), Rcode::kNoError);
  size_t uncompressed_estimate = 0;
  for (int i = 0; i < 10; ++i) {
    const Name ns = *apex.Prepend("ns" + std::to_string(i));
    msg.answers.push_back(MakeNs(apex, 300, ns));
    uncompressed_estimate += apex.WireLength() + ns.WireLength() + 10;
  }
  const auto wire = EncodeMessage(msg);
  EXPECT_LT(wire.size(), uncompressed_estimate);
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(CodecTest, EdnsRoundTrip) {
  Message query = MakeQuery(5, *Name::Parse("q.example"), RecordType::kA);
  Edns& edns = query.EnsureEdns();
  edns.udp_payload_size = 4096;
  edns.dnssec_ok = true;
  edns.options.push_back(EdnsOption{100, {1, 2, 3}});
  const Message decoded = RoundTrip(query);
  ASSERT_TRUE(decoded.edns.has_value());
  EXPECT_EQ(decoded.edns->udp_payload_size, 4096);
  EXPECT_TRUE(decoded.edns->dnssec_ok);
  ASSERT_EQ(decoded.edns->options.size(), 1u);
  EXPECT_EQ(decoded.edns->options[0].code, 100);
  EXPECT_EQ(decoded.edns->options[0].payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(CodecTest, HeaderFlagsRoundTrip) {
  Message msg = MakeQuery(1, *Name::Parse("f.test"), RecordType::kTxt, /*rd=*/false);
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.tc = true;
  msg.header.ra = true;
  msg.header.rcode = Rcode::kRefused;
  const Message decoded = RoundTrip(msg);
  EXPECT_EQ(decoded.header, msg.header);
}

TEST(CodecTest, RejectsTruncatedInput) {
  Message msg = MakeQuery(1, *Name::Parse("trunc.example.com"), RecordType::kA);
  const auto wire = EncodeMessage(msg);
  for (size_t len = 1; len + 1 < wire.size(); len += 3) {
    EXPECT_FALSE(DecodeMessage(std::span(wire.data(), len)).has_value())
        << "length " << len;
  }
}

TEST(CodecTest, RejectsEmptyInput) {
  EXPECT_FALSE(DecodeMessage({}).has_value());
}

TEST(CodecTest, RejectsCompressionLoops) {
  // Header + a question whose name is a pointer to itself.
  std::vector<uint8_t> wire = {
      0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,  // Header: 1 question.
      0xc0, 12,                            // Name: pointer to offset 12 (itself).
      0, 1, 0, 1,                          // Type A, class IN.
  };
  EXPECT_FALSE(DecodeMessage(wire).has_value());
}

TEST(CodecTest, RejectsNamesLongerThan255Octets) {
  // Question k is a 63-octet label plus a pointer to question k-1's name, so
  // the names grow 65, 129, 193, 257, 321 octets: pointer chasing alone
  // would build names no presentation-format parse could.
  const auto build = [](int questions) {
    std::vector<uint8_t> wire = {0, 1, 0, 0, 0, static_cast<uint8_t>(questions),
                                 0, 0, 0, 0, 0, 0};
    size_t previous = 0;
    for (int k = 0; k < questions; ++k) {
      const size_t start = wire.size();
      wire.push_back(63);
      wire.insert(wire.end(), 63, static_cast<uint8_t>('a' + k));
      if (k == 0) {
        wire.push_back(0);
      } else {
        wire.push_back(static_cast<uint8_t>(0xc0 | (previous >> 8)));
        wire.push_back(static_cast<uint8_t>(previous & 0xff));
      }
      wire.insert(wire.end(), {0, 1, 0, 1});  // Type A, class IN.
      previous = start;
    }
    return wire;
  };
  const auto three = DecodeMessage(build(3));
  ASSERT_TRUE(three.has_value());
  EXPECT_EQ(three->question[2].qname.WireLength(), 193u);
  EXPECT_FALSE(DecodeMessage(build(4)).has_value());
  EXPECT_FALSE(DecodeMessage(build(5)).has_value());
}

TEST(CodecTest, RejectsForwardPointers) {
  std::vector<uint8_t> wire = {
      0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
      0xc0, 20,  // Pointer beyond the current position.
      0, 1, 0, 1,
  };
  EXPECT_FALSE(DecodeMessage(wire).has_value());
}

TEST(CodecTest, NxDomainResponseWithSoa) {
  const Name apex = *Name::Parse("neg.example");
  Message msg = MakeResponse(MakeQuery(9, *apex.Prepend("missing"), RecordType::kA),
                             Rcode::kNxDomain);
  SoaData soa;
  soa.mname = *apex.Prepend("ns");
  soa.rname = *apex.Prepend("admin");
  soa.minimum = 300;
  msg.authority.push_back(MakeSoa(apex, 300, soa));
  const Message decoded = RoundTrip(msg);
  EXPECT_EQ(decoded.header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(decoded.authority.size(), 1u);
  EXPECT_EQ(decoded.authority[0].soa().minimum, 300u);
}

TEST(EdnsOptionsTest, AttributionRoundTrip) {
  const Attribution attribution{0x0a000007, 5353, 0xbeef};
  const EdnsOption opt = EncodeAttribution(attribution);
  EXPECT_EQ(opt.code, kAttributionOptionCode);
  const auto decoded = DecodeAttribution(opt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, attribution);
}

TEST(EdnsOptionsTest, AnomalySignalRoundTrip) {
  AnomalySignal signal;
  signal.reason = AnomalyReason::kAmplification;
  signal.policy = PolicyType::kBlock;
  signal.suspicion_remaining_ms = 45000;
  signal.countdown = 7;
  const auto decoded = DecodeAnomalySignal(EncodeAnomalySignal(signal));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, signal);
}

TEST(EdnsOptionsTest, PolicingSignalRoundTrip) {
  PolicingSignal signal;
  signal.policy = PolicyType::kRateLimit;
  signal.expiry_remaining_ms = 20000;
  const auto decoded = DecodePolicingSignal(EncodePolicingSignal(signal));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, signal);
}

TEST(EdnsOptionsTest, CongestionSignalRoundTrip) {
  CongestionSignal signal;
  signal.dropped_queries = 12;
  signal.allocated_qps = 250;
  const auto decoded = DecodeCongestionSignal(EncodeCongestionSignal(signal));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, signal);
}

TEST(EdnsOptionsTest, DecodeRejectsWrongCodeOrShortPayload) {
  EdnsOption opt = EncodeAttribution(Attribution{1, 2, 3});
  opt.code = kAnomalySignalCode;
  EXPECT_FALSE(DecodeAttribution(opt).has_value());
  EdnsOption truncated = EncodeAttribution(Attribution{1, 2, 3});
  truncated.payload.pop_back();
  EXPECT_FALSE(DecodeAttribution(truncated).has_value());
}

TEST(EdnsOptionsTest, SetOptionReplacesSameCode) {
  Message msg = MakeQuery(1, *Name::Parse("s.example"), RecordType::kA);
  SetOption(msg, EncodeCongestionSignal(CongestionSignal{1, 100}));
  SetOption(msg, EncodeCongestionSignal(CongestionSignal{2, 200}));
  ASSERT_TRUE(msg.edns.has_value());
  EXPECT_EQ(msg.edns->options.size(), 1u);
  const auto decoded = GetCongestionSignal(msg);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dropped_queries, 2u);
}

TEST(EdnsOptionsTest, SignalsSurviveWireRoundTrip) {
  Message msg = MakeResponse(MakeQuery(3, *Name::Parse("sig.example"), RecordType::kA),
                             Rcode::kServFail);
  SetOption(msg, EncodeAnomalySignal(AnomalySignal{AnomalyReason::kNxDomainRatio,
                                                   PolicyType::kRateLimit, 1000, 9}));
  SetOption(msg, EncodePolicingSignal(PolicingSignal{PolicyType::kBlock, 30000}));
  SetOption(msg, EncodeCongestionSignal(CongestionSignal{5, 333}));
  const auto wire = EncodeMessage(msg);
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(GetAnomalySignal(*decoded).has_value());
  EXPECT_TRUE(GetPolicingSignal(*decoded).has_value());
  EXPECT_TRUE(GetCongestionSignal(*decoded).has_value());
}

TEST(EdnsOptionsTest, StripRemovesAllDccOptions) {
  Message msg = MakeQuery(4, *Name::Parse("strip.example"), RecordType::kA);
  SetOption(msg, EncodeAttribution(Attribution{9, 9, 9}));
  SetOption(msg, EncodeCongestionSignal(CongestionSignal{1, 1}));
  msg.edns->options.push_back(EdnsOption{42, {0xff}});  // Non-DCC option kept.
  EXPECT_EQ(StripDccOptions(msg), 2u);
  EXPECT_FALSE(GetAttribution(msg).has_value());
  EXPECT_FALSE(GetCongestionSignal(msg).has_value());
  EXPECT_EQ(msg.edns->options.size(), 1u);
  EXPECT_EQ(msg.edns->options[0].code, 42);
}

TEST(EdnsOptionsTest, ExtendedErrorRoundTrip) {
  const ExtendedError error{kEdeProhibited, "dcc: policed"};
  const auto decoded = DecodeExtendedError(EncodeExtendedError(error));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, error);
  // Real RFC 8914 option code.
  EXPECT_EQ(EncodeExtendedError(error).code, 15);
}

TEST(EdnsOptionsTest, StripKeepsExtendedError) {
  // EDE is a standard option, not a DCC-private one; stripping DCC state
  // must leave it for the client.
  Message msg = MakeResponse(MakeQuery(9, *Name::Parse("e.test"), RecordType::kA),
                             Rcode::kServFail);
  SetOption(msg, EncodeExtendedError({kEdeBlocked, ""}));
  SetOption(msg, EncodePolicingSignal({PolicyType::kBlock, 1000}));
  StripDccOptions(msg);
  EXPECT_TRUE(GetExtendedError(msg).has_value());
  EXPECT_FALSE(GetPolicingSignal(msg).has_value());
}

TEST(RrTest, ToStringCoversTypes) {
  const Name n = *Name::Parse("t.example");
  EXPECT_NE(MakeA(n, 60, 0x01020304).ToString().find("1.2.3.4"), std::string::npos);
  EXPECT_NE(MakeCname(n, 60, *Name::Parse("c.example")).ToString().find("CNAME"),
            std::string::npos);
  EXPECT_NE(MakeTxt(n, 60, {"abc"}).ToString().find("abc"), std::string::npos);
}

SoaData TestSoa(const Name& apex, uint32_t minimum) {
  SoaData soa;
  soa.mname = *apex.Prepend("ns1");
  soa.rname = *apex.Prepend("hostmaster");
  soa.serial = 2024110401;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 86400;
  soa.minimum = minimum;
  return soa;
}

TEST(RrTest, RecordFitsItsSizeBound) {
  // Every A and NS record pays the width of the widest Rdata alternative,
  // so the SOA lives out of line (DESIGN.md §14).
  EXPECT_LE(sizeof(ResourceRecord), 112u);
}

TEST(RrTest, SoaCopySharesItsBlockWithoutAllocating) {
  const Name apex = *Name::Parse("example.com");
  const ResourceRecord rr = MakeSoa(apex, 600, TestSoa(apex, 300));
  const size_t before = g_allocations.load();
  const ResourceRecord copy = rr;
  RrSet copies(4, rr);  // One allocation: the vector's buffer.
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(&copy.soa(), &rr.soa());
  EXPECT_EQ(&copies.back().soa(), &rr.soa());
  EXPECT_EQ(copy, rr);
}

TEST(RrTest, SoaRecordsCompareByValue) {
  const Name apex = *Name::Parse("example.com");
  const ResourceRecord a = MakeSoa(apex, 600, TestSoa(apex, 300));
  const ResourceRecord b = MakeSoa(apex, 600, TestSoa(apex, 300));
  EXPECT_NE(&a.soa(), &b.soa());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MakeSoa(apex, 600, TestSoa(apex, 301)));
  EXPECT_NE(a, MakeSoa(apex, 300, TestSoa(apex, 300)));
}

TEST(RrTest, SoaRecordRoundTripsThroughTheCodecByteForByte) {
  const Name apex = *Name::Parse("example.com");
  Message msg = MakeResponse(MakeQuery(5, *apex.Prepend("nope"), RecordType::kA),
                             Rcode::kNxDomain);
  msg.authority.push_back(MakeSoa(apex, 300, TestSoa(apex, 300)));
  const auto wire = EncodeMessage(msg);
  const auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(decoded->authority[0].soa(), msg.authority[0].soa());
  EXPECT_EQ(EncodeMessage(*decoded), wire);
}

TEST(RrTest, EnumNames) {
  EXPECT_STREQ(RecordTypeName(RecordType::kNs), "NS");
  EXPECT_STREQ(RcodeName(Rcode::kNxDomain), "NXDOMAIN");
  EXPECT_STREQ(RcodeName(Rcode::kServFail), "SERVFAIL");
}

}  // namespace
}  // namespace dcc
