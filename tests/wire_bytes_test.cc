// WireBytes suite: refcounted sharing and copy-on-write isolation (the fault
// layer's corruption path must never damage another holder's copy),
// and payloads that carry the sender's message: encoded at most once, only
// when read, and handed to the receiver without a codec round trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/wire_bytes.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

TEST(WireBytes, AdoptsVectorImplicitly) {
  const std::vector<uint8_t> source{1, 2, 3, 4};
  WireBytes wire = source;
  EXPECT_EQ(wire.size(), 4u);
  EXPECT_FALSE(wire.empty());
  EXPECT_EQ(wire[2], 3);
  EXPECT_EQ(wire, source);
  EXPECT_EQ(source, wire);

  const WireBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(WireBytes, CopySharesTheBuffer) {
  WireBytes a = std::vector<uint8_t>{9, 8, 7};
  EXPECT_FALSE(a.shared());
  WireBytes b = a;
  EXPECT_TRUE(a.shared());
  EXPECT_TRUE(b.shared());
  EXPECT_EQ(a.data(), b.data()) << "copies must alias, not duplicate";

  WireBytes c = std::move(b);
  EXPECT_EQ(a.data(), c.data());
  EXPECT_TRUE(a.shared()) << "move transfers the reference";
  { WireBytes d = a; (void)d; }
  EXPECT_TRUE(a.shared()) << "c still holds a reference";
  c = WireBytes();
  EXPECT_FALSE(a.shared());
}

TEST(WireBytes, MutableClonesWhenShared) {
  WireBytes cached = std::vector<uint8_t>{1, 2, 3, 4, 5};
  WireBytes in_flight = cached;  // e.g. a retransmit handed to the network.

  // A corruption fault flips bits on the in-flight copy...
  in_flight.Mutable()[0] = 0xff;
  // ...and the cached buffer must stay pristine.
  EXPECT_EQ(cached[0], 1);
  EXPECT_EQ(in_flight[0], 0xff);
  EXPECT_FALSE(cached.shared());
  EXPECT_FALSE(in_flight.shared());
  EXPECT_NE(cached.data(), in_flight.data());
}

TEST(WireBytes, MutableTruncationIsolation) {
  WireBytes cached = std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8};
  WireBytes in_flight = cached;
  in_flight.Mutable().resize(2);  // Truncation fault.
  EXPECT_EQ(in_flight.size(), 2u);
  EXPECT_EQ(cached.size(), 8u);
}

TEST(WireBytes, MutableInPlaceWhenUnique) {
  WireBytes wire = std::vector<uint8_t>{1, 2, 3};
  const uint8_t* before = wire.data();
  wire.Mutable()[1] = 42;
  EXPECT_EQ(wire.data(), before) << "unique buffers mutate without cloning";
  EXPECT_EQ(wire[1], 42);
}

TEST(WireBytes, MutableOnEmptyCreatesBuffer) {
  WireBytes wire;
  wire.Mutable().assign({5, 6});
  EXPECT_EQ(wire, (std::vector<uint8_t>{5, 6}));
}

TEST(WireBytes, EqualityComparesContents) {
  WireBytes a = std::vector<uint8_t>{1, 2};
  WireBytes b = std::vector<uint8_t>{1, 2};
  WireBytes c = std::vector<uint8_t>{1, 3};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a == std::vector<uint8_t>({1, 2}));
}


// --- payloads that carry a message ----------------------------------------

// A carried type whose codec counts its calls.
struct Counted {
  uint8_t value = 0;
  friend bool operator==(const Counted&, const Counted&) = default;
};
int counted_encodes = 0;
int counted_decodes = 0;

}  // namespace

template <>
struct WireCodec<Counted> {
  static std::vector<uint8_t> Encode(const Counted& c) {
    ++counted_encodes;
    return {0xc0, c.value};
  }
  static std::optional<Counted> Decode(std::span<const uint8_t> bytes) {
    ++counted_decodes;
    if (bytes.size() != 2 || bytes[0] != 0xc0) {
      return std::nullopt;
    }
    return Counted{bytes[1]};
  }
};

namespace {

Message SampleQuery() {
  Message query = MakeQuery(7, *Name::Parse("www.example.com"), RecordType::kA);
  SetOption(query, EncodeAttribution(Attribution{0x0a000001, 5353, 7, 11, 3}));
  return query;
}

TEST(MessagePayload, EncodesAtMostOnceAndOnlyWhenRead) {
  counted_encodes = 0;
  counted_decodes = 0;
  WireBytes payload(Counted{9});
  WireBytes retransmit = payload;
  EXPECT_FALSE(payload.empty()) << "a carried value is never empty";
  EXPECT_EQ(counted_encodes, 0) << "carrying and sharing encode nothing";
  EXPECT_EQ(payload.size(), 2u);
  EXPECT_EQ(retransmit[1], 9);
  EXPECT_EQ(payload.bytes(), (std::vector<uint8_t>{0xc0, 9}));
  EXPECT_EQ(counted_encodes, 1) << "the encoding is cached in the shared block";
  EXPECT_EQ(payload.Take<Counted>(), Counted{9});
  EXPECT_EQ(counted_decodes, 0) << "a carried value is never decoded";
}

TEST(MessagePayload, SizeIsTheEncodedMessageSize) {
  const Message query = SampleQuery();
  const WireBytes payload{Message(query)};
  EXPECT_EQ(payload.size(), EncodeMessage(query).size());
  EXPECT_EQ(payload, EncodeMessage(query));
}

TEST(MessagePayload, TakeMovesTheOnlyHandleAndCopiesASharedOne) {
  WireBytes only{SampleQuery()};
  WireBytes cached{SampleQuery()};
  WireBytes in_flight = cached;  // e.g. a retransmit handed to the network.
  prof::Reset();
  prof::Enable();
  std::optional<Message> moved = only.Take<Message>();
  const prof::CopyCounters after_move = prof::Snapshot().copies;
  std::optional<Message> copied = in_flight.Take<Message>();
  prof::Disable();
  const prof::CopyCounters after_copy = prof::Snapshot().copies;
  prof::Reset();

  EXPECT_EQ(after_move.msg_copies, 0u) << "the only handle's message is moved out";
  EXPECT_EQ(after_copy.msg_copies, 1u) << "a shared handle's message is copied";
  EXPECT_EQ(after_copy.encode_calls, 0u);
  EXPECT_EQ(after_copy.decode_calls, 0u);
  EXPECT_EQ(moved, SampleQuery());
  EXPECT_EQ(copied, SampleQuery());
  EXPECT_TRUE(only.empty()) << "Take leaves the payload empty";
  ASSERT_NE(cached.Carried<Message>(), nullptr);
  EXPECT_EQ(*cached.Carried<Message>(), SampleQuery()) << "the cache keeps its message";
}

TEST(MessagePayload, MutableOnASharedMessageClonesAndLeavesTheOtherIntact) {
  WireBytes cached{SampleQuery()};
  WireBytes in_flight = cached;
  const std::vector<uint8_t> wire = EncodeMessage(SampleQuery());
  in_flight.Mutable()[0] ^= 0xff;  // Flip the id's high byte.
  EXPECT_EQ(in_flight.Carried<Message>(), nullptr) << "rewritten bytes are bytes";
  EXPECT_EQ(in_flight[0], wire[0] ^ 0xff);
  EXPECT_FALSE(cached.shared());
  ASSERT_NE(cached.Carried<Message>(), nullptr);
  EXPECT_EQ(*cached.Carried<Message>(), SampleQuery());
  EXPECT_EQ(cached, wire);
}

TEST(MessagePayload, GetMutableClonesASharedMessageAndDropsTheStaleEncoding) {
  WireBytes cached{SampleQuery()};
  const std::vector<uint8_t> before = cached.bytes();
  WireBytes in_flight = cached;
  StripDccOptions(*in_flight.GetMutable<Message>());
  EXPECT_FALSE(HasDccOptions(*in_flight.Carried<Message>()));
  EXPECT_TRUE(HasDccOptions(*cached.Carried<Message>()));
  EXPECT_EQ(cached, before);
  Message stripped = SampleQuery();
  StripDccOptions(stripped);
  EXPECT_EQ(in_flight, EncodeMessage(stripped)) << "the edit is re-encoded";

  WireBytes only{SampleQuery()};
  EXPECT_EQ(only, before);  // Encodes and caches.
  StripDccOptions(*only.GetMutable<Message>());
  EXPECT_EQ(only, EncodeMessage(stripped)) << "an edit in place is re-encoded";
}

// What a receiver does with a payload a fault rewrote: it is bytes now, so
// the receiver decodes them, and drops them when they do not decode.
TEST(MessagePayload, CorruptedOrTruncatedMessagesReachTheReceiverAsBytes) {
  const Message query = SampleQuery();
  const std::vector<uint8_t> wire = EncodeMessage(query);

  WireBytes corrupted{Message(query)};
  corrupted.Mutable()[1] ^= 0x01;  // The id's low byte: still decodes.
  std::optional<Message> decoded = corrupted.Take<Message>();
  ASSERT_TRUE(decoded.has_value());
  Message expected = query;
  expected.header.id ^= 0x01;
  EXPECT_EQ(*decoded, expected);

  WireBytes truncated{Message(query)};
  truncated.Mutable().resize(wire.size() / 2);
  EXPECT_EQ(truncated.Get<Message>(), nullptr) << "a truncated query does not decode";
  EXPECT_EQ(truncated.size(), wire.size() / 2) << "and is left as it was";
  EXPECT_FALSE(truncated.Take<Message>().has_value());

  WireBytes bytes = wire;  // Bytes from the start decode once, in place.
  const Message* in_place = bytes.Get<Message>();
  ASSERT_NE(in_place, nullptr);
  EXPECT_EQ(*in_place, query);
  EXPECT_EQ(bytes.Get<Message>(), in_place);
}

}  // namespace
}  // namespace dcc
