// WireBytes suite: refcounted sharing and copy-on-write isolation (the fault
// layer's corruption path must never damage a cached retransmit buffer).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/wire_bytes.h"

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

}  // namespace
}  // namespace dcc
