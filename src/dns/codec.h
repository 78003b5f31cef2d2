// DNS wire-format codec (RFC 1035 §4.1) with name compression and EDNS(0).
//
// Simulated links carry the sender's Message itself (src/common/wire_bytes.h),
// so a hop runs this codec only where something reads the bytes: the fault
// layer's corruption and truncation, and the receiver of bytes so rewritten.
// Decoding is defensive: any malformed input yields std::nullopt rather than
// UB.

#ifndef SRC_DNS_CODEC_H_
#define SRC_DNS_CODEC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/wire_bytes.h"
#include "src/dns/message.h"

namespace dcc {

// Serializes `msg` to wire format. Name compression is applied to owner
// names and to NS/CNAME/SOA rdata names.
std::vector<uint8_t> EncodeMessage(const Message& msg);

// Parses a wire-format message. Returns nullopt on any syntactic error
// (truncation, bad compression pointers, label overruns, nested OPT, ...).
std::optional<Message> DecodeMessage(std::span<const uint8_t> wire);

// Lets a datagram payload carry a Message: WireBytes(std::move(msg)) on the
// sending side, payload.Take<Message>() on the receiving side.
template <>
struct WireCodec<Message> {
  static std::vector<uint8_t> Encode(const Message& msg) { return EncodeMessage(msg); }
  static std::optional<Message> Decode(std::span<const uint8_t> wire) {
    return DecodeMessage(wire);
  }
};

}  // namespace dcc

#endif  // SRC_DNS_CODEC_H_
