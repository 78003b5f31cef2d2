// Host addressing shared between the simulator and DNS-layer code.
//
// The simulator models an IPv4-like flat address space: a `HostAddress` is a
// 32-bit identifier and an `Endpoint` pairs it with a 16-bit port. The DCC
// attribution option (paper §5) embeds these on the wire.

#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace dcc {

using HostAddress = uint32_t;

inline constexpr HostAddress kInvalidAddress = 0;

// The longest dotted quad, "255.255.255.255".
inline constexpr size_t kMaxAddressChars = 15;

// Writes `addr` as a dotted quad at `out`, which must have room for
// kMaxAddressChars bytes, and returns one past the last byte written. No
// terminating NUL. The one address formatter: FormatAddress and the
// telemetry exports both render through it.
char* AppendAddress(char* out, HostAddress addr);

// Renders an address as a dotted quad, e.g. 0x0a000001 -> "10.0.0.1".
std::string FormatAddress(HostAddress addr);

// Inverse of FormatAddress: parses a dotted quad into `out`. Returns false
// (leaving `out` untouched) on anything but four dot-separated octets.
bool ParseAddress(const std::string& text, HostAddress* out);

struct Endpoint {
  HostAddress addr = kInvalidAddress;
  uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

std::string FormatEndpoint(const Endpoint& ep);

struct EndpointHash {
  size_t operator()(const Endpoint& ep) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(ep.addr) << 16) | ep.port);
  }
};

}  // namespace dcc

#endif  // SRC_COMMON_IDS_H_
