#include "src/common/ids.h"

#include <charconv>
#include <cstdio>

namespace dcc {

char* AppendAddress(char* out, HostAddress addr) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) {
      *out++ = '.';
    }
    out = std::to_chars(out, out + 3, (addr >> shift) & 0xff).ptr;
  }
  return out;
}

std::string FormatAddress(HostAddress addr) {
  char buf[kMaxAddressChars];
  return std::string(buf, AppendAddress(buf, addr));
}

bool ParseAddress(const std::string& text, HostAddress* out) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char trailing = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &trailing) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    return false;
  }
  *out = (a << 24) | (b << 16) | (c << 8) | d;
  return true;
}

std::string FormatEndpoint(const Endpoint& ep) {
  return FormatAddress(ep.addr) + ":" + std::to_string(ep.port);
}

}  // namespace dcc
