// Renders the JSONL exports one line at a time.
//
// Each field is written with std::to_chars into a line buffer on the stack,
// and End() appends the finished line to the export string: no snprintf and
// no temporary strings. The field widths below bound a line, so an export
// can reserve its whole output once before rendering.

#ifndef SRC_TELEMETRY_LINE_WRITER_H_
#define SRC_TELEMETRY_LINE_WRITER_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/ids.h"

namespace dcc {
namespace telemetry {

// Widest decimal rendering of an integer of type T, sign included.
template <std::integral T>
inline constexpr size_t kMaxIntChars =
    std::numeric_limits<T>::digits10 + 1 + std::is_signed_v<T>;

class LineWriter {
 public:
  // A line up to this long is appended in one piece; a longer one is still
  // written whole, in several.
  static constexpr size_t kLineCapacity = 512;
  static constexpr size_t kHex16Chars = 16;
  // Widest %.6g rendering of a double, e.g. "-2.22507e-308".
  static constexpr size_t kMaxDoubleChars = 13;

  explicit LineWriter(std::string* out) : out_(out) {}

  LineWriter& Text(std::string_view text) {
    if (text.size() > sizeof(buf_)) {
      Flush();
      out_->append(text);
      return *this;
    }
    Room(text.size());
    std::memcpy(cursor_, text.data(), text.size());
    cursor_ += text.size();
    return *this;
  }

  template <std::integral T>
  LineWriter& Int(T value) {
    Room(kMaxIntChars<T>);
    cursor_ = std::to_chars(cursor_, end(), value).ptr;
    return *this;
  }

  // Sixteen lowercase hex digits, zero-padded (printf's %016x).
  LineWriter& Hex16(uint64_t value) {
    static constexpr char kDigits[] = "0123456789abcdef";
    Room(kHex16Chars);
    for (int shift = 60; shift >= 0; shift -= 4) {
      *cursor_++ = kDigits[(value >> shift) & 0xf];
    }
    return *this;
  }

  LineWriter& Address(HostAddress addr) {
    Room(kMaxAddressChars);
    cursor_ = AppendAddress(cursor_, addr);
    return *this;
  }

  // The same bytes as printf's %.6g, inf and nan included.
  LineWriter& Double(double value) {
    Room(kMaxDoubleChars);
    cursor_ = std::to_chars(cursor_, end(), value,
                            std::chars_format::general, 6)
                  .ptr;
    return *this;
  }

  // Ends the line with '\n' and appends it to the output.
  void End() {
    Room(1);
    *cursor_++ = '\n';
    Flush();
  }

 private:
  char* end() { return buf_ + sizeof(buf_); }

  void Flush() {
    out_->append(buf_, static_cast<size_t>(cursor_ - buf_));
    cursor_ = buf_;
  }

  // Makes room for `n` more bytes by appending the part of the line written
  // so far.
  void Room(size_t n) {
    if (static_cast<size_t>(end() - cursor_) < n) {
      Flush();
    }
  }

  std::string* out_;
  char buf_[kLineCapacity];
  char* cursor_ = buf_;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_LINE_WRITER_H_
