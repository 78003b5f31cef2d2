#include "src/dns/name.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dcc {
namespace {

// Wire bytes a name may hold: kMaxWireLength minus the root octet.
constexpr size_t kMaxStoredBytes = Name::kMaxWireLength - 1;
// Enough for the most labels a name can hold (1-octet labels: 127).
constexpr size_t kMaxLabels = kMaxStoredBytes / 2 + 1;

static_assert(sizeof(Name) == 48, "kInlineCapacity is sized for a 48-byte Name");

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// <0, 0, >0 comparison of labels, case-insensitive.
int CompareIgnoreCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const char ca = ToLowerAscii(a[i]);
    const char cb = ToLowerAscii(b[i]);
    if (ca != cb) {
      return ca < cb ? -1 : 1;
    }
  }
  if (a.size() != b.size()) {
    return a.size() < b.size() ? -1 : 1;
  }
  return 0;
}

// Records the offset of each label's length octet in `wire` (a valid name's
// bytes) into `starts`; returns the label count.
size_t LabelStarts(std::string_view wire, uint8_t* starts) {
  size_t n = 0;
  for (size_t at = 0; at < wire.size(); at += 1 + static_cast<uint8_t>(wire[at])) {
    starts[n++] = static_cast<uint8_t>(at);
  }
  return n;
}

// Appends `label` as a length octet plus its bytes to `out`, which holds
// `size` bytes; returns false if the label or the result breaks the limits.
bool AppendLabel(char* out, size_t& size, std::string_view label) {
  if (label.empty() || label.size() > Name::kMaxLabelLength ||
      size + 1 + label.size() > kMaxStoredBytes) {
    return false;
  }
  out[size] = static_cast<char>(label.size());
  std::memcpy(out + size + 1, label.data(), label.size());
  size += 1 + label.size();
  return true;
}

}  // namespace

bool LabelEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i] && ToLowerAscii(a[i]) != ToLowerAscii(b[i])) {
      return false;
    }
  }
  return true;
}

Name::Name(const char* bytes, size_t size, size_t count)
    : size_(static_cast<uint8_t>(size)), count_(static_cast<uint8_t>(count)) {
  assert(size <= kMaxStoredBytes);
  if (size == 0) {
    return;  // The root; `bytes` may be null.
  }
  if (IsInline()) {
    std::memcpy(buf_, bytes, size);
  } else {
    CopyToHeap(bytes);
  }
}

Name::Name(const Name& other) : size_(other.size_), count_(other.count_) {
  if (IsInline()) {
    std::memcpy(buf_, other.buf_, kInlineCapacity);
  } else {
    CopyToHeap(other.HeapPtr());
  }
}

Name::Name(Name&& other) noexcept : size_(other.size_), count_(other.count_) {
  // A heap name hands over its block; either way `other` becomes the root.
  std::memcpy(buf_, other.buf_, kInlineCapacity);
  other.size_ = 0;
  other.count_ = 0;
}

Name& Name::operator=(const Name& other) {
  if (this != &other) {
    *this = Name(other);
  }
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this != &other) {
    if (!IsInline()) {
      delete[] HeapPtr();
    }
    std::memcpy(buf_, other.buf_, kInlineCapacity);
    size_ = other.size_;
    count_ = other.count_;
    other.size_ = 0;
    other.count_ = 0;
  }
  return *this;
}

Name::~Name() {
  if (!IsInline()) {
    delete[] HeapPtr();
  }
}

void Name::CopyToHeap(const char* bytes) {
  char* heap = new char[size_];
  std::memcpy(heap, bytes, size_);
  std::memcpy(buf_, &heap, sizeof(heap));
}

char* Name::HeapPtr() const {
  char* heap = nullptr;
  std::memcpy(&heap, buf_, sizeof(heap));
  return heap;
}

size_t Name::LabelOffset(size_t i) const {
  const char* bytes = data();
  size_t at = 0;
  for (; i > 0; --i) {
    at += 1 + static_cast<uint8_t>(bytes[at]);
  }
  return at;
}

std::optional<Name> Name::Parse(std::string_view text) {
  if (text == "." || text.empty()) {
    return Name();
  }
  if (text.back() == '.') {
    text.remove_suffix(1);
  }
  char bytes[kMaxStoredBytes];
  size_t size = 0;
  size_t count = 0;
  size_t start = 0;
  while (true) {
    size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) {
      dot = text.size();
    }
    if (!AppendLabel(bytes, size, text.substr(start, dot - start))) {
      return std::nullopt;
    }
    ++count;
    if (dot == text.size()) {
      break;
    }
    start = dot + 1;
  }
  return Name(bytes, size, count);
}

std::optional<Name> Name::FromLabels(const std::vector<std::string>& labels) {
  char bytes[kMaxStoredBytes];
  size_t size = 0;
  for (const std::string& label : labels) {
    if (!AppendLabel(bytes, size, label)) {
      return std::nullopt;
    }
  }
  return Name(bytes, size, labels.size());
}

std::optional<Name> Name::FromWire(std::string_view wire) {
  if (wire.size() > kMaxStoredBytes) {
    return std::nullopt;
  }
  size_t count = 0;
  for (size_t at = 0; at < wire.size(); ++count) {
    const size_t len = static_cast<uint8_t>(wire[at]);
    if (len == 0 || len > kMaxLabelLength || at + 1 + len > wire.size()) {
      return std::nullopt;
    }
    at += 1 + len;
  }
  return Name(wire.data(), wire.size(), count);
}

std::string_view Name::Label(size_t i) const {
  assert(i < count_);
  const size_t at = LabelOffset(i);
  return {data() + at + 1, static_cast<uint8_t>(data()[at])};
}

std::string Name::ToString() const {
  if (IsRoot()) {
    return ".";
  }
  std::string out(wire().substr(1));
  // Each remaining length octet becomes a dot.
  size_t at = static_cast<uint8_t>(data()[0]);
  while (at < out.size()) {
    const size_t len = static_cast<uint8_t>(out[at]);
    out[at] = '.';
    at += 1 + len;
  }
  return out;
}

Name Name::Parent() const {
  assert(!IsRoot());
  return Suffix(count_ - 1u);
}

std::optional<Name> Name::Prepend(std::string_view label) const {
  char bytes[kMaxStoredBytes];
  size_t size = 0;
  if (!AppendLabel(bytes, size, label) || size + size_ > kMaxStoredBytes) {
    return std::nullopt;
  }
  std::memcpy(bytes + size, data(), size_);
  return Name(bytes, size + size_, count_ + 1u);
}

std::optional<Name> Name::Concat(const Name& left, const Name& right) {
  const size_t size = left.size_ + right.size_;
  if (size > kMaxStoredBytes) {
    return std::nullopt;
  }
  char bytes[kMaxStoredBytes];
  std::memcpy(bytes, left.data(), left.size_);
  std::memcpy(bytes + left.size_, right.data(), right.size_);
  return Name(bytes, size, left.count_ + right.count_);
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.count_ > count_ || ancestor.size_ > size_) {
    return false;
  }
  const size_t at = LabelOffset(count_ - ancestor.count_);
  return LabelEqualsIgnoreCase(wire().substr(at), ancestor.wire());
}

Name Name::Suffix(size_t count) const {
  count = std::min<size_t>(count, count_);
  const size_t at = LabelOffset(count_ - count);
  return Name(data() + at, size_ - at, count);
}

bool operator==(const Name& a, const Name& b) {
  return a.count_ == b.count_ && LabelEqualsIgnoreCase(a.wire(), b.wire());
}

bool operator<(const Name& a, const Name& b) {
  // Compare from the suffix (most-significant label) down, so that related
  // names sort adjacently in ordered containers.
  uint8_t starts_a[kMaxLabels];
  uint8_t starts_b[kMaxLabels];
  const std::string_view wa = a.wire();
  const std::string_view wb = b.wire();
  size_t ia = LabelStarts(wa, starts_a);
  size_t ib = LabelStarts(wb, starts_b);
  auto label = [](std::string_view wire, uint8_t at) {
    return wire.substr(at + 1u, static_cast<uint8_t>(wire[at]));
  };
  while (ia > 0 && ib > 0) {
    --ia;
    --ib;
    const std::string_view la = label(wa, starts_a[ia]);
    const std::string_view lb = label(wb, starts_b[ib]);
    if (la == lb) {
      continue;  // Shared suffixes are mostly spelled the same.
    }
    const int c = CompareIgnoreCase(la, lb);
    if (c != 0) {
      return c < 0;
    }
  }
  return ia < ib;
}

size_t Name::Hash() const {
  // FNV-1a over lowercased labels, each followed by a zero separator.
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  const char* bytes = data();
  for (size_t at = 0; at < size_;) {
    const size_t end = at + 1 + static_cast<uint8_t>(bytes[at]);
    for (++at; at < end; ++at) {
      mix(ToLowerAscii(bytes[at]));
    }
    mix('\0');
  }
  return h;
}

}  // namespace dcc
