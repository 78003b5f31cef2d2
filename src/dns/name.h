// Domain names.
//
// A `Name` holds its labels in presentation order ("www", "example", "com"
// for www.example.com) as one contiguous wire-form buffer: each label is a
// length octet followed by its bytes, case preserved, with no terminating
// root octet. The buffer lives inside the object up to kInlineCapacity
// bytes and in one heap block beyond that. Every constructor enforces
// RFC 1035's limits (labels of 1-63 octets, at most 255 octets on the wire),
// which is what bounds the buffer. Comparison and hashing are
// case-insensitive per RFC 1035 §2.3.3. The empty name is the root ".".

#ifndef SRC_DNS_NAME_H_
#define SRC_DNS_NAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcc {

class Name {
 public:
  static constexpr size_t kMaxLabelLength = 63;
  static constexpr size_t kMaxWireLength = 255;  // Root octet included.
  // Label bytes stored without a heap block. Sized so sizeof(Name) is 48 and
  // every name the benchmark workloads build (at most 31 wire octets) fits;
  // see DESIGN.md §14.
  static constexpr size_t kInlineCapacity = 46;

  // The root name ".".
  Name() = default;
  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name();

  // Parses dot-separated presentation format; a trailing dot is accepted and
  // ignored ("a.b." == "a.b"). Returns nullopt for invalid names (empty
  // labels, labels > 63 octets, total wire length > 255).
  static std::optional<Name> Parse(std::string_view text);

  // Builds a name from labels in presentation order (leftmost first), with
  // Parse's checks. Labels are taken verbatim, so one may contain a '.'.
  static std::optional<Name> FromLabels(const std::vector<std::string>& labels);

  // Builds a name from the uncompressed wire form of its labels (no root
  // octet), as returned by wire(). Returns nullopt unless `wire` is a
  // sequence of 1-63 octet labels of at most 254 octets in total.
  static std::optional<Name> FromWire(std::string_view wire);

  bool IsRoot() const { return size_ == 0; }
  size_t LabelCount() const { return count_; }
  // Label `i` counted from the left; O(i).
  std::string_view Label(size_t i) const;

  // The labels as length-prefixed wire bytes, without the root octet.
  std::string_view wire() const { return {data(), size_}; }

  // Number of octets this name occupies in uncompressed wire format.
  size_t WireLength() const { return size_ + 1u; }

  // Bytes of the heap block this name owns: 0 when stored inline.
  size_t HeapBytes() const { return IsInline() ? 0 : size_; }

  // "a.b.c" (no trailing dot), or "." for the root.
  std::string ToString() const;

  // Strips the leftmost label; requires !IsRoot().
  Name Parent() const;

  // Prepends `label` on the left: "www" + "example.com" -> "www.example.com".
  // Returns nullopt if the result would exceed wire-format limits.
  std::optional<Name> Prepend(std::string_view label) const;

  // Concatenates: "a.b" + "c.d" -> "a.b.c.d".
  static std::optional<Name> Concat(const Name& left, const Name& right);

  // True if `this` equals `ancestor` or is a descendant of it.
  // "www.example.com".IsSubdomainOf("example.com") == true.
  bool IsSubdomainOf(const Name& ancestor) const;

  // Keeps only the rightmost `count` labels: Suffix(2) of "a.b.c" is "b.c".
  Name Suffix(size_t count) const;

  // Case-insensitive equality / ordering (canonical DNS ordering is not
  // needed here; ordering is lexicographic on lowercased labels, suffix
  // first, which suffices for std::map usage).
  friend bool operator==(const Name& a, const Name& b);
  friend bool operator<(const Name& a, const Name& b);

  size_t Hash() const;

 private:
  // Builds a name from `size` validated wire bytes holding `count` labels.
  Name(const char* bytes, size_t size, size_t count);

  bool IsInline() const { return size_ <= kInlineCapacity; }
  const char* data() const { return IsInline() ? buf_ : HeapPtr(); }
  char* HeapPtr() const;
  // Stores size_ bytes from `bytes` in a new heap block this name owns.
  void CopyToHeap(const char* bytes);
  // Offset of label `i`'s length octet; i <= LabelCount().
  size_t LabelOffset(size_t i) const;

  // The label bytes, or (when !IsInline()) a pointer to a heap block of
  // size_ bytes.
  alignas(8) char buf_[kInlineCapacity] = {};
  uint8_t size_ = 0;   // Wire bytes, root octet excluded: at most 254.
  uint8_t count_ = 0;  // Labels: at most 127.
};

// Case-insensitive (ASCII) equality, the comparison Name uses. Applied to
// two wire() forms it is Name equality: length octets (1-63) are never
// letters, so they match only themselves.
bool LabelEqualsIgnoreCase(std::string_view a, std::string_view b);

struct NameHash {
  size_t operator()(const Name& n) const { return n.Hash(); }
};

}  // namespace dcc

#endif  // SRC_DNS_NAME_H_
