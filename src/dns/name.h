// Domain names.
//
// A `Name` is an ordered list of labels, least-significant first is NOT used:
// labels are stored in presentation order ("www", "example", "com" for
// www.example.com). Comparison and hashing are case-insensitive per RFC 1035
// §2.3.3. The empty label sequence is the root name ".".

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
  // The root name ".".
  Name() = default;

  // Parses dot-separated presentation format; a trailing dot is accepted and
  // ignored ("a.b." == "a.b"). Returns nullopt for invalid names (empty
  // labels, labels > 63 octets, total wire length > 255).
  static std::optional<Name> Parse(std::string_view text);

  // Builds a name from labels in presentation order (leftmost first).
  static Name FromLabels(std::vector<std::string> labels);

  bool IsRoot() const { return labels_.empty(); }
  size_t LabelCount() const { return labels_.size(); }
  const std::string& Label(size_t i) const { return labels_[i]; }
  const std::vector<std::string>& labels() const { return labels_; }

  // Number of octets this name occupies in uncompressed wire format.
  size_t WireLength() const;

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
  std::vector<std::string> labels_;
};

// Case-insensitive (ASCII) label equality, the comparison Name uses.
bool LabelEqualsIgnoreCase(const std::string& a, const std::string& b);

struct NameHash {
  size_t operator()(const Name& n) const { return n.Hash(); }
};

}  // namespace dcc

#endif  // SRC_DNS_NAME_H_
