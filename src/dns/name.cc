#include "src/dns/name.h"

#include <algorithm>
#include <cctype>

namespace dcc {
namespace {

constexpr size_t kMaxLabelLength = 63;
constexpr size_t kMaxNameWireLength = 255;

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// <0, 0, >0 comparison of labels, case-insensitive.
int CompareIgnoreCase(const std::string& a, const std::string& b) {
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

}  // namespace

bool LabelEqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerAscii(a[i]) != ToLowerAscii(b[i])) {
      return false;
    }
  }
  return true;
}

std::optional<Name> Name::Parse(std::string_view text) {
  if (text == "." || text.empty()) {
    return Name();
  }
  if (text.back() == '.') {
    text.remove_suffix(1);
  }
  Name name;
  size_t start = 0;
  while (start <= text.size()) {
    size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) {
      dot = text.size();
    }
    const size_t len = dot - start;
    if (len == 0 || len > kMaxLabelLength) {
      return std::nullopt;
    }
    name.labels_.emplace_back(text.substr(start, len));
    if (dot == text.size()) {
      break;
    }
    start = dot + 1;
  }
  if (name.WireLength() > kMaxNameWireLength) {
    return std::nullopt;
  }
  return name;
}

Name Name::FromLabels(std::vector<std::string> labels) {
  Name name;
  name.labels_ = std::move(labels);
  return name;
}

size_t Name::WireLength() const {
  size_t len = 1;  // Terminating root label.
  for (const auto& l : labels_) {
    len += 1 + l.size();
  }
  return len;
}

std::string Name::ToString() const {
  if (labels_.empty()) {
    return ".";
  }
  std::string out;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (i != 0) {
      out.push_back('.');
    }
    out += labels_[i];
  }
  return out;
}

Name Name::Parent() const {
  Name parent;
  parent.labels_.assign(labels_.begin() + 1, labels_.end());
  return parent;
}

std::optional<Name> Name::Prepend(std::string_view label) const {
  if (label.empty() || label.size() > kMaxLabelLength) {
    return std::nullopt;
  }
  Name out;
  out.labels_.reserve(labels_.size() + 1);
  out.labels_.emplace_back(label);
  out.labels_.insert(out.labels_.end(), labels_.begin(), labels_.end());
  if (out.WireLength() > kMaxNameWireLength) {
    return std::nullopt;
  }
  return out;
}

std::optional<Name> Name::Concat(const Name& left, const Name& right) {
  Name out;
  out.labels_.reserve(left.labels_.size() + right.labels_.size());
  out.labels_.insert(out.labels_.end(), left.labels_.begin(), left.labels_.end());
  out.labels_.insert(out.labels_.end(), right.labels_.begin(), right.labels_.end());
  if (out.WireLength() > kMaxNameWireLength) {
    return std::nullopt;
  }
  return out;
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) {
    return false;
  }
  const size_t offset = labels_.size() - ancestor.labels_.size();
  for (size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (!LabelEqualsIgnoreCase(labels_[offset + i], ancestor.labels_[i])) {
      return false;
    }
  }
  return true;
}

Name Name::Suffix(size_t count) const {
  count = std::min(count, labels_.size());
  Name out;
  out.labels_.assign(labels_.end() - static_cast<ptrdiff_t>(count), labels_.end());
  return out;
}

bool operator==(const Name& a, const Name& b) {
  if (a.labels_.size() != b.labels_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.labels_.size(); ++i) {
    if (!LabelEqualsIgnoreCase(a.labels_[i], b.labels_[i])) {
      return false;
    }
  }
  return true;
}

bool operator<(const Name& a, const Name& b) {
  // Compare from the suffix (most-significant label) down, so that related
  // names sort adjacently in ordered containers.
  size_t ia = a.labels_.size();
  size_t ib = b.labels_.size();
  while (ia > 0 && ib > 0) {
    const int c = CompareIgnoreCase(a.labels_[ia - 1], b.labels_[ib - 1]);
    if (c != 0) {
      return c < 0;
    }
    --ia;
    --ib;
  }
  return ia < ib;
}

size_t Name::Hash() const {
  // FNV-1a over lowercased labels with a separator.
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  for (const auto& l : labels_) {
    for (char c : l) {
      mix(ToLowerAscii(c));
    }
    mix('\0');
  }
  return h;
}

}  // namespace dcc
