// Differential test of Name's flat wire-form buffer against a reference
// model: the earlier vector-of-labels representation, kept here only as the
// specification of what every Name operation must return.

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dns/name.h"

namespace dcc {
namespace {

// The reference model: labels in presentation order, one std::string each.
namespace reference {

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

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

struct RefName {
  std::vector<std::string> labels;

  size_t WireLength() const {
    size_t len = 1;
    for (const auto& l : labels) {
      len += 1 + l.size();
    }
    return len;
  }

  std::string ToString() const {
    if (labels.empty()) {
      return ".";
    }
    std::string out;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) {
        out.push_back('.');
      }
      out += labels[i];
    }
    return out;
  }

  RefName Parent() const { return {{labels.begin() + 1, labels.end()}}; }

  std::optional<RefName> Prepend(const std::string& label) const {
    if (label.empty() || label.size() > 63) {
      return std::nullopt;
    }
    RefName out;
    out.labels.push_back(label);
    out.labels.insert(out.labels.end(), labels.begin(), labels.end());
    if (out.WireLength() > 255) {
      return std::nullopt;
    }
    return out;
  }

  static std::optional<RefName> Concat(const RefName& left, const RefName& right) {
    RefName out = left;
    out.labels.insert(out.labels.end(), right.labels.begin(), right.labels.end());
    if (out.WireLength() > 255) {
      return std::nullopt;
    }
    return out;
  }

  bool IsSubdomainOf(const RefName& ancestor) const {
    if (ancestor.labels.size() > labels.size()) {
      return false;
    }
    const size_t offset = labels.size() - ancestor.labels.size();
    for (size_t i = 0; i < ancestor.labels.size(); ++i) {
      if (CompareIgnoreCase(labels[offset + i], ancestor.labels[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  RefName Suffix(size_t count) const {
    count = std::min(count, labels.size());
    return {{labels.end() - static_cast<ptrdiff_t>(count), labels.end()}};
  }

  size_t Hash() const {
    size_t h = 1469598103934665603ULL;
    auto mix = [&h](char c) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    };
    for (const auto& l : labels) {
      for (char c : l) {
        mix(ToLowerAscii(c));
      }
      mix('\0');
    }
    return h;
  }

  friend bool operator==(const RefName& a, const RefName& b) {
    if (a.labels.size() != b.labels.size()) {
      return false;
    }
    for (size_t i = 0; i < a.labels.size(); ++i) {
      if (CompareIgnoreCase(a.labels[i], b.labels[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  friend bool operator<(const RefName& a, const RefName& b) {
    size_t ia = a.labels.size();
    size_t ib = b.labels.size();
    while (ia > 0 && ib > 0) {
      const int c = CompareIgnoreCase(a.labels[ia - 1], b.labels[ib - 1]);
      if (c != 0) {
        return c < 0;
      }
      --ia;
      --ib;
    }
    return ia < ib;
  }
};

}  // namespace reference

using reference::RefName;

// Labels of 1-63 octets, mostly mixed-case letters from a small alphabet (so
// that equal and prefix-equal labels are common), sometimes arbitrary bytes:
// '.', bytes equal to length octets, and high bytes.
std::string RandomLabel(Rng& rng, size_t length) {
  static const char kAlphabet[] = "abAB-0";
  std::string label(length, 'a');
  const bool arbitrary = rng.NextBool(0.1);
  for (char& c : label) {
    c = arbitrary ? static_cast<char>(1 + rng.NextBelow(255))
                  : kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return label;
}

// A name of roughly `target` wire octets (at most 255).
RefName RandomRefName(Rng& rng, size_t target) {
  RefName name;
  size_t wire = 1;
  while (true) {
    const size_t max_label = std::min<size_t>(63, 255 - wire - 1);
    if (max_label == 0 || wire >= target) {
      break;
    }
    // Short labels most of the time, so names carry many labels.
    const size_t cap = rng.NextBool(0.7) ? std::min<size_t>(max_label, 4) : max_label;
    const size_t length = 1 + rng.NextBelow(cap);
    name.labels.push_back(RandomLabel(rng, length));
    wire += 1 + length;
  }
  return name;
}

// Lengths spread over the whole range, with extra weight on both sides of
// the inline capacity.
size_t RandomTarget(Rng& rng) {
  const size_t inline_wire = Name::kInlineCapacity + 1;
  switch (rng.NextBelow(4)) {
    case 0:
      return inline_wire - 4 + rng.NextBelow(9);
    case 1:
      return 1 + rng.NextBelow(inline_wire);
    default:
      return 1 + rng.NextBelow(255);
  }
}

// The same name with each letter's case flipped at random.
RefName Recased(Rng& rng, const RefName& name) {
  RefName out = name;
  for (std::string& label : out.labels) {
    for (char& c : label) {
      if (std::isalpha(static_cast<unsigned char>(c)) && rng.NextBool(0.5)) {
        c = static_cast<char>(c ^ 0x20);
      }
    }
  }
  return out;
}

Name Build(const RefName& ref) {
  const std::optional<Name> name = Name::FromLabels(ref.labels);
  EXPECT_TRUE(name.has_value());
  return name.value_or(Name());
}

// Every accessor of `name` agrees with `ref`.
void ExpectSame(const Name& name, const RefName& ref, const std::string& what) {
  ASSERT_EQ(name.LabelCount(), ref.labels.size()) << what;
  EXPECT_EQ(name.IsRoot(), ref.labels.empty()) << what;
  EXPECT_EQ(name.WireLength(), ref.WireLength()) << what;
  EXPECT_EQ(name.ToString(), ref.ToString()) << what;
  EXPECT_EQ(name.Hash(), ref.Hash()) << what;
  EXPECT_EQ(name.HeapBytes(), ref.WireLength() - 1 > Name::kInlineCapacity
                                  ? ref.WireLength() - 1
                                  : 0u)
      << what;
  for (size_t i = 0; i < ref.labels.size(); ++i) {
    EXPECT_EQ(name.Label(i), ref.labels[i]) << what << " label " << i;
  }
}

TEST(NameDifferentialTest, AccessorsMatchReference) {
  Rng rng(1401);
  for (int trial = 0; trial < 3000; ++trial) {
    const RefName ref = RandomRefName(rng, RandomTarget(rng));
    const Name name = Build(ref);
    ExpectSame(name, ref, "trial " + std::to_string(trial));
    // Parse agrees whenever the presentation form is unambiguous.
    const bool plain = std::all_of(ref.labels.begin(), ref.labels.end(), [](const auto& l) {
      return l.find('.') == std::string::npos;
    });
    if (plain) {
      const auto parsed = Name::Parse(ref.ToString());
      ASSERT_TRUE(parsed.has_value()) << ref.ToString();
      EXPECT_EQ(parsed->wire(), name.wire());
    }
    EXPECT_EQ(Name::FromWire(name.wire())->wire(), name.wire());
  }
}

TEST(NameDifferentialTest, DerivedNamesMatchReference) {
  Rng rng(1402);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const RefName ref = RandomRefName(rng, RandomTarget(rng));
    const Name name = Build(ref);
    for (size_t count = 0; count <= ref.labels.size() + 1; ++count) {
      ExpectSame(name.Suffix(count), ref.Suffix(count), what + " suffix");
    }
    if (!ref.labels.empty()) {
      ExpectSame(name.Parent(), ref.Parent(), what + " parent");
    }
    const std::string label = RandomLabel(rng, 1 + rng.NextBelow(63));
    const auto prepended = name.Prepend(label);
    const auto ref_prepended = ref.Prepend(label);
    ASSERT_EQ(prepended.has_value(), ref_prepended.has_value()) << what;
    if (prepended.has_value()) {
      ExpectSame(*prepended, *ref_prepended, what + " prepend");
    }
    EXPECT_FALSE(name.Prepend("").has_value());
    EXPECT_FALSE(name.Prepend(std::string(64, 'x')).has_value());
    const RefName other = RandomRefName(rng, RandomTarget(rng));
    const auto joined = Name::Concat(name, Build(other));
    const auto ref_joined = RefName::Concat(ref, other);
    ASSERT_EQ(joined.has_value(), ref_joined.has_value()) << what;
    if (joined.has_value()) {
      ExpectSame(*joined, *ref_joined, what + " concat");
    }
  }
}

TEST(NameDifferentialTest, ComparisonsMatchReference) {
  Rng rng(1403);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const RefName a = RandomRefName(rng, RandomTarget(rng));
    // b is unrelated, a re-cased copy, a re-cased ancestor, or a sibling.
    RefName b;
    switch (rng.NextBelow(4)) {
      case 0:
        b = RandomRefName(rng, RandomTarget(rng));
        break;
      case 1:
        b = Recased(rng, a);
        break;
      case 2:
        b = Recased(rng, a.Suffix(rng.NextBelow(a.labels.size() + 1)));
        break;
      default:
        b = a;
        if (!b.labels.empty()) {
          b.labels.front() = RandomLabel(rng, b.labels.front().size());
        }
        break;
    }
    const Name na = Build(a);
    const Name nb = Build(b);
    EXPECT_EQ(na == nb, a == b) << what;
    EXPECT_EQ(nb == na, b == a) << what;
    EXPECT_EQ(na < nb, a < b) << what;
    EXPECT_EQ(nb < na, b < a) << what;
    EXPECT_EQ(na.IsSubdomainOf(nb), a.IsSubdomainOf(b)) << what;
    EXPECT_EQ(nb.IsSubdomainOf(na), b.IsSubdomainOf(a)) << what;
    if (a == b) {
      EXPECT_EQ(na.Hash(), nb.Hash()) << what;
    }
  }
}

TEST(NameDifferentialTest, CopiesAndMovesAcrossStorage) {
  Rng rng(1404);
  const size_t inline_wire = Name::kInlineCapacity + 1;
  for (int trial = 0; trial < 500; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    // One name on each side of the inline capacity (and the root).
    const RefName refs[] = {RandomRefName(rng, 1 + rng.NextBelow(inline_wire)),
                            RandomRefName(rng, inline_wire + 8 + rng.NextBelow(200)),
                            RefName{}};
    ASSERT_GT(refs[1].WireLength(), inline_wire) << what;
    for (const RefName& from : refs) {
      for (const RefName& to : refs) {
        const Name source = Build(from);
        Name copy_assigned = Build(to);
        copy_assigned = source;
        ExpectSame(copy_assigned, from, what + " copy-assign");
        ExpectSame(source, from, what + " copy source");

        Name moved_from = Build(from);
        Name move_assigned = Build(to);
        move_assigned = std::move(moved_from);
        ExpectSame(move_assigned, from, what + " move-assign");
        // The moved-from name stays usable.
        moved_from = Build(to);
        ExpectSame(moved_from, to, what + " reuse after move");

        Name constructed_from = Build(from);
        const Name move_constructed(std::move(constructed_from));
        ExpectSame(move_constructed, from, what + " move-construct");
        const Name copy_constructed(move_constructed);
        ExpectSame(copy_constructed, from, what + " copy-construct");
      }
      Name self = Build(from);
      const Name& alias = self;
      self = alias;
      ExpectSame(self, from, what + " self-assign");
    }
  }
}

TEST(NameDifferentialTest, ContainersOfMixedStorage) {
  // Vector growth moves every element; heap and inline names must survive.
  Rng rng(1405);
  std::vector<RefName> refs;
  std::vector<Name> names;
  for (int i = 0; i < 400; ++i) {
    refs.push_back(RandomRefName(rng, RandomTarget(rng)));
    names.push_back(Build(refs.back()));
  }
  std::vector<Name> copies = names;
  std::sort(copies.begin(), copies.end());
  std::vector<RefName> sorted_refs = refs;
  std::sort(sorted_refs.begin(), sorted_refs.end());
  ASSERT_EQ(copies.size(), sorted_refs.size());
  for (size_t i = 0; i < copies.size(); ++i) {
    // Equal-ordering names may land in either order; compare case-folded.
    EXPECT_TRUE(copies[i] == Build(sorted_refs[i])) << i;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    ExpectSame(names[i], refs[i], "element " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dcc
