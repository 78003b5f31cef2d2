// Resource records and related enumerations.

#ifndef SRC_DNS_RR_H_
#define SRC_DNS_RR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/dns/name.h"

namespace dcc {

// RR TYPE values (RFC 1035 and successors). Only the types exercised by the
// paper's experiments are modeled; unknown types round-trip as opaque rdata.
enum class RecordType : uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kTxt = 16,
  kAaaa = 28,
  kOpt = 41,   // EDNS(0) pseudo-RR; never appears in RRsets.
  kNsec = 47,  // Modeled as (owner, next-name) intervals; no type bitmap.
};

const char* RecordTypeName(RecordType type);

// Response codes (RFC 1035 §4.1.1 + EDNS extended codes).
enum class Rcode : uint16_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

const char* RcodeName(Rcode rcode);

struct SoaData {
  Name mname;
  Name rname;
  uint32_t serial = 0;
  uint32_t refresh = 0;
  uint32_t retry = 0;
  uint32_t expire = 0;
  uint32_t minimum = 0;  // Negative-caching TTL (RFC 2308).

  friend bool operator==(const SoaData&, const SoaData&) = default;
};

// An immutable SoaData in one reference-counted heap block. Copies share the
// block: copying bumps the count and allocates nothing, so a zone hands out
// its SOA on every negative answer for free. The count is atomic because a
// built zone, and so its records, may be shared by runs on several threads.
// Equality compares the SOA data, not the block.
class SharedSoa {
 public:
  explicit SharedSoa(SoaData soa) : block_(new Block{std::move(soa)}) {}
  SharedSoa(const SharedSoa& other) noexcept : block_(other.block_) { Retain(); }
  SharedSoa(SharedSoa&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  SharedSoa& operator=(SharedSoa other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedSoa() { Release(); }

  const SoaData& operator*() const { return block_->soa; }

  friend bool operator==(const SharedSoa& a, const SharedSoa& b) {
    return a.block_ == b.block_ ||
           (a.block_ != nullptr && b.block_ != nullptr && a.block_->soa == b.block_->soa);
  }

 private:
  struct Block {
    SoaData soa;
    std::atomic<uint32_t> refs{1};
  };

  void Retain() const {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Release() {
    if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block_;
    }
  }

  Block* block_;  // Null only once moved from.
};

struct TxtData {
  std::vector<std::string> strings;

  friend bool operator==(const TxtData&, const TxtData&) = default;
};

// Rdata alternatives, by type:
//   A/AAAA  -> HostAddress (the simulator uses one flat address space)
//   NS      -> Name (nameserver host name)
//   CNAME   -> Name (canonical name)
//   NSEC    -> Name (next existing name; the type bitmap is not modeled)
//   SOA     -> SharedSoa (one shared block, so the SOA's two names do not
//              widen every record)
//   TXT     -> TxtData
//   unknown -> raw bytes
using Rdata = std::variant<HostAddress, Name, SharedSoa, TxtData, std::vector<uint8_t>>;

// 112 bytes: the owner Name (48), type and TTL (8), and an Rdata as wide as
// its widest alternative, a Name, plus the index (56); see DESIGN.md §14.
struct ResourceRecord {
  Name name;
  RecordType type = RecordType::kA;
  uint32_t ttl = 0;
  Rdata rdata;

  // Convenience accessors; behavior is undefined if the alternative does not
  // match `type` (construction helpers below keep them consistent).
  HostAddress address() const { return std::get<HostAddress>(rdata); }
  const Name& target() const { return std::get<Name>(rdata); }
  const SoaData& soa() const { return *std::get<SharedSoa>(rdata); }
  const TxtData& txt() const { return std::get<TxtData>(rdata); }

  std::string ToString() const;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;
};

static_assert(sizeof(ResourceRecord) <= 112, "see DESIGN.md §14 before widening a record");

ResourceRecord MakeA(const Name& name, uint32_t ttl, HostAddress addr);
ResourceRecord MakeNs(const Name& name, uint32_t ttl, const Name& nsdname);
ResourceRecord MakeCname(const Name& name, uint32_t ttl, const Name& target);
// Builds a new SOA block; copy the record to share it.
ResourceRecord MakeSoa(const Name& name, uint32_t ttl, SoaData soa);
ResourceRecord MakeTxt(const Name& name, uint32_t ttl, std::vector<std::string> strings);
// NSEC proving that no name exists between `name` and `next` (RFC 4034 §4,
// without the type bitmap).
ResourceRecord MakeNsec(const Name& name, uint32_t ttl, const Name& next);

// All records in an RRset share (name, type, ttl); this alias documents
// intent at call sites that require the invariant.
using RrSet = std::vector<ResourceRecord>;

}  // namespace dcc

#endif  // SRC_DNS_RR_H_
