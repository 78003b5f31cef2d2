// DNS message model (RFC 1035 §4) with EDNS(0) (RFC 6891).

#ifndef SRC_DNS_MESSAGE_H_
#define SRC_DNS_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dns/name.h"
#include "src/dns/rr.h"

namespace dcc {

struct Question {
  Name qname;
  RecordType qtype = RecordType::kA;

  friend bool operator==(const Question&, const Question&) = default;
};

// One EDNS option (RFC 6891 §6.1.2): an option code plus opaque payload.
// DCC's attribution and signal options (src/dcc/signal.h) encode into this.
struct EdnsOption {
  uint16_t code = 0;
  std::vector<uint8_t> payload;

  friend bool operator==(const EdnsOption&, const EdnsOption&) = default;
};

struct Edns {
  uint16_t udp_payload_size = 1232;
  uint8_t extended_rcode = 0;
  uint8_t version = 0;
  bool dnssec_ok = false;
  std::vector<EdnsOption> options;

  // Returns the first option with `code`, if present.
  const EdnsOption* Find(uint16_t code) const;
  // Removes all options with `code`; returns how many were removed.
  size_t Remove(uint16_t code);

  friend bool operator==(const Edns&, const Edns&) = default;
};

struct Header {
  uint16_t id = 0;
  bool qr = false;  // false = query, true = response
  uint8_t opcode = 0;
  bool aa = false;
  bool tc = false;
  bool rd = false;
  bool ra = false;
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

struct Message {
  Header header;
  std::vector<Question> question;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;  // Excludes the OPT pseudo-RR.
  std::optional<Edns> edns;

  // Copies and moves are counted by the hot-path profiler (when enabled):
  // a Message copy deep-copies four RR vectors, and the per-hop copy count
  // is exactly what the ROADMAP's pooling/copy-elimination work needs to
  // see. Semantics are unchanged from the implicit members.
  Message();
  Message(const Message& other);
  Message(Message&& other) noexcept;
  Message& operator=(const Message& other);
  Message& operator=(Message&& other) noexcept;
  ~Message() = default;

  bool IsQuery() const { return !header.qr; }
  bool IsResponse() const { return header.qr; }

  // Mutable access to EDNS, creating a default OPT if absent.
  Edns& EnsureEdns();

  // The sole question; most DNS traffic has exactly one.
  const Question& Q() const { return question.front(); }
  // Presentation form of the question's name; empty without a question.
  std::string QnameText() const {
    return question.empty() ? std::string() : Q().qname.ToString();
  }

  std::string ToString() const;

  friend bool operator==(const Message&, const Message&) = default;
};

// Builds a query for (qname, qtype) with recursion desired.
Message MakeQuery(uint16_t id, const Name& qname, RecordType qtype, bool rd = true);

// Builds a response skeleton echoing `query`'s id and question.
Message MakeResponse(const Message& query, Rcode rcode);

}  // namespace dcc

#endif  // SRC_DNS_MESSAGE_H_
