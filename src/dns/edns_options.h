// EDNS options defined by DCC (paper §3.3, §5).
//
//  * Attribution option — repurposes an ECS-style option to carry the
//    responsible client's address, source port and DNS request id on every
//    resolver-generated query, so a non-invasive interceptor can link
//    queries to clients (§5). Stripped before queries leave the host.
//  * Anomaly / Policing / Congestion signals — in-band control information
//    attached to responses and propagated down the resolution path (§3.3.1—
//    §3.3.3). Encoded as EDNS options in the spirit of Extended DNS Errors.
//
// Option codes sit in the EDNS private-use range (RFC 6891 §9).

#ifndef SRC_DNS_EDNS_OPTIONS_H_
#define SRC_DNS_EDNS_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/ids.h"
#include "src/dns/message.h"

namespace dcc {

// RFC 8914 Extended DNS Error option code (IANA-assigned).
inline constexpr uint16_t kExtendedErrorOptionCode = 15;
inline constexpr uint16_t kAttributionOptionCode = 65001;
inline constexpr uint16_t kAnomalySignalCode = 65002;
inline constexpr uint16_t kPolicingSignalCode = 65003;
inline constexpr uint16_t kCongestionSignalCode = 65004;

// Why a client was marked anomalous (§3.2.2).
enum class AnomalyReason : uint8_t {
  kNone = 0,
  kNxDomainRatio = 1,   // Excessive NXDOMAIN share (water-torture pattern).
  kAmplification = 2,   // Disproportionate attributed-query count.
  kCacheBypass = 3,     // Requests that systematically miss the cache.
  kRequestRate = 4,     // Raw request-rate anomaly.
  kUpstreamSignal = 5,  // Relayed from an upstream DCC instance.
};

const char* AnomalyReasonName(AnomalyReason reason);

// Defensive policy enforced by pre-queue policing (§3.2.3).
enum class PolicyType : uint8_t {
  kNone = 0,
  kRateLimit = 1,
  kBlock = 2,
};

const char* PolicyTypeName(PolicyType type);

struct Attribution {
  HostAddress client_addr = kInvalidAddress;
  uint16_t client_port = 0;
  uint16_t request_id = 0;
  // Causal-span linkage: the resolver-assigned span id of this sub-query and
  // the span it was caused by. Zero means "unset" (legacy 8-byte encoding or
  // a hop that does not allocate spans, e.g. the forwarder), in which case
  // consumers attribute events to the root client span.
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;

  friend bool operator==(const Attribution&, const Attribution&) = default;
};

// §3.3.1: reason, current suspicion period, policy to be enforced, and a
// countdown (remaining alarms to conviction).
struct AnomalySignal {
  AnomalyReason reason = AnomalyReason::kNone;
  PolicyType policy = PolicyType::kNone;
  uint32_t suspicion_remaining_ms = 0;
  uint16_t countdown = 0;

  friend bool operator==(const AnomalySignal&, const AnomalySignal&) = default;
};

// §3.3.2: the enforced policy's type and time to expiry.
struct PolicingSignal {
  PolicyType policy = PolicyType::kNone;
  uint32_t expiry_remaining_ms = 0;

  friend bool operator==(const PolicingSignal&, const PolicingSignal&) = default;
};

// §3.3.3: how many of the client's queries were dropped and the rate the
// scheduler currently allocates it.
struct CongestionSignal {
  uint32_t dropped_queries = 0;
  uint32_t allocated_qps = 0;

  friend bool operator==(const CongestionSignal&, const CongestionSignal&) = default;
};

// RFC 8914 Extended DNS Error. DCC emits these alongside its own signals so
// that entities which do not speak DCC still get standardized diagnostics
// (§6: "resolvers can opt to process DCC signals as Extended DNS Errors").
struct ExtendedError {
  uint16_t info_code = 0;
  std::string extra_text;

  friend bool operator==(const ExtendedError&, const ExtendedError&) = default;
};

// The RFC 8914 info codes DCC uses.
inline constexpr uint16_t kEdeBlocked = 15;      // Pre-queue policing: block.
inline constexpr uint16_t kEdeProhibited = 18;   // Pre-queue policing: rate limit.
inline constexpr uint16_t kEdeNetworkError = 23; // Channel congestion drop.

EdnsOption EncodeExtendedError(const ExtendedError& error);
std::optional<ExtendedError> DecodeExtendedError(const EdnsOption& option);
std::optional<ExtendedError> GetExtendedError(const Message& msg);

EdnsOption EncodeAttribution(const Attribution& attribution);
std::optional<Attribution> DecodeAttribution(const EdnsOption& option);

EdnsOption EncodeAnomalySignal(const AnomalySignal& signal);
std::optional<AnomalySignal> DecodeAnomalySignal(const EdnsOption& option);

EdnsOption EncodePolicingSignal(const PolicingSignal& signal);
std::optional<PolicingSignal> DecodePolicingSignal(const EdnsOption& option);

EdnsOption EncodeCongestionSignal(const CongestionSignal& signal);
std::optional<CongestionSignal> DecodeCongestionSignal(const EdnsOption& option);

// Replaces any existing option of the same code on `msg` (co-existence rule
// §3.3.4: one signal per type per response).
void SetOption(Message& msg, EdnsOption option);

// Returns the decoded option of the given kind if present on `msg`.
std::optional<Attribution> GetAttribution(const Message& msg);
std::optional<AnomalySignal> GetAnomalySignal(const Message& msg);
std::optional<PolicingSignal> GetPolicingSignal(const Message& msg);
std::optional<CongestionSignal> GetCongestionSignal(const Message& msg);

// True when `msg` carries any DCC option (attribution or a signal).
bool HasDccOptions(const Message& msg);

// Removes all DCC options (attribution + signals) from `msg`; returns how
// many were stripped. Used before forwarding upstream / delivering to the
// wrapped resolver.
size_t StripDccOptions(Message& msg);

}  // namespace dcc

#endif  // SRC_DNS_EDNS_OPTIONS_H_
