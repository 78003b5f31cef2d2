#include "src/dns/edns_options.h"

#include <algorithm>

namespace dcc {
namespace {

// The options DCC adds to a message: attribution and the three signals.
bool IsDccOptionCode(uint16_t code) {
  return code == kAttributionOptionCode || code == kAnomalySignalCode ||
         code == kPolicingSignalCode || code == kCongestionSignalCode;
}

// Encoders reserve each option's exact size before these append to it, so
// a payload is one allocation.
void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v >> 16));
  PutU16(out, static_cast<uint16_t>(v));
}

bool GetU8(const std::vector<uint8_t>& in, size_t& pos, uint8_t& v) {
  if (pos >= in.size()) {
    return false;
  }
  v = in[pos++];
  return true;
}

bool GetU16(const std::vector<uint8_t>& in, size_t& pos, uint16_t& v) {
  uint8_t hi = 0;
  uint8_t lo = 0;
  if (!GetU8(in, pos, hi) || !GetU8(in, pos, lo)) {
    return false;
  }
  v = static_cast<uint16_t>((hi << 8) | lo);
  return true;
}

bool GetU32(const std::vector<uint8_t>& in, size_t& pos, uint32_t& v) {
  uint16_t hi = 0;
  uint16_t lo = 0;
  if (!GetU16(in, pos, hi) || !GetU16(in, pos, lo)) {
    return false;
  }
  v = (static_cast<uint32_t>(hi) << 16) | lo;
  return true;
}

}  // namespace

const char* AnomalyReasonName(AnomalyReason reason) {
  switch (reason) {
    case AnomalyReason::kNone:
      return "none";
    case AnomalyReason::kNxDomainRatio:
      return "nxdomain-ratio";
    case AnomalyReason::kAmplification:
      return "amplification";
    case AnomalyReason::kCacheBypass:
      return "cache-bypass";
    case AnomalyReason::kRequestRate:
      return "request-rate";
    case AnomalyReason::kUpstreamSignal:
      return "upstream-signal";
  }
  return "?";
}

const char* PolicyTypeName(PolicyType type) {
  switch (type) {
    case PolicyType::kNone:
      return "none";
    case PolicyType::kRateLimit:
      return "rate-limit";
    case PolicyType::kBlock:
      return "block";
  }
  return "?";
}

EdnsOption EncodeExtendedError(const ExtendedError& error) {
  EdnsOption opt;
  opt.code = kExtendedErrorOptionCode;
  opt.payload.reserve(2 + error.extra_text.size());
  PutU16(opt.payload, error.info_code);
  for (char c : error.extra_text) {
    opt.payload.push_back(static_cast<uint8_t>(c));
  }
  return opt;
}

std::optional<ExtendedError> DecodeExtendedError(const EdnsOption& option) {
  if (option.code != kExtendedErrorOptionCode) {
    return std::nullopt;
  }
  ExtendedError error;
  size_t pos = 0;
  if (!GetU16(option.payload, pos, error.info_code)) {
    return std::nullopt;
  }
  error.extra_text.assign(option.payload.begin() + static_cast<ptrdiff_t>(pos),
                          option.payload.end());
  return error;
}

EdnsOption EncodeAttribution(const Attribution& attribution) {
  EdnsOption opt;
  opt.code = kAttributionOptionCode;
  opt.payload.reserve(16);
  PutU32(opt.payload, attribution.client_addr);
  PutU16(opt.payload, attribution.client_port);
  PutU16(opt.payload, attribution.request_id);
  PutU32(opt.payload, attribution.span_id);
  PutU32(opt.payload, attribution.parent_span_id);
  return opt;
}

std::optional<Attribution> DecodeAttribution(const EdnsOption& option) {
  if (option.code != kAttributionOptionCode) {
    return std::nullopt;
  }
  // Two valid encodings: the legacy 8-byte (addr, port, id) payload, which
  // leaves the span ids zero, and the 16-byte one with span linkage.
  if (option.payload.size() != 8 && option.payload.size() != 16) {
    return std::nullopt;
  }
  Attribution a;
  size_t pos = 0;
  uint32_t addr = 0;
  if (!GetU32(option.payload, pos, addr) || !GetU16(option.payload, pos, a.client_port) ||
      !GetU16(option.payload, pos, a.request_id)) {
    return std::nullopt;
  }
  a.client_addr = addr;
  if (option.payload.size() == 16 &&
      (!GetU32(option.payload, pos, a.span_id) ||
       !GetU32(option.payload, pos, a.parent_span_id))) {
    return std::nullopt;
  }
  return a;
}

EdnsOption EncodeAnomalySignal(const AnomalySignal& signal) {
  EdnsOption opt;
  opt.code = kAnomalySignalCode;
  opt.payload.reserve(8);
  opt.payload.push_back(static_cast<uint8_t>(signal.reason));
  opt.payload.push_back(static_cast<uint8_t>(signal.policy));
  PutU32(opt.payload, signal.suspicion_remaining_ms);
  PutU16(opt.payload, signal.countdown);
  return opt;
}

std::optional<AnomalySignal> DecodeAnomalySignal(const EdnsOption& option) {
  if (option.code != kAnomalySignalCode) {
    return std::nullopt;
  }
  AnomalySignal s;
  size_t pos = 0;
  uint8_t reason = 0;
  uint8_t policy = 0;
  if (!GetU8(option.payload, pos, reason) || !GetU8(option.payload, pos, policy) ||
      !GetU32(option.payload, pos, s.suspicion_remaining_ms) ||
      !GetU16(option.payload, pos, s.countdown)) {
    return std::nullopt;
  }
  s.reason = static_cast<AnomalyReason>(reason);
  s.policy = static_cast<PolicyType>(policy);
  return s;
}

EdnsOption EncodePolicingSignal(const PolicingSignal& signal) {
  EdnsOption opt;
  opt.code = kPolicingSignalCode;
  opt.payload.reserve(5);
  opt.payload.push_back(static_cast<uint8_t>(signal.policy));
  PutU32(opt.payload, signal.expiry_remaining_ms);
  return opt;
}

std::optional<PolicingSignal> DecodePolicingSignal(const EdnsOption& option) {
  if (option.code != kPolicingSignalCode) {
    return std::nullopt;
  }
  PolicingSignal s;
  size_t pos = 0;
  uint8_t policy = 0;
  if (!GetU8(option.payload, pos, policy) ||
      !GetU32(option.payload, pos, s.expiry_remaining_ms)) {
    return std::nullopt;
  }
  s.policy = static_cast<PolicyType>(policy);
  return s;
}

EdnsOption EncodeCongestionSignal(const CongestionSignal& signal) {
  EdnsOption opt;
  opt.code = kCongestionSignalCode;
  opt.payload.reserve(8);
  PutU32(opt.payload, signal.dropped_queries);
  PutU32(opt.payload, signal.allocated_qps);
  return opt;
}

std::optional<CongestionSignal> DecodeCongestionSignal(const EdnsOption& option) {
  if (option.code != kCongestionSignalCode) {
    return std::nullopt;
  }
  CongestionSignal s;
  size_t pos = 0;
  if (!GetU32(option.payload, pos, s.dropped_queries) ||
      !GetU32(option.payload, pos, s.allocated_qps)) {
    return std::nullopt;
  }
  return s;
}

void SetOption(Message& msg, EdnsOption option) {
  Edns& edns = msg.EnsureEdns();
  edns.Remove(option.code);
  edns.options.push_back(std::move(option));
}

namespace {

template <typename T>
std::optional<T> GetOption(const Message& msg, uint16_t code,
                           std::optional<T> (*decode)(const EdnsOption&)) {
  if (!msg.edns.has_value()) {
    return std::nullopt;
  }
  const EdnsOption* opt = msg.edns->Find(code);
  if (opt == nullptr) {
    return std::nullopt;
  }
  return decode(*opt);
}

}  // namespace

std::optional<ExtendedError> GetExtendedError(const Message& msg) {
  return GetOption<ExtendedError>(msg, kExtendedErrorOptionCode, DecodeExtendedError);
}

std::optional<Attribution> GetAttribution(const Message& msg) {
  return GetOption<Attribution>(msg, kAttributionOptionCode, DecodeAttribution);
}

std::optional<AnomalySignal> GetAnomalySignal(const Message& msg) {
  return GetOption<AnomalySignal>(msg, kAnomalySignalCode, DecodeAnomalySignal);
}

std::optional<PolicingSignal> GetPolicingSignal(const Message& msg) {
  return GetOption<PolicingSignal>(msg, kPolicingSignalCode, DecodePolicingSignal);
}

std::optional<CongestionSignal> GetCongestionSignal(const Message& msg) {
  return GetOption<CongestionSignal>(msg, kCongestionSignalCode, DecodeCongestionSignal);
}

bool HasDccOptions(const Message& msg) {
  return msg.edns.has_value() &&
         std::ranges::any_of(msg.edns->options,
                             [](const EdnsOption& opt) { return IsDccOptionCode(opt.code); });
}

size_t StripDccOptions(Message& msg) {
  if (!msg.edns.has_value()) {
    return 0;
  }
  return std::erase_if(msg.edns->options,
                       [](const EdnsOption& opt) { return IsDccOptionCode(opt.code); });
}

}  // namespace dcc
