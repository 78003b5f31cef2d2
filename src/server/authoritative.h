// Authoritative nameserver.
//
// Serves one or more zones with RFC 1034 semantics via src/zone, and applies
// ingress response rate limiting (RRL) per client address with separate
// limits per response class — the mechanism that caps the capacity of
// resolver→authoritative (RA) channels in the paper's attacks (§2.2).

#ifndef SRC_SERVER_AUTHORITATIVE_H_
#define SRC_SERVER_AUTHORITATIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/token_bucket.h"
#include "src/dns/message.h"
#include "src/server/transport.h"
#include "src/telemetry/observer.h"
#include "src/zone/zone.h"

namespace dcc {

// What a server does with a request whose response would exceed the limit.
enum class RateLimitAction {
  kDrop,      // Silently discard (most common RRL behavior).
  kServFail,  // Answer SERVFAIL.
  kRefused,   // Answer REFUSED.
};

struct ResponseRateLimitConfig {
  bool enabled = false;
  double noerror_qps = 100.0;   // Limit for positive responses per client.
  double nxdomain_qps = 100.0;  // Separate (often lower) NXDOMAIN limit.
  double burst = 10.0;
  RateLimitAction action = RateLimitAction::kDrop;
  // When false, one combined bucket (at noerror_qps) covers every response
  // class — modeling a channel with a single total capacity.
  bool per_class = true;
  // Optional punitive behavior observed on real resolvers (§2.2.1: "some
  // resolvers temporarily block our probes"): after the limit trips, all of
  // the client's responses are dropped for this long.
  Duration penalty = 0;
};

struct AuthoritativeConfig {
  ResponseRateLimitConfig rrl;
  // Artificial per-request processing delay, modeling server compute.
  Duration processing_delay = Microseconds(50);
};

class AuthoritativeServer : public DatagramHandler {
 public:
  // With an observer, the query/response/RRL tallies and the RRL-state
  // depth export as `auth_*{server=<addr>}` metrics.
  AuthoritativeServer(Transport& transport, AuthoritativeConfig config,
                      telemetry::Observer* obs = nullptr);

  // Adds a zone this server is authoritative for. Zones are immutable, so
  // servers (and runs) serving the same zone may share one; per-run state
  // such as RRL buckets lives in the server, never in the zone.
  void AddZone(std::shared_ptr<const Zone> zone);
  void AddZone(Zone zone) { AddZone(std::make_shared<const Zone>(std::move(zone))); }

  void HandleDatagram(Datagram dgram) override;

  // Counters for experiment harnesses. Per-second query series (Fig. 2
  // egress-QPS style measurements) come from a telemetry::TimeSeriesSampler
  // counter probe on `queries_received()`.
  uint64_t queries_received() const { return queries_received_; }
  uint64_t responses_sent() const { return responses_sent_; }
  uint64_t rate_limited() const { return rate_limited_; }

 private:
  const Zone* FindZone(const Name& qname) const;
  bool PassesRrl(HostAddress client, Rcode rcode);
  void Respond(const Datagram& request_dgram, Message response);

  Transport& transport_;
  AuthoritativeConfig config_;
  std::vector<std::shared_ptr<const Zone>> zones_;
  struct ClientRrl {
    TokenBucket noerror;
    TokenBucket nxdomain;
    Time blocked_until = 0;
  };
  FlatMap<HostAddress, ClientRrl> rrl_state_;
  uint64_t queries_received_ = 0;
  uint64_t responses_sent_ = 0;
  uint64_t rate_limited_ = 0;
};

}  // namespace dcc

#endif  // SRC_SERVER_AUTHORITATIVE_H_
