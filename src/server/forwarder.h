// Forwarding resolver (paper §2.1): answers from its own cache or relays
// requests to a fixed list of upstream resolvers with timeout-based failover.
// Like the recursive resolver it is written against the Transport seam so a
// DCC shim can wrap it.

#ifndef SRC_SERVER_FORWARDER_H_
#define SRC_SERVER_FORWARDER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/dns/message.h"
#include "src/server/cache.h"
#include "src/server/transport.h"
#include "src/server/upstream_tracker.h"
#include "src/telemetry/observer.h"

namespace dcc {

struct ForwarderConfig {
  Duration upstream_timeout = Milliseconds(1200);
  // Total send attempts per request, spread round-robin over upstreams.
  int upstream_attempts = 3;
  bool cache_enabled = true;
  size_t cache_max_entries = 1 << 18;
  Duration processing_delay = Microseconds(20);
  // Emit the DCC attribution option on forwarded queries (§5).
  bool attach_attribution = false;
  // Adaptive retry: SRTT-based per-upstream timeouts with exponential
  // backoff/jitter, and hold-down-aware upstream selection (see
  // ResolverConfig for the same knobs).
  bool adaptive_retry = true;
  double retry_backoff_factor = 2.0;
  Duration retry_backoff_max = Seconds(6);
  double retry_jitter = 0.1;
  UpstreamTrackerConfig upstream;
  // RFC 8767 serve-stale on upstream exhaustion.
  bool serve_stale = false;
  Duration max_stale = Seconds(3600);
  uint32_t stale_answer_ttl = 30;
};

class Forwarder : public DatagramHandler, public CrashResettable {
 public:
  // With an observer, the request/stale tallies and the pending depth export
  // as `forwarder_*{host=<addr>}` metrics, and the SERVFAILs it synthesizes
  // (no live upstreams, attempts exhausted) are decided through it, as are
  // its tracker's upstream hold-downs.
  Forwarder(Transport& transport, ForwarderConfig config, uint64_t seed = 1,
            telemetry::Observer* obs = nullptr);

  void AddUpstream(HostAddress resolver);

  void HandleDatagram(Datagram dgram) override;

  uint64_t requests_received() const { return requests_received_; }
  uint64_t responses_sent() const { return responses_sent_; }
  uint64_t queries_sent() const { return queries_sent_; }
  uint64_t cache_hit_responses() const { return cache_hit_responses_; }
  uint64_t stale_responses() const { return stale_responses_; }
  size_t PendingCount() const { return pending_.size(); }
  size_t MemoryFootprint() const;

  UpstreamTracker& upstream_tracker() { return tracker_; }

  // Simulated process crash: drops all relayed-in-flight queries and the
  // in-memory cache.
  void CrashReset() override;

 private:
  struct Pending {
    Endpoint client;
    uint16_t local_port = kDnsPort;
    Message query;
    int attempts_left = 0;
    size_t upstream_index = 0;
    EventId timer;  // The current attempt's timeout.
    HostAddress last_upstream = kInvalidAddress;
    Time sent_at = 0;
    int attempt = 0;  // Transmissions already made (0 before the first).
  };

  void ForwardQuery(uint16_t port);
  void OnTimeout(uint16_t port);
  void RespondToClient(const Pending& pending, Message response);
  // Answers `pending` from a stale cache entry (TTL capped) or SERVFAIL.
  // `cause` and the observed/limit pair describe why the query is being
  // failed; they are decided only when the SERVFAIL path is taken (a stale
  // answer means the client was not actually dropped).
  void FailPending(Pending done, telemetry::AuditCause cause, double observed,
                   double limit);
  Duration AttemptTimeout(HostAddress upstream, int attempt);

  // A free local port, or nullopt when every one is in use.
  std::optional<uint16_t> AllocatePort();

  Transport& transport_;
  ForwarderConfig config_;
  Rng rng_;
  DnsCache cache_;
  UpstreamTracker tracker_;
  std::vector<HostAddress> upstreams_;
  FlatMap<uint16_t, Pending> pending_;
  size_t next_upstream_ = 0;
  uint16_t next_port_ = 2048;

  uint64_t requests_received_ = 0;
  uint64_t responses_sent_ = 0;
  uint64_t queries_sent_ = 0;
  uint64_t cache_hit_responses_ = 0;
  uint64_t stale_responses_ = 0;

  telemetry::Observer* obs_;
};

}  // namespace dcc

#endif  // SRC_SERVER_FORWARDER_H_
