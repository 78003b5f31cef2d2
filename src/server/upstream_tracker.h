// Per-upstream health tracking shared by the recursive resolver and the
// forwarder.
//
// Tracks a smoothed RTT and RTT variance per upstream server (RFC 6298
// gains), an EWMA loss estimate, and a dead-server hold-down: after
// `holddown_after` consecutive timeouts a server is held down for an
// exponentially growing window, during which callers should prefer other
// servers (BIND's "server marked down" behaviour). Hold-down expiry doubles
// as the re-probe schedule — the first query after expiry is the probe, and
// another timeout re-enters hold-down with a doubled window. Rank() orders a
// candidate list best-server-first and occasionally promotes a non-best
// candidate so recovered servers win traffic back (BIND-style re-probing).
//
// All state updates take explicit `now` arguments; randomness comes from a
// seeded Rng, keeping server selection deterministic under the simulator.

#ifndef SRC_SERVER_UPSTREAM_TRACKER_H_
#define SRC_SERVER_UPSTREAM_TRACKER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/telemetry/observer.h"

namespace dcc {

struct UpstreamTrackerConfig {
  // RFC 6298 smoothing gains and RTO = SRTT + rto_k * RTTVAR, clamped.
  double srtt_alpha = 0.125;
  double rttvar_beta = 0.25;
  double rto_k = 4.0;
  // The floor matters when a DCC shim interposes: queries can sit in the
  // MOPI-FQ queue well past the raw network RTT, and an RTO below the
  // queueing delay turns back-pressure into a spurious retransmit storm.
  Duration min_rto = Milliseconds(250);
  Duration max_rto = Seconds(8);
  // EWMA gain for the per-server loss-rate estimate.
  double loss_alpha = 0.25;
  // Consecutive timeouts before a server is held down.
  int holddown_after = 3;
  Duration holddown_initial = Seconds(2);
  Duration holddown_max = Seconds(60);
  double holddown_growth = 2.0;
  // Probability that Rank() promotes a random non-best live candidate,
  // re-probing servers whose SRTT has gone stale.
  double explore_probability = 0.02;
};

class UpstreamTracker {
 public:
  // With an observer, the timeout/hold-down tallies export as counters and
  // each upstream's SRTT as an `srtt_ms` gauge (labels {host=<actor>}, plus
  // {upstream=<addr>} on the gauge), and every hold-down is decided as
  // `resolver.upstream_dead` with `actor` — the owning resolver, forwarder
  // or fleet frontend — as the deciding host.
  UpstreamTracker(UpstreamTrackerConfig config, uint64_t seed,
                  telemetry::Observer* obs = nullptr, HostAddress actor = 0);

  // Feed: a response from `server` with round-trip time `rtt`, or a timeout.
  // A response clears any active hold-down (the server recovered).
  void OnResponse(HostAddress server, Duration rtt, Time now);
  void OnTimeout(HostAddress server, Time now);

  bool IsHeldDown(HostAddress server, Time now) const;
  // Smoothed RTT, or `fallback` when the server has no sample yet.
  Duration Srtt(HostAddress server, Duration fallback) const;
  double LossRate(HostAddress server) const;
  // RFC 6298-style retransmission timeout for `server`; `fallback` (clamped
  // to max_rto) when no RTT sample exists.
  Duration RetransmitTimeout(HostAddress server, Duration fallback) const;

  // Reorders `servers` in place: live servers before held-down ones, then by
  // SRTT with unsampled servers first (new servers are worth probing). The
  // sort is stable, and with `explore_probability` a random non-first live
  // candidate is promoted to the front.
  void Rank(std::vector<HostAddress>& servers, Time now);

  // Single listener invoked on hold-down transitions: (server, down, now).
  // Used to feed outage signals into the DCC capacity estimator.
  void SetHoldDownListener(std::function<void(HostAddress, bool, Time)> listener);

  uint64_t timeouts_observed() const { return timeouts_observed_; }
  uint64_t holddowns_entered() const { return holddowns_entered_; }
  size_t TrackedCount() const { return servers_.size(); }
  size_t MemoryFootprint() const;

  // Point-in-time view of per-upstream health for the introspection seam.
  struct ServerDebugState {
    HostAddress server = 0;
    Duration srtt = 0;       // 0 when no sample yet.
    Duration rttvar = 0;
    double loss_rate = 0;
    int consecutive_timeouts = 0;
    bool held_down = false;
    Time down_until = 0;
  };
  struct DebugState {
    uint64_t timeouts_observed = 0;
    uint64_t holddowns_entered = 0;
    std::vector<ServerDebugState> servers;  // Sorted by address.
  };
  DebugState GetDebugState(Time now) const;

  // Drops state for servers idle since before `now - idle`.
  void Purge(Time now, Duration idle);

 private:
  struct ServerState {
    Duration srtt = 0;
    Duration rttvar = 0;
    bool has_sample = false;
    double loss = 0.0;
    int consecutive_timeouts = 0;
    Time down_until = 0;
    Duration holddown = 0;  // Current hold-down window (grows geometrically).
    Time last_active = 0;
    // This upstream's `srtt_ms` gauge, registered on its first sample.
    std::optional<telemetry::Observer::InstrumentId> srtt_gauge;
  };

  ServerState& StateFor(HostAddress server, Time now);

  UpstreamTrackerConfig config_;
  Rng rng_;
  FlatMap<HostAddress, ServerState> servers_;
  std::function<void(HostAddress, bool, Time)> holddown_listener_;

  uint64_t timeouts_observed_ = 0;
  uint64_t holddowns_entered_ = 0;

  telemetry::Observer* obs_;
  HostAddress actor_;
};

}  // namespace dcc

#endif  // SRC_SERVER_UPSTREAM_TRACKER_H_
