#include "src/server/upstream_tracker.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace dcc {
namespace {

// Fixed memory-model charges per entry, in bytes; not sizeof(), see
// DESIGN.md §14 "Fixed memory-model charges".
constexpr size_t kServerBytes = 76;

}  // namespace

UpstreamTracker::UpstreamTracker(UpstreamTrackerConfig config, uint64_t seed,
                                 telemetry::Observer* obs, HostAddress actor)
    : config_(config), rng_(seed), obs_(obs), actor_(actor) {
  if (obs_ == nullptr) {
    return;
  }
  const telemetry::Labels host{{"host", FormatAddress(actor_)}};
  obs_->Count("upstream_timeouts_total", host, "Upstream query timeouts observed",
              &timeouts_observed_);
  obs_->Count("upstream_holddowns_total", host, "Dead-server hold-downs entered",
              &holddowns_entered_);
}

UpstreamTracker::ServerState& UpstreamTracker::StateFor(HostAddress server, Time now) {
  ServerState& state = servers_[server];
  state.last_active = now;
  return state;
}

void UpstreamTracker::OnResponse(HostAddress server, Duration rtt, Time now) {
  ServerState& state = StateFor(server, now);
  if (rtt < 0) rtt = 0;
  if (!state.has_sample) {
    // RFC 6298 §2.2: first sample sets SRTT = R, RTTVAR = R/2.
    state.srtt = rtt;
    state.rttvar = rtt / 2;
    state.has_sample = true;
  } else {
    Duration err = rtt - state.srtt;
    state.rttvar += static_cast<Duration>(
        config_.rttvar_beta * (static_cast<double>(std::abs(err)) -
                               static_cast<double>(state.rttvar)));
    state.srtt += static_cast<Duration>(config_.srtt_alpha * static_cast<double>(err));
  }
  state.loss *= 1.0 - config_.loss_alpha;
  state.consecutive_timeouts = 0;
  state.holddown = 0;
  if (state.down_until > now) {
    state.down_until = 0;
    if (holddown_listener_) holddown_listener_(server, false, now);
  }
  if (obs_ != nullptr) {
    if (!state.srtt_gauge.has_value()) {
      state.srtt_gauge = obs_->SettableGauge(
          "srtt_ms",
          {{"host", FormatAddress(actor_)}, {"upstream", FormatAddress(server)}},
          "Smoothed RTT to the upstream server");
    }
    obs_->Set(*state.srtt_gauge, ToMilliseconds(state.srtt));
  }
}

void UpstreamTracker::OnTimeout(HostAddress server, Time now) {
  ++timeouts_observed_;
  ServerState& state = StateFor(server, now);
  state.loss = state.loss * (1.0 - config_.loss_alpha) + config_.loss_alpha;
  ++state.consecutive_timeouts;
  if (state.consecutive_timeouts >= config_.holddown_after && state.down_until <= now) {
    state.holddown = state.holddown == 0
                         ? config_.holddown_initial
                         : static_cast<Duration>(config_.holddown_growth *
                                                 static_cast<double>(state.holddown));
    state.holddown = std::min(state.holddown, config_.holddown_max);
    state.down_until = now + state.holddown;
    ++holddowns_entered_;
    if (obs_ != nullptr) {
      obs_->Decide({.cause = telemetry::AuditCause::kResolverUpstreamDead,
                    .at = now,
                    .actor = actor_,
                    .channel = server,
                    .observed = static_cast<double>(state.consecutive_timeouts),
                    .limit = static_cast<double>(config_.holddown_after),
                    .qname = "holddown"});
    }
    if (holddown_listener_) holddown_listener_(server, true, now);
  }
}

bool UpstreamTracker::IsHeldDown(HostAddress server, Time now) const {
  auto it = servers_.find(server);
  return it != servers_.end() && it->second.down_until > now;
}

Duration UpstreamTracker::Srtt(HostAddress server, Duration fallback) const {
  auto it = servers_.find(server);
  return it != servers_.end() && it->second.has_sample ? it->second.srtt : fallback;
}

double UpstreamTracker::LossRate(HostAddress server) const {
  auto it = servers_.find(server);
  return it != servers_.end() ? it->second.loss : 0.0;
}

Duration UpstreamTracker::RetransmitTimeout(HostAddress server, Duration fallback) const {
  auto it = servers_.find(server);
  if (it == servers_.end() || !it->second.has_sample) {
    return std::min(fallback, config_.max_rto);
  }
  Duration rto = it->second.srtt +
                 static_cast<Duration>(config_.rto_k *
                                       static_cast<double>(it->second.rttvar));
  return std::clamp(rto, config_.min_rto, config_.max_rto);
}

void UpstreamTracker::Rank(std::vector<HostAddress>& servers, Time now) {
  if (servers.size() < 2) return;
  auto key = [this, now](HostAddress server) -> std::pair<int, Duration> {
    auto it = servers_.find(server);
    if (it == servers_.end() || !it->second.has_sample) {
      // Unknown servers sort ahead of sampled ones: probing them is how the
      // tracker learns, and a fresh server cannot be worse than a dead one.
      return {IsHeldDown(server, now) ? 1 : 0, -1};
    }
    return {it->second.down_until > now ? 1 : 0, it->second.srtt};
  };
  std::stable_sort(servers.begin(), servers.end(),
                   [&key](HostAddress a, HostAddress b) { return key(a) < key(b); });
  if (config_.explore_probability > 0.0 && rng_.NextBool(config_.explore_probability)) {
    // Promote a random non-best live candidate to the front (re-probe).
    size_t live = 0;
    while (live < servers.size() && !IsHeldDown(servers[live], now)) ++live;
    if (live > 1) {
      size_t pick = 1 + static_cast<size_t>(rng_.NextBelow(live - 1));
      std::rotate(servers.begin(), servers.begin() + pick, servers.begin() + pick + 1);
    }
  }
}

void UpstreamTracker::SetHoldDownListener(
    std::function<void(HostAddress, bool, Time)> listener) {
  holddown_listener_ = std::move(listener);
}

size_t UpstreamTracker::MemoryFootprint() const {
  return servers_.size() * kServerBytes;
}

void UpstreamTracker::Purge(Time now, Duration idle) {
  servers_.EraseIf([now, idle](HostAddress, const ServerState& state) {
    return state.last_active + idle < now && state.down_until <= now;
  });
}

UpstreamTracker::DebugState UpstreamTracker::GetDebugState(Time now) const {
  DebugState state;
  state.timeouts_observed = timeouts_observed_;
  state.holddowns_entered = holddowns_entered_;
  state.servers.reserve(servers_.size());
  for (const auto& [server, ss] : servers_) {
    ServerDebugState s;
    s.server = server;
    s.srtt = ss.has_sample ? ss.srtt : 0;
    s.rttvar = ss.has_sample ? ss.rttvar : 0;
    s.loss_rate = ss.loss;
    s.consecutive_timeouts = ss.consecutive_timeouts;
    s.held_down = ss.down_until > now;
    s.down_until = ss.down_until;
    state.servers.push_back(s);
  }
  std::sort(state.servers.begin(), state.servers.end(),
            [](const ServerDebugState& a, const ServerDebugState& b) {
              return a.server < b.server;
            });
  return state;
}

}  // namespace dcc
