#include "src/sim/network.h"

#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

uint64_t PairKey(HostAddress a, HostAddress b) {
  if (a > b) {
    std::swap(a, b);
  }
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

void Node::SendDatagram(uint16_t src_port, Endpoint dst, WireBytes payload) {
  network_->Send(Endpoint{address_, src_port}, dst, std::move(payload));
}

EventLoop& Node::loop() { return *loop_; }
Time Node::now() const { return loop_->now(); }

Network::Network(EventLoop& loop, Duration default_one_way_delay,
                 telemetry::Observer* obs)
    : loop_(loop), default_delay_(default_one_way_delay), obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  static constexpr const char* kFateNames[kFateCount] = {
      "delivered",         "dropped_loss",  "dropped_host_down",
      "dropped_link_down", "dropped_fault", "dropped_unknown_dst"};
  for (int fate = 0; fate < kFateCount; ++fate) {
    obs_->Count("net_datagrams_total", {{"outcome", kFateNames[fate]}},
                "Datagrams by delivery outcome", &fates_[fate]);
  }
  delay_histogram_ = obs_->Histogram("net_delivery_delay_us", {},
                                     "One-way delivery delay incl. jitter");
}

uint64_t Network::datagrams_dropped() const {
  uint64_t dropped = 0;
  for (int fate = kDroppedLoss; fate < kFateCount; ++fate) {
    dropped += fates_[fate];
  }
  return dropped;
}

void Network::RegisterNode(Node* node, HostAddress addr) {
  node->network_ = this;
  node->loop_ = &loop_;
  node->address_ = addr;
  nodes_[addr] = node;
}

void Network::UnregisterNode(HostAddress addr) { nodes_.erase(addr); }

Duration Network::DelayFor(HostAddress a, HostAddress b) const {
  auto it = pair_delay_.find(PairKey(a, b));
  return it != pair_delay_.end() ? it->second : default_delay_;
}

void Network::Send(Endpoint src, Endpoint dst, WireBytes payload) {
  DCC_PROF_SCOPE("net.send");
  ++datagrams_sent_;
  prof::CountPayloadHop();
  auto down = [this](HostAddress addr) {
    auto it = host_down_.find(addr);
    return it != host_down_.end() && it->second;
  };
  if (down(src.addr) || down(dst.addr)) {
    ++fates_[kDroppedHostDown];
    return;
  }
  if (IsLinkDown(src.addr, dst.addr)) {
    ++fates_[kDroppedLinkDown];
    return;
  }
  Duration fault_delay = 0;
  if (fault_hook_ != nullptr) {
    NetworkFaultHook::Verdict verdict = fault_hook_->OnDatagram(src, dst, payload);
    if (verdict.drop) {
      ++fates_[kDroppedFault];
      return;
    }
    fault_delay = verdict.extra_delay;
  }
  if (loss_probability_ > 0.0 && loss_rng_.NextBool(loss_probability_)) {
    ++fates_[kDroppedLoss];
    return;
  }
  Duration delay = DelayFor(src.addr, dst.addr) + fault_delay;
  if (max_jitter_ > 0) {
    delay += static_cast<Duration>(jitter_rng_.NextBelow(static_cast<uint64_t>(max_jitter_)));
  }
  if (obs_ != nullptr) {
    obs_->Observe(delay_histogram_, static_cast<double>(delay));
  }
  loop_.ScheduleAfter(delay, "net.deliver", [this, src, dst, payload = std::move(payload)]() mutable {
    auto it = nodes_.find(dst.addr);
    if (it == nodes_.end()) {
      ++fates_[kDroppedUnknownDst];
      DCC_LOG_DEBUG("datagram to unknown host %s dropped", FormatAddress(dst.addr).c_str());
      return;
    }
    ++fates_[kDelivered];
    it->second->OnDatagram(Datagram{src, dst, std::move(payload)});
  });
}

void Network::SetPairDelay(HostAddress a, HostAddress b, Duration one_way) {
  pair_delay_[PairKey(a, b)] = one_way;
}

void Network::SetLossProbability(double p, uint64_t seed) {
  loss_probability_ = p;
  // Only reseed when the seed actually changes: reconfiguring the probability
  // mid-run (fault windows ramping loss up/down) must continue the existing
  // decision stream, not replay it from the start.
  if (seed != loss_seed_) {
    loss_seed_ = seed;
    loss_rng_ = Rng(seed);
  }
}

void Network::SetDelayJitter(Duration max_jitter, uint64_t seed) {
  max_jitter_ = max_jitter;
  // Same contract as SetLossProbability: adjusting the jitter bound mid-run
  // continues the stream; only a new seed restarts it.
  if (seed != jitter_seed_) {
    jitter_seed_ = seed;
    jitter_rng_ = Rng(seed);
  }
}

void Network::SetHostDown(HostAddress addr, bool down) { host_down_[addr] = down; }

bool Network::IsHostDown(HostAddress addr) const {
  auto it = host_down_.find(addr);
  return it != host_down_.end() && it->second;
}

void Network::SetLinkDown(HostAddress a, HostAddress b, bool down) {
  link_down_[PairKey(a, b)] = down;
}

bool Network::IsLinkDown(HostAddress a, HostAddress b) const {
  auto it = link_down_.find(PairKey(a, b));
  return it != link_down_.end() && it->second;
}

}  // namespace dcc
