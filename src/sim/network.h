// Simulated datagram network.
//
// Nodes register under a HostAddress and exchange UDP-like datagrams carrying
// DNS messages (src/common/wire_bytes.h: the sender's message itself, or
// bytes where a fault rewrote them). Delivery latency defaults to a configurable
// one-way delay (the paper's testbed RTT between resolver and nameserver is
// ~1 ms) and can be overridden per address pair; optional loss injects
// failures for robustness tests.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/common/wire_bytes.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/observer.h"

namespace dcc {

struct Datagram {
  Endpoint src;
  Endpoint dst;
  // Refcounted: retransmissions share one block with the sender's cache.
  // The receiver owns the datagram and takes the message out of it.
  WireBytes payload;
};

class Network;

// Per-datagram fault seam consulted by Network::Send before its own loss and
// delay model. The fault layer (src/fault) implements this to apply scripted
// loss windows, latency spikes, and payload corruption/truncation. The hook
// may mutate the payload via WireBytes::Mutable(), which encodes a carried
// message and turns the payload into bytes — copy-on-write, so a shared
// retransmit payload is cloned before the edit and other holders are
// unaffected. A returned `drop` discards the datagram and `extra_delay` is
// added on top of the pair delay + jitter.
class NetworkFaultHook {
 public:
  virtual ~NetworkFaultHook() = default;

  struct Verdict {
    bool drop = false;
    Duration extra_delay = 0;
  };

  virtual Verdict OnDatagram(const Endpoint& src, const Endpoint& dst,
                             WireBytes& payload) = 0;
};

// Base class for simulated hosts. Subclasses implement OnDatagram and use
// SendDatagram to transmit. Attach() is called by Network::RegisterNode.
class Node {
 public:
  virtual ~Node() = default;

  virtual void OnDatagram(Datagram dgram) = 0;

  HostAddress address() const { return address_; }

 protected:
  void SendDatagram(uint16_t src_port, Endpoint dst, WireBytes payload);

  EventLoop& loop();
  Time now() const;

 private:
  friend class Network;
  Network* network_ = nullptr;
  EventLoop* loop_ = nullptr;
  HostAddress address_ = kInvalidAddress;
};

class Network {
 public:
  // With an observer, per-outcome datagram counts (delivered /
  // dropped_loss / dropped_host_down / dropped_link_down / dropped_fault /
  // dropped_unknown_dst) export as `net_datagrams_total` and delivery delays
  // feed `net_delivery_delay_us`.
  explicit Network(EventLoop& loop,
                   Duration default_one_way_delay = Milliseconds(1) / 2,
                   telemetry::Observer* obs = nullptr);

  // Registers `node` (not owned) at `addr`. Overwrites any prior binding.
  void RegisterNode(Node* node, HostAddress addr);
  void UnregisterNode(HostAddress addr);

  // Sends a datagram; delivery is scheduled after the pair's one-way delay,
  // subject to the loss probability. Datagrams to unknown addresses vanish
  // (like real UDP).
  void Send(Endpoint src, Endpoint dst, WireBytes payload);

  // Overrides the one-way delay for the (a, b) pair, both directions.
  void SetPairDelay(HostAddress a, HostAddress b, Duration one_way);

  // Global probability in [0,1] that any datagram is dropped.
  //
  // Determinism contract: the drop decision stream is produced by a dedicated
  // RNG seeded with `seed`. Changing only `p` (e.g. ramping loss up and down
  // mid-run) continues the existing stream, so a run remains a deterministic
  // function of the initial seed; passing a *different* seed restarts the
  // stream from that seed. Re-passing the current seed is a no-op for the
  // RNG state — it does NOT replay earlier drop decisions.
  void SetLossProbability(double p, uint64_t seed = 42);

  // Adds uniform random jitter in [0, max_jitter) to every delivery delay,
  // modeling real-network delay variance (the paper's testbed RTTs vary by
  // fractions of a millisecond).
  void SetDelayJitter(Duration max_jitter, uint64_t seed = 43);

  // Cuts or restores connectivity for `addr` (simulates host outage).
  void SetHostDown(HostAddress addr, bool down);
  bool IsHostDown(HostAddress addr) const;

  // Cuts or restores the (a, b) link, both directions. Independent from
  // SetHostDown: a link can be down while both endpoints stay reachable via
  // other links (flaps, partitions).
  void SetLinkDown(HostAddress a, HostAddress b, bool down);
  bool IsLinkDown(HostAddress a, HostAddress b) const;

  // Installs the fault-injection hook (not owned; nullptr detaches). The
  // hook sees every datagram after the host/link down checks and before the
  // loss/delay model.
  void SetFaultHook(NetworkFaultHook* hook) { fault_hook_ = hook; }

  EventLoop& loop() { return loop_; }

  uint64_t datagrams_sent() const { return datagrams_sent_; }
  uint64_t datagrams_dropped() const;

 private:
  // What became of a sent datagram (the `outcome` label values).
  enum Fate {
    kDelivered,
    kDroppedLoss,
    kDroppedHostDown,
    kDroppedLinkDown,
    kDroppedFault,
    kDroppedUnknownDst,
    kFateCount,
  };

  Duration DelayFor(HostAddress a, HostAddress b) const;

  EventLoop& loop_;
  Duration default_delay_;
  FlatMap<HostAddress, Node*> nodes_;
  FlatMap<uint64_t, Duration> pair_delay_;
  FlatMap<HostAddress, bool> host_down_;
  FlatMap<uint64_t, bool> link_down_;
  NetworkFaultHook* fault_hook_ = nullptr;
  double loss_probability_ = 0.0;
  uint64_t loss_seed_ = 42;
  Rng loss_rng_{42};
  Duration max_jitter_ = 0;
  uint64_t jitter_seed_ = 43;
  Rng jitter_rng_{43};
  uint64_t datagrams_sent_ = 0;
  uint64_t fates_[kFateCount] = {};

  telemetry::Observer* obs_;
  telemetry::Observer::InstrumentId delay_histogram_ = 0;
};

}  // namespace dcc

#endif  // SRC_SIM_NETWORK_H_
