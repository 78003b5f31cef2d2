// Transport seam between DNS server logic and the simulated network.
//
// Server classes (authoritative, resolver, forwarder, stub) are written
// against `Transport` instead of the network directly. `HostNode` is the
// plain binding used for vanilla deployments; the DCC shim
// (src/dcc/dcc_node.h) implements the same interface to interpose on a
// resolver's I/O without the resolver knowing — the paper's non-invasive
// architecture (§3.2, Fig. 5).

#ifndef SRC_SERVER_TRANSPORT_H_
#define SRC_SERVER_TRANSPORT_H_

#include <cstdint>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace dcc {

// The standard DNS port used throughout the simulation.
inline constexpr uint16_t kDnsPort = 53;

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends a datagram from local `src_port` to `dst`: the one send entry.
  // Servers pass WireBytes(std::move(msg)), which carries the message
  // itself. A retransmit path may keep a copy of the payload and pass it
  // again; copies share one block.
  virtual void Send(uint16_t src_port, Endpoint dst, WireBytes payload) = 0;

  virtual Time now() const = 0;
  virtual EventLoop& loop() = 0;
  virtual HostAddress local_address() const = 0;
};

// A server's datagram-handling half; HostNode and the DCC shim deliver
// incoming traffic through this, the one receive entry. The handler owns
// `dgram`: it takes the message out (dgram.payload.Take<Message>()) or, if
// it keeps nothing of it, reads it in place (Get<Message>()). Either decodes
// only a payload that is bytes.
class DatagramHandler {
 public:
  virtual ~DatagramHandler() = default;
  virtual void HandleDatagram(Datagram dgram) = 0;
};

// Optional interface for servers whose volatile state can be wiped by the
// fault layer's crash/restart events (the host loses its in-flight queries
// and in-memory cache, as a real process restart would).
class CrashResettable {
 public:
  virtual ~CrashResettable() = default;
  virtual void CrashReset() = 0;

  // Called when the host comes back up after a crash window. Servers that
  // stop periodic work (probes, rotation timers) in CrashReset re-arm it
  // here; the default keeps legacy servers untouched.
  virtual void CrashRestart() {}
};

// Plain host: binds one handler to one address on the network.
class HostNode : public Node, public Transport {
 public:
  HostNode(Network& network, HostAddress addr);

  void SetHandler(DatagramHandler* handler) { handler_ = handler; }

  // Node:
  void OnDatagram(Datagram dgram) override;

  // Transport:
  void Send(uint16_t src_port, Endpoint dst, WireBytes payload) override;
  Time now() const override { return Node::now(); }
  EventLoop& loop() override { return Node::loop(); }
  HostAddress local_address() const override { return address(); }

 private:
  DatagramHandler* handler_ = nullptr;
};

}  // namespace dcc

#endif  // SRC_SERVER_TRANSPORT_H_
