#include "src/server/transport.h"

#include <utility>

namespace dcc {

HostNode::HostNode(Network& network, HostAddress addr) {
  network.RegisterNode(this, addr);
}

void HostNode::OnDatagram(Datagram dgram) {
  if (handler_ != nullptr) {
    handler_->HandleDatagram(std::move(dgram));
  }
}

void HostNode::Send(uint16_t src_port, Endpoint dst, WireBytes payload) {
  SendDatagram(src_port, dst, std::move(payload));
}

}  // namespace dcc
