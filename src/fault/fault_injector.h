// FaultInjector: executes a FaultPlan against a simulated Network.
//
// Arm() installs the injector as the network's fault hook and schedules every
// event's activation/deactivation on the event loop (virtual clock). Host
// blackouts and crashes use Network::SetHostDown; partitions cut concrete
// link pairs via Network::SetLinkDown; link loss windows, latency spikes,
// flap down-phases, and datagram corruption/truncation are applied per
// datagram through the NetworkFaultHook seam (which supports `*` wildcard
// endpoints). All randomized decisions flow through an Rng seeded from
// FaultPlan::seed, so a given plan replays bit-for-bit.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/fault_plan.h"
#include "src/sim/network.h"
#include "src/telemetry/observer.h"

namespace dcc {
namespace fault {

class FaultInjector : public NetworkFaultHook {
 public:
  // With an observer, per-effect datagram tallies export as
  // fault_datagrams_total{effect=dropped|corrupted|truncated|delayed}, and
  // every event activation is decided as `fault.activated` and counted in
  // fault_events_total{type=...}.
  FaultInjector(Network& network, FaultPlan plan,
                telemetry::Observer* obs = nullptr);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs the network hook and schedules all plan events. Call once,
  // before (or at) the virtual time of the earliest event.
  void Arm();

  // Registers callbacks for kCrash events on `host`: `on_crash` runs when
  // the crash starts (the server should drop its in-flight state there) and
  // `on_restart` when the host comes back.
  void SetCrashHandler(HostAddress host, std::function<void()> on_crash,
                       std::function<void()> on_restart = nullptr);

  Verdict OnDatagram(const Endpoint& src, const Endpoint& dst,
                     WireBytes& payload) override;

  const FaultPlan& plan() const { return plan_; }
  uint64_t activations() const { return activations_; }
  uint64_t datagrams_dropped() const { return datagrams_dropped_; }
  uint64_t datagrams_corrupted() const { return datagrams_corrupted_; }
  uint64_t datagrams_truncated() const { return datagrams_truncated_; }

 private:
  void Activate(size_t index);
  void Deactivate(size_t index);
  void FlapTick(size_t index, bool going_down);
  void SetPartition(const FaultEvent& event, bool down);

  Network& network_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  std::vector<bool> active_;     // Event currently in its [start, end) window.
  std::vector<bool> flap_down_;  // Flap event currently in a down phase.
  std::unordered_map<HostAddress, std::pair<std::function<void()>, std::function<void()>>>
      crash_handlers_;

  uint64_t activations_ = 0;
  uint64_t datagrams_dropped_ = 0;
  uint64_t datagrams_corrupted_ = 0;
  uint64_t datagrams_truncated_ = 0;
  uint64_t datagrams_delayed_ = 0;
  uint64_t type_activations_[kFaultTypeCount] = {};

  telemetry::Observer* obs_;
};

}  // namespace fault
}  // namespace dcc

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
