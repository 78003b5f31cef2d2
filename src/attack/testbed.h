// Testbed: one-stop construction of simulated DNS topologies.
//
// Owns the event loop, network, hosts and servers, and provides builders for
// the node types used across tests, examples and benches: authoritative
// servers, vanilla and DCC-enabled resolvers/forwarders, and stub clients.
// Addresses are handed out from a flat 10.0.0.0/8-style space.

#ifndef SRC_ATTACK_TESTBED_H_
#define SRC_ATTACK_TESTBED_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/dcc/dcc_node.h"
#include "src/fault/fault_injector.h"
#include "src/server/authoritative.h"
#include "src/server/forwarder.h"
#include "src/server/frontend.h"
#include "src/server/resolver.h"
#include "src/server/stub.h"
#include "src/server/transport.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/observer.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/telemetry.h"

namespace dcc {

class Testbed {
 public:
  // Every component the testbed builds observes into `sink` and `audit`
  // (either may be nullptr) through one telemetry::Observer. Metric sources
  // read the components, so the testbed freezes the registry when it is
  // destroyed; both sinks must outlive it.
  explicit Testbed(telemetry::TelemetrySink* sink = nullptr,
                   telemetry::DecisionAuditLog* audit = nullptr);
  ~Testbed();

  EventLoop& loop() { return loop_; }
  Network& network() { return network_; }

  HostAddress NextAddress() { return next_address_++; }

  // --- vanilla hosts ---------------------------------------------------------
  AuthoritativeServer& AddAuthoritative(HostAddress addr,
                                        AuthoritativeConfig config = {});
  RecursiveResolver& AddResolver(HostAddress addr, ResolverConfig config = {});
  Forwarder& AddForwarder(HostAddress addr, ForwarderConfig config = {});
  // Fleet frontend: caller adds members, then calls Start() once wiring is
  // complete (the testbed cannot know when the member list is final).
  FleetFrontend& AddFrontend(HostAddress addr, FrontendConfig config = {});
  StubClient& AddStub(HostAddress addr, StubConfig config, QuestionGenerator generator);

  // --- DCC-enabled hosts ------------------------------------------------------
  // Wraps a RecursiveResolver with a DccNode at `addr`; attribution emission
  // is forced on in the resolver config. Returns both halves.
  std::pair<DccNode&, RecursiveResolver&> AddDccResolver(HostAddress addr,
                                                         DccConfig dcc_config,
                                                         ResolverConfig config = {});
  std::pair<DccNode&, Forwarder&> AddDccForwarder(HostAddress addr, DccConfig dcc_config,
                                                  ForwarderConfig config = {});

  // --- fault injection --------------------------------------------------------
  // Builds, wires and arms a FaultInjector for `plan`: crash handlers are
  // registered for every crash-capable server added so far, and servers
  // added afterwards are registered with the injector as they are built, so
  // install order relative to topology construction does not matter.
  // The injector observes like every other component, is owned by the
  // testbed and starts executing immediately on Arm().
  fault::FaultInjector& InstallFaultPlan(fault::FaultPlan plan);

  // Runs the simulation for `duration`; returns the number of events the
  // loop executed (scenario equivalence tests compare this).
  size_t RunFor(Duration duration) { return loop_.Run(loop_.now() + duration); }

 private:
  // The handle given to every component; nullptr when nothing observes.
  telemetry::Observer* observer() { return observer_ ? &*observer_ : nullptr; }

  // Adds `server` to the crash-reset map and registers it with every
  // already-installed fault injector.
  void RegisterCrashResettable(HostAddress addr, CrashResettable* server);

  // Opened by the destructor; declared first so it closes only after every
  // other member is gone, charging the whole teardown to one profiler site.
  std::optional<prof::ScopedSite> teardown_scope_;
  std::optional<telemetry::Observer> observer_;  // Built first: loop_ and
                                                 // network_ register with it.
  EventLoop loop_;
  Network network_;
  HostAddress next_address_ = 0x0a000001;  // 10.0.0.1

  std::vector<std::unique_ptr<HostNode>> hosts_;
  std::vector<std::unique_ptr<DccNode>> dcc_nodes_;
  std::vector<std::unique_ptr<AuthoritativeServer>> auths_;
  std::vector<std::unique_ptr<RecursiveResolver>> resolvers_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;
  std::vector<std::unique_ptr<FleetFrontend>> frontends_;
  std::vector<std::unique_ptr<StubClient>> stubs_;
  std::vector<std::unique_ptr<fault::FaultInjector>> fault_injectors_;
  // Servers that lose volatile state on a kCrash fault event, by address.
  std::unordered_map<HostAddress, CrashResettable*> crash_resettables_;
};

}  // namespace dcc

#endif  // SRC_ATTACK_TESTBED_H_
