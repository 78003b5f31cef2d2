#include "src/attack/testbed.h"

namespace dcc {

namespace {

std::optional<telemetry::Observer> MakeObserver(telemetry::TelemetrySink* sink,
                                                telemetry::DecisionAuditLog* audit) {
  if (sink == nullptr && audit == nullptr) {
    return std::nullopt;
  }
  return std::optional<telemetry::Observer>(
      std::in_place, sink != nullptr ? &sink->metrics : nullptr,
      sink != nullptr ? &sink->trace : nullptr, audit);
}

}  // namespace

Testbed::Testbed(telemetry::TelemetrySink* sink, telemetry::DecisionAuditLog* audit)
    : observer_(MakeObserver(sink, audit)),
      loop_(observer()),
      network_(loop_, Milliseconds(1) / 2, observer()) {
  loop_.InstallLogClock();
}

Testbed::~Testbed() {
  static prof::Site kTeardownSite("scenario.testbed_teardown");
  teardown_scope_.emplace(kTeardownSite);
  if (observer_) {
    observer_->Freeze();
  }
}

AuthoritativeServer& Testbed::AddAuthoritative(HostAddress addr,
                                               AuthoritativeConfig config) {
  auto host = std::make_unique<HostNode>(network_, addr);
  auto server = std::make_unique<AuthoritativeServer>(*host, config, observer());
  host->SetHandler(server.get());
  hosts_.push_back(std::move(host));
  auths_.push_back(std::move(server));
  return *auths_.back();
}

RecursiveResolver& Testbed::AddResolver(HostAddress addr, ResolverConfig config) {
  auto host = std::make_unique<HostNode>(network_, addr);
  auto server = std::make_unique<RecursiveResolver>(*host, config, /*seed=*/addr,
                                                    observer());
  host->SetHandler(server.get());
  hosts_.push_back(std::move(host));
  resolvers_.push_back(std::move(server));
  RegisterCrashResettable(addr, resolvers_.back().get());
  return *resolvers_.back();
}

Forwarder& Testbed::AddForwarder(HostAddress addr, ForwarderConfig config) {
  auto host = std::make_unique<HostNode>(network_, addr);
  auto server = std::make_unique<Forwarder>(*host, config, /*seed=*/addr, observer());
  host->SetHandler(server.get());
  hosts_.push_back(std::move(host));
  forwarders_.push_back(std::move(server));
  RegisterCrashResettable(addr, forwarders_.back().get());
  return *forwarders_.back();
}

FleetFrontend& Testbed::AddFrontend(HostAddress addr, FrontendConfig config) {
  auto host = std::make_unique<HostNode>(network_, addr);
  auto server = std::make_unique<FleetFrontend>(*host, config, /*seed=*/addr,
                                                observer());
  host->SetHandler(server.get());
  hosts_.push_back(std::move(host));
  frontends_.push_back(std::move(server));
  RegisterCrashResettable(addr, frontends_.back().get());
  return *frontends_.back();
}

StubClient& Testbed::AddStub(HostAddress addr, StubConfig config,
                             QuestionGenerator generator) {
  auto host = std::make_unique<HostNode>(network_, addr);
  auto stub = std::make_unique<StubClient>(*host, config, std::move(generator),
                                           observer());
  host->SetHandler(stub.get());
  hosts_.push_back(std::move(host));
  stubs_.push_back(std::move(stub));
  return *stubs_.back();
}

std::pair<DccNode&, RecursiveResolver&> Testbed::AddDccResolver(
    HostAddress addr, DccConfig dcc_config, ResolverConfig config) {
  config.attach_attribution = true;
  auto shim = std::make_unique<DccNode>(network_, addr, dcc_config, observer());
  auto server = std::make_unique<RecursiveResolver>(*shim, config, /*seed=*/addr,
                                                    observer());
  shim->SetServer(server.get());
  shim->Start();
  DccNode& shim_ref = *shim;
  RecursiveResolver& server_ref = *server;
  // Dead-server hold-downs feed the capacity estimator so MOPI-FQ stops
  // offering load to blacked-out upstreams (tentpole: outage → capacity
  // collapse → bounded retry pressure).
  server_ref.upstream_tracker().SetHoldDownListener(
      [&shim_ref](HostAddress upstream, bool down, Time now) {
        shim_ref.OnUpstreamHoldDown(upstream, down, now);
      });
  dcc_nodes_.push_back(std::move(shim));
  resolvers_.push_back(std::move(server));
  RegisterCrashResettable(addr, resolvers_.back().get());
  return {shim_ref, server_ref};
}

std::pair<DccNode&, Forwarder&> Testbed::AddDccForwarder(HostAddress addr,
                                                         DccConfig dcc_config,
                                                         ForwarderConfig config) {
  config.attach_attribution = true;
  auto shim = std::make_unique<DccNode>(network_, addr, dcc_config, observer());
  auto server = std::make_unique<Forwarder>(*shim, config, /*seed=*/addr, observer());
  shim->SetServer(server.get());
  shim->Start();
  DccNode& shim_ref = *shim;
  Forwarder& server_ref = *server;
  server_ref.upstream_tracker().SetHoldDownListener(
      [&shim_ref](HostAddress upstream, bool down, Time now) {
        shim_ref.OnUpstreamHoldDown(upstream, down, now);
      });
  dcc_nodes_.push_back(std::move(shim));
  forwarders_.push_back(std::move(server));
  RegisterCrashResettable(addr, forwarders_.back().get());
  return {shim_ref, server_ref};
}

void Testbed::RegisterCrashResettable(HostAddress addr, CrashResettable* server) {
  crash_resettables_[addr] = server;
  // Cover the new server in any already-armed fault plan: injectors look
  // crash handlers up at fire time, so late registration still takes effect.
  for (auto& injector : fault_injectors_) {
    injector->SetCrashHandler(addr, [server]() { server->CrashReset(); },
                              [server]() { server->CrashRestart(); });
  }
}

fault::FaultInjector& Testbed::InstallFaultPlan(fault::FaultPlan plan) {
  auto injector =
      std::make_unique<fault::FaultInjector>(network_, std::move(plan), observer());
  for (const auto& [addr, resettable] : crash_resettables_) {
    injector->SetCrashHandler(addr, [resettable]() { resettable->CrashReset(); },
                              [resettable]() { resettable->CrashRestart(); });
  }
  injector->Arm();
  fault_injectors_.push_back(std::move(injector));
  return *fault_injectors_.back();
}

}  // namespace dcc
