// Fault plans: scripted and randomized fault timelines for the simulator.
//
// A FaultPlan is an ordered list of FaultEvents on the virtual clock —
// per-link loss/latency overrides with start/end times, link flaps, network
// partitions, server blackouts and crash/restart, and datagram
// corruption/truncation. Plans are pure data: the FaultInjector (see
// fault_injector.h) schedules them on an EventLoop and applies them to a
// Network. Plans can be written by hand in a small line-oriented text format
// (ParseFaultPlan / LoadFaultPlanFile), generated from a seed
// (MakeRandomFaultPlan) for AdvNet-style randomized adversarial
// environments, or built programmatically by scenario code.
//
// Text format: one event per line, `#` comments and blank lines ignored.
//
//   seed 7
//   loss      start=5s end=10s a=* b=10.0.0.1 p=0.25
//   delay     start=5s end=8s  a=10.0.0.3 b=10.0.0.1 add=50ms
//   flap      start=0s end=20s a=10.0.0.3 b=10.0.0.1 period=2s duty=0.5
//   partition start=10s end=20s group-a=10.0.0.3 group-b=10.0.0.1,10.0.0.2
//   blackout  start=10s end=30s host=10.0.0.1
//   crash     start=15s end=25s host=10.0.0.1
//   corrupt   start=0s end=60s a=* b=* p=0.01
//   truncate  start=0s end=60s a=* b=* p=0.01
//
// Durations accept `s`, `ms`, and `us` suffixes (bare numbers are seconds);
// addresses are dotted quads, `*` is a wildcard matching any host.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace dcc {
namespace fault {

enum class FaultType {
  kLinkLoss,    // Probabilistic drop on the (a, b) link for [start, end).
  kLinkDelay,   // Extra one-way delay on the (a, b) link for [start, end).
  kLinkFlap,    // (a, b) link toggles down/up with `period` and `duty_down`.
  kPartition,   // Every link between group_a and group_b is cut.
  kBlackout,    // `host` is unreachable for [start, end).
  kCrash,       // Like blackout, but the host also loses in-flight state.
  kCorruption,  // Datagrams matching (a, b) have bytes flipped with prob. p.
  kTruncation,  // Datagrams matching (a, b) are shortened with prob. p.
};

inline constexpr int kFaultTypeCount = 8;

const char* FaultTypeName(FaultType type);

// Wildcard endpoint in link-scoped events ("any host").
inline constexpr HostAddress kAnyHost = kInvalidAddress;

struct FaultEvent {
  FaultType type = FaultType::kLinkLoss;
  Time start = 0;
  Time end = 0;  // Exclusive; events with end <= start are rejected.

  // Link-scoped events (loss/delay/flap/corruption/truncation): the (a, b)
  // endpoints, either of which may be kAnyHost. Host-scoped events
  // (blackout/crash) use `a` as the host. Partitions use the groups instead.
  HostAddress a = kAnyHost;
  HostAddress b = kAnyHost;
  std::vector<HostAddress> group_a;
  std::vector<HostAddress> group_b;

  double probability = 0.0;   // Loss / corruption / truncation probability.
  Duration delay = 0;         // Extra one-way delay (kLinkDelay).
  Duration period = 0;        // Full flap cycle length (kLinkFlap).
  double duty_down = 0.5;     // Fraction of each flap cycle spent down.
};

struct FaultPlan {
  // Seeds the injector's RNG (corruption byte choice, truncation lengths,
  // probabilistic drops). Same plan + same seed => identical fault stream.
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

// Parses the text format described above. On failure returns false and, if
// `error` is non-null, stores a "line N: reason" message.
bool ParseFaultPlan(const std::string& text, FaultPlan* plan, std::string* error);

// Reads `path` and parses it. Returns false on I/O or parse errors.
bool LoadFaultPlanFile(const std::string& path, FaultPlan* plan, std::string* error);

// Serializes `plan` back into the text format (round-trips via
// ParseFaultPlan).
std::string FormatFaultPlan(const FaultPlan& plan);

// Options for generated adversarial fault timelines: `events_per_minute`
// faults with exponentially distributed start gaps and durations of mean
// `mean_duration`, drawn over the given hosts with the per-class weights.
struct RandomFaultOptions {
  uint64_t seed = 1;
  Duration horizon = Seconds(60);
  std::vector<HostAddress> hosts;
  double events_per_minute = 6.0;
  Duration mean_duration = Seconds(3);
  double weight_loss = 1.0;
  double weight_delay = 1.0;
  double weight_flap = 1.0;
  double weight_blackout = 1.0;
  double weight_corrupt = 0.5;
};

FaultPlan MakeRandomFaultPlan(const RandomFaultOptions& options);

}  // namespace fault
}  // namespace dcc

#endif  // SRC_FAULT_FAULT_PLAN_H_
