#include "src/fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace dcc {
namespace fault {
namespace {

bool MatchEndpoint(HostAddress pattern, HostAddress addr) {
  return pattern == kAnyHost || pattern == addr;
}

// Link-scoped events match either direction of the (a, b) pair.
bool MatchLink(const FaultEvent& event, HostAddress src, HostAddress dst) {
  return (MatchEndpoint(event.a, src) && MatchEndpoint(event.b, dst)) ||
         (MatchEndpoint(event.a, dst) && MatchEndpoint(event.b, src));
}

}  // namespace

FaultInjector::FaultInjector(Network& network, FaultPlan plan,
                             telemetry::Observer* obs)
    : network_(network),
      plan_(std::move(plan)),
      rng_(plan_.seed),
      active_(plan_.events.size(), false),
      flap_down_(plan_.events.size(), false),
      obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  const char* help = "Datagrams affected by injected faults";
  obs_->Count("fault_datagrams_total", {{"effect", "dropped"}}, help,
              &datagrams_dropped_);
  obs_->Count("fault_datagrams_total", {{"effect", "corrupted"}}, help,
              &datagrams_corrupted_);
  obs_->Count("fault_datagrams_total", {{"effect", "truncated"}}, help,
              &datagrams_truncated_);
  obs_->Count("fault_datagrams_total", {{"effect", "delayed"}}, help,
              &datagrams_delayed_);
}

FaultInjector::~FaultInjector() {
  if (armed_) {
    network_.SetFaultHook(nullptr);
  }
}

void FaultInjector::Arm() {
  if (armed_) return;
  armed_ = true;
  network_.SetFaultHook(this);
  EventLoop& loop = network_.loop();
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    loop.ScheduleAt(event.start, "fault.activate", [this, i] { Activate(i); });
    loop.ScheduleAt(event.end, "fault.deactivate", [this, i] { Deactivate(i); });
  }
}

void FaultInjector::SetCrashHandler(HostAddress host, std::function<void()> on_crash,
                                    std::function<void()> on_restart) {
  crash_handlers_[host] = {std::move(on_crash), std::move(on_restart)};
}

void FaultInjector::Activate(size_t index) {
  if (active_[index]) return;
  active_[index] = true;
  ++activations_;
  const FaultEvent& event = plan_.events[index];
  uint64_t& of_type = type_activations_[static_cast<int>(event.type)];
  ++of_type;
  DCC_LOG_INFO("fault %s active t=[%.3fs, %.3fs)", FaultTypeName(event.type),
               ToSeconds(event.start), ToSeconds(event.end));
  if (obs_ != nullptr) {
    if (of_type == 1) {
      obs_->Count("fault_events_total", {{"type", FaultTypeName(event.type)}},
                  "Fault events by type (one per activation)", &of_type);
    }
    obs_->Decide({.cause = telemetry::AuditCause::kFaultActivated,
                  .at = network_.loop().now(),
                  .channel = event.a == kAnyHost ? 0 : event.a,
                  .observed = ToSeconds(event.start),
                  .limit = ToSeconds(event.end),
                  .qname = FaultTypeName(event.type)});
  }
  switch (event.type) {
    case FaultType::kBlackout:
      network_.SetHostDown(event.a, true);
      break;
    case FaultType::kCrash: {
      network_.SetHostDown(event.a, true);
      auto it = crash_handlers_.find(event.a);
      if (it != crash_handlers_.end() && it->second.first) {
        it->second.first();
      }
      break;
    }
    case FaultType::kPartition:
      SetPartition(event, true);
      break;
    case FaultType::kLinkFlap:
      FlapTick(index, /*going_down=*/true);
      break;
    default:
      break;  // Per-datagram effects, applied in OnDatagram.
  }
}

void FaultInjector::Deactivate(size_t index) {
  if (!active_[index]) return;
  active_[index] = false;
  flap_down_[index] = false;
  const FaultEvent& event = plan_.events[index];
  switch (event.type) {
    case FaultType::kBlackout:
      network_.SetHostDown(event.a, false);
      break;
    case FaultType::kCrash: {
      network_.SetHostDown(event.a, false);
      auto it = crash_handlers_.find(event.a);
      if (it != crash_handlers_.end() && it->second.second) {
        it->second.second();
      }
      break;
    }
    case FaultType::kPartition:
      SetPartition(event, false);
      break;
    default:
      break;
  }
}

void FaultInjector::FlapTick(size_t index, bool going_down) {
  if (!active_[index]) return;
  const FaultEvent& event = plan_.events[index];
  EventLoop& loop = network_.loop();
  if (loop.now() >= event.end) {
    flap_down_[index] = false;
    return;
  }
  flap_down_[index] = going_down;
  double fraction = going_down ? event.duty_down : 1.0 - event.duty_down;
  Duration phase = static_cast<Duration>(fraction * static_cast<double>(event.period));
  if (phase < 1) phase = 1;
  loop.ScheduleAfter(phase, "fault.flap",
                     [this, index, going_down] { FlapTick(index, !going_down); });
}

void FaultInjector::SetPartition(const FaultEvent& event, bool down) {
  for (HostAddress a : event.group_a) {
    for (HostAddress b : event.group_b) {
      network_.SetLinkDown(a, b, down);
    }
  }
}

NetworkFaultHook::Verdict FaultInjector::OnDatagram(const Endpoint& src,
                                                    const Endpoint& dst,
                                                    WireBytes& payload) {
  Verdict verdict;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (!active_[i]) continue;
    const FaultEvent& event = plan_.events[i];
    switch (event.type) {
      case FaultType::kLinkLoss:
        if (MatchLink(event, src.addr, dst.addr) && rng_.NextBool(event.probability)) {
          verdict.drop = true;
        }
        break;
      case FaultType::kLinkFlap:
        if (flap_down_[i] && MatchLink(event, src.addr, dst.addr)) {
          verdict.drop = true;
        }
        break;
      case FaultType::kLinkDelay:
        if (MatchLink(event, src.addr, dst.addr)) {
          verdict.extra_delay += event.delay;
        }
        break;
      case FaultType::kCorruption:
        if (MatchLink(event, src.addr, dst.addr) && !payload.empty() &&
            rng_.NextBool(event.probability)) {
          // Flip one to three random bytes; the receiving codec must treat
          // the result as any other malformed datagram. Mutable() clones the
          // buffer when shared, so cached retransmit copies stay pristine.
          std::vector<uint8_t>& bytes = payload.Mutable();
          uint64_t flips = 1 + rng_.NextBelow(3);
          for (uint64_t f = 0; f < flips; ++f) {
            size_t pos = static_cast<size_t>(rng_.NextBelow(bytes.size()));
            bytes[pos] ^= static_cast<uint8_t>(1 + rng_.NextBelow(255));
          }
          ++datagrams_corrupted_;
        }
        break;
      case FaultType::kTruncation:
        // The draw comes first: reading a carried message's size encodes it.
        if (MatchLink(event, src.addr, dst.addr) && rng_.NextBool(event.probability) &&
            payload.size() > 1) {
          payload.Mutable().resize(
              1 + static_cast<size_t>(rng_.NextBelow(payload.size() - 1)));
          ++datagrams_truncated_;
        }
        break;
      default:
        break;
    }
  }
  if (verdict.drop) {
    ++datagrams_dropped_;
  } else if (verdict.extra_delay > 0) {
    ++datagrams_delayed_;
  }
  return verdict;
}

}  // namespace fault
}  // namespace dcc
