// Scheduler abstraction for the multi-output fair-queuing (MO-FQ) problem
// (paper §4.1): messages from sources S must be dispatched to output channels
// O, each with limited capacity, such that every channel's capacity is shared
// max-min fairly among the sources using it.
//
// The production scheduler is MopiFq (src/dcc/mopi_fq.h). The baseline
// designs of Fig. 7 (input-centric, leapfrog, IO-isolated, output-centric)
// live in src/dcc/baseline_schedulers.h and implement the same interface so
// the ablation benches can swap them in.

#ifndef SRC_DCC_SCHEDULER_H_
#define SRC_DCC_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace dcc {

// A source is the client a query is attributed to; an output identifies the
// upstream server, i.e. the logical inter-server channel.
using SourceId = HostAddress;
using OutputId = HostAddress;

// One schedulable message. `cookie` is an opaque handle the caller uses to
// find its query context again on dequeue/eviction (DCC stores the id of the
// query's SlotTable entry there). Schedulers never order by it.
struct SchedMessage {
  SourceId source = 0;
  OutputId output = 0;
  Time arrival = 0;
  uint64_t cookie = 0;
};

// Enqueue outcomes, mirroring Fig. 13.
enum class EnqueueResult {
  kSuccess,
  // The source is MAX_ROUND rounds ahead of the channel's current round.
  kClientOverspeed,
  // The per-output queue is full and the message would join the latest
  // round: the channel itself is congested.
  kChannelCongested,
  // The shared entry pool is exhausted.
  kQueueOverflow,
};

const char* EnqueueResultName(EnqueueResult result);

struct EnqueueOutcome {
  EnqueueResult result = EnqueueResult::kSuccess;
  // When admitting a lower-round message required evicting one from the
  // latest round (full queue/pool), the victim is returned so the caller can
  // fail it (DCC synthesizes SERVFAIL, §3.2.1).
  std::optional<SchedMessage> evicted;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual EnqueueOutcome Enqueue(const SchedMessage& msg, Time now) = 0;

  // Picks the next message to send at `now`, honoring per-channel capacity
  // and cross-queue arrival order. Returns nullopt when nothing is ready
  // (empty, or every channel with data is congested).
  virtual std::optional<SchedMessage> Dequeue(Time now) = 0;

  // Earliest time at which Dequeue may succeed: `now` if a message is ready,
  // the earliest channel-available instant if all are congested, or
  // kTimeInfinity if nothing is queued. Drives the drain pump.
  virtual Time NextReadyTime(Time now) = 0;

  // Messages currently buffered.
  virtual size_t QueuedCount() const = 0;

  // Approximate resident bytes of all scheduler state (Fig. 10).
  virtual size_t MemoryFootprint() const = 0;

  // Sets channel `output`'s capacity in messages/second. Unset channels use
  // the scheduler's configured default.
  virtual void SetChannelCapacity(OutputId output, double qps) = 0;

  // Sets a source's relative share (Appendix B.1.3); 1.0 is the default.
  // Schedulers without weighted-share support ignore this.
  virtual void SetSourceShare(SourceId source, double share);

  // Releases state of channels with no queued messages that have been idle
  // since before `now - idle`.
  virtual void PurgeIdle(Time now, Duration idle);
};

// Reference max-min fair allocation via water filling (Appendix B.2): given
// per-source demands and a channel capacity, returns each source's allocated
// rate under equal shares. Used by fairness property tests and benches.
std::vector<double> WaterFilling(double capacity, const std::vector<double>& demands);

// Weighted variant: allocations are max-min fair with respect to
// `shares` (demand i saturates at share-proportional fill level).
std::vector<double> WeightedWaterFilling(double capacity,
                                         const std::vector<double>& demands,
                                         const std::vector<double>& shares);

}  // namespace dcc

#endif  // SRC_DCC_SCHEDULER_H_
