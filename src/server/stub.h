// Stub client / load generator.
//
// Sends paced queries with a pluggable name generator (the WC/NX/CQ/FF
// patterns live in src/attack), tracks cumulative sent/success/failure
// counters and latency, and optionally reacts to DCC signals
// (DCC-awareness, §3.3): switching resolvers on congestion signals and
// pausing on policing signals. Per-second series (Fig. 8's "effective QPS")
// come from a telemetry::TimeSeriesSampler counter probe on `succeeded()` —
// see src/attack/scenarios.cc for the wiring.

#ifndef SRC_SERVER_STUB_H_
#define SRC_SERVER_STUB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/stats.h"
#include "src/dns/message.h"
#include "src/server/transport.h"
#include "src/telemetry/observer.h"

namespace dcc {

// Produces the i-th question this client asks.
using QuestionGenerator = std::function<Question(uint64_t seq)>;

struct StubConfig {
  Time start = 0;
  Time stop = Seconds(60);
  double qps = 1.0;
  Duration timeout = Seconds(2);
  // Additional attempts after a failure (timeout or SERVFAIL/REFUSED), each
  // directed at the next configured resolver — the retry behaviour behind
  // the Fig. 4(b) observation that redundant resolvers both congest.
  int retries = 0;
  // React to DCC congestion/policing signals.
  bool dcc_aware = false;
  // Spread first attempts round-robin over the configured resolvers instead
  // of always starting at the preferred one.
  bool rotate_resolvers = false;
};

class StubClient : public DatagramHandler {
 public:
  // With an observer, per-client request/outcome tallies export as
  // `stub_*{client=<addr>}` counters, successful latencies feed a histogram,
  // and every attempt and response stamps a stub_send / client_receive span.
  StubClient(Transport& transport, StubConfig config, QuestionGenerator generator,
             telemetry::Observer* obs = nullptr);

  void AddResolver(HostAddress resolver);

  // Schedules the paced sending between config.start and config.stop, as
  // one event-loop series: only the next launch is pending at any time.
  void Start();

  // Alternative to Start(): sends at the given explicit times (trace
  // replay); request i uses the generator's question for sequence i.
  void StartWithSchedule(const std::vector<Time>& times);

  void HandleDatagram(Datagram dgram) override;

  // Client queries launched by every StubClient on this thread (each
  // simulation runs on one thread), whether sent or skipped while policed;
  // retries are not new queries. The bench harness divides per-bench costs
  // by deltas of it.
  static uint64_t TotalQueriesLaunched();

  // --- results -------------------------------------------------------------
  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t succeeded() const { return succeeded_; }
  // Requests that timed out or failed, plus those skipped while policed.
  uint64_t failed() const { return failed_ + skipped_policed_; }
  double SuccessRatio() const;
  const Histogram& latency() const { return latency_; }
  uint64_t congestion_signals_seen() const { return congestion_signals_seen_; }
  uint64_t policing_signals_seen() const { return policing_signals_seen_; }
  uint64_t anomaly_signals_seen() const { return anomaly_signals_seen_; }
  uint64_t extended_errors_seen() const { return extended_errors_seen_; }

 private:
  struct Pending {
    uint64_t seq = 0;
    Time sent_at = 0;
    int attempts_left = 0;
    size_t resolver_index = 0;
    EventId timer;  // The current attempt's timeout.
  };

  void LaunchRequest();
  void SendAttempt(uint16_t port);
  void OnTimeout(uint16_t port);
  void Finish(uint16_t port, bool success, Time now);
  // A free local port, or nullopt when every one is in use.
  std::optional<uint16_t> AllocatePort();

  Transport& transport_;
  StubConfig config_;
  QuestionGenerator generator_;
  std::vector<HostAddress> resolvers_;
  FlatMap<uint16_t, Pending> pending_;
  size_t preferred_resolver_ = 0;  // Shifted by DCC-aware congestion handling.
  Time paused_until_ = 0;          // Set by DCC-aware policing handling.
  uint64_t next_seq_ = 0;
  uint16_t next_port_ = 10000;

  uint64_t requests_sent_ = 0;
  uint64_t succeeded_ = 0;
  uint64_t failed_ = 0;           // Requests that ended unsuccessfully.
  uint64_t skipped_policed_ = 0;  // Requests not sent while policed.
  Histogram latency_;
  uint64_t congestion_signals_seen_ = 0;
  uint64_t policing_signals_seen_ = 0;
  uint64_t anomaly_signals_seen_ = 0;
  uint64_t extended_errors_seen_ = 0;

  telemetry::Observer* obs_;
  telemetry::Observer::InstrumentId latency_histogram_ = 0;
};

}  // namespace dcc

#endif  // SRC_SERVER_STUB_H_
