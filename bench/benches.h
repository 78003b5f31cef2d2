// Entry points of the scenario benches, one per historical bench_*.cc
// binary. Each prints its tables to stdout (the unified runner silences
// that unless --verbose) and returns 0 on success. All respect
// BenchOptions::quick by trimming sweep points / seeds / operation counts.
// The Fig. 4/8/9 benches start from the committed paper-figure specs under
// examples/scenarios/ and vary only their own figure's comparison axis.

#ifndef BENCH_BENCHES_H_
#define BENCH_BENCHES_H_

#include <string>

#include "bench/harness.h"
#include "src/scenario/engine.h"
#include "src/scenario/spec.h"

namespace dcc {
namespace bench {

// Loads examples/scenarios/<name> from the source tree. A bench cannot run
// without its spec, so a missing or malformed file aborts with the error.
scenario::ScenarioSpec LoadExampleSpec(const std::string& name);

// Runs `spec`; a spec that fails validation aborts with the error.
scenario::ScenarioOutcome MustRunSpec(const scenario::ScenarioSpec& spec,
                                      const scenario::EngineHooks& hooks = {});

int RunFig2RlMeasurement(const BenchOptions& options);
int RunFig4Validation(const BenchOptions& options);
int RunFig8Resilience(const BenchOptions& options);
int RunFig9Signaling(const BenchOptions& options);
int RunFig10Overhead(const BenchOptions& options);
int RunFig11Latency(const BenchOptions& options);
int RunAblationFairness(const BenchOptions& options);
int RunAblationSchedulers(const BenchOptions& options);
int RunAblationNsec(const BenchOptions& options);
int RunFleet(const BenchOptions& options);

// Prints every client's per-second effective QPS (every other second), the
// Fig. 8/9 table. With an FF attacker its column is the load it lands on the
// first measured authoritative instead (the Fig. 8 caption).
void PrintClientSeries(const scenario::ScenarioOutcome& result, bool ff_attacker);

}  // namespace bench
}  // namespace dcc

#endif  // BENCH_BENCHES_H_
