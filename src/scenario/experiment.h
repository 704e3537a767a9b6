#ifndef PDM_SCENARIO_EXPERIMENT_H_
#define PDM_SCENARIO_EXPERIMENT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "market/runner.h"
#include "market/simulator.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

/// \file
/// The experiment driver: lowers declarative `ScenarioSpec`s onto
/// `SimulationJob`s, executes them on the thread-pooled `SimulationRunner`,
/// and serializes the batch as one machine-readable `pdm.run.v1` JSON
/// document. This is the engine behind `bench/pdm_run` and the thin
/// spec-driven bench binaries; outcomes are bit-identical to hand-wiring the
/// same (stream, engine, seed) by hand (DESIGN.md §4).

namespace pdm::scenario {

struct RunOptions {
  /// Scenario worker threads; 0 picks the hardware default, 1 runs the
  /// scenarios serially (what timing-sensitive benches use so scenarios
  /// don't contend). Workload synthesis in `Prepare` uses every core either
  /// way.
  int num_threads = 0;
  /// > 0 caps every spec's horizon (and, for streams whose dataset size
  /// tracks the horizon, the dataset) — the CI smoke-grid knob.
  int64_t max_rounds = 0;
};

/// One executed scenario: the spec it came from plus the simulation outcome.
struct ScenarioOutcome {
  ScenarioSpec spec;
  /// Name reported by the constructed engine ("ellipsoid[reserve]"-style).
  std::string engine_name;
  SimulationResult result;
  /// Wall time of this row's `StreamFactory::Prepare` call: the workload
  /// synthesis or offline fit it triggered, ≈ 0 when an earlier row already
  /// prepared the same workload key.
  double prepare_seconds = 0.0;
  /// Process VmRSS after the batch completed (process-level, not
  /// per-scenario: concurrent scenarios share the address space).
  int64_t rss_bytes = 0;
};

class ExperimentDriver {
 public:
  explicit ExperimentDriver(const RunOptions& options = {});

  /// Runs every spec (after applying the `max_rounds` cap) and returns
  /// outcomes index-aligned with `specs`. Shared workloads are prepared
  /// once per distinct (workload, seed) key, one key at a time, before any
  /// scenario worker starts; then scenarios execute concurrently. Invalid
  /// specs abort with a diagnostic.
  std::vector<ScenarioOutcome> Run(const std::vector<ScenarioSpec>& specs);

  /// The factory holding the prepared workloads of every Run so far —
  /// benches read offline-phase artifacts (test MSE, FTRL log-loss, θ*)
  /// through it.
  const StreamFactory& factory() const { return factory_; }

  /// The spec actually executed for `spec` once the cap is applied.
  ScenarioSpec Capped(const ScenarioSpec& spec) const;

 private:
  RunOptions options_;
  StreamFactory factory_;
};

/// Metadata header of a pdm.run.v1 document.
struct RunMetadata {
  /// Emitting binary ("pdm_run", "bench_throughput").
  std::string generator;
  /// The scenario selection that produced the batch (CLI globs).
  std::string selection;
  int64_t max_rounds = 0;
  int num_threads = 0;
  /// Also emit each outcome's regret series (round, cumulative regret,
  /// regret ratio) — only series the specs recorded are available.
  bool include_series = false;
};

/// Writes the batch as one `pdm.run.v1` JSON document. The per-result rows
/// are a superset of `pdm.bench_throughput.v1`'s (scenario/variant/dim/
/// rounds/wall_seconds/rounds_per_sec/ns_per_round/rss_bytes), adding the
/// row's `prepare_seconds`, the spec coordinates (stream, mechanism, link, seeds, δ), the regret
/// accounting (cumulative regret/value, ratios, sales, Table-I stats), and
/// the engine counters. Schema documented in DESIGN.md §8.
void WriteRunJson(std::ostream& os, const RunMetadata& meta,
                  const std::vector<ScenarioOutcome>& outcomes);

/// Renders outcomes through the runner's fixed-width comparison table.
void PrintOutcomeTable(const std::vector<ScenarioOutcome>& outcomes, std::ostream& os);

/// Checkpoint rounds for figure-style series: `per_decade` log-spaced points
/// per decade up to `max_round`, always including `max_round`.
std::vector<int64_t> LogCheckpoints(int64_t max_round, int per_decade = 4);

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_EXPERIMENT_H_
