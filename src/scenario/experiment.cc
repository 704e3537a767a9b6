#include "scenario/experiment.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json_writer.h"
#include "common/memory.h"
#include "common/timer.h"
#include "scenario/mechanism_registry.h"

namespace pdm::scenario {

ExperimentDriver::ExperimentDriver(const RunOptions& options) : options_(options) {}

ScenarioSpec ExperimentDriver::Capped(const ScenarioSpec& spec) const {
  return CapRounds(spec, options_.max_rounds);
}

std::vector<ScenarioOutcome> ExperimentDriver::Run(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioOutcome> outcomes(specs.size());
  std::vector<SimulationJob> jobs(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ScenarioSpec spec = Capped(specs[i]);
    // Prepare phase: shared workloads (linear replays, offline fits) are
    // built once per distinct key, one key at a time, before any scenario
    // worker starts, so synthesis can use every core without nesting pools.
    WallTimer prepare_timer;
    WorkloadInfo info = factory_.Prepare(spec);
    outcomes[i].prepare_seconds = prepare_timer.ElapsedSeconds();
    outcomes[i].spec = spec;

    SimulationJob& job = jobs[i];
    job.name = spec.name;
    job.seed = spec.sim_seed;
    job.options.rounds = spec.rounds;
    job.options.series_stride = spec.series_stride;
    const StreamFactory* factory = &factory_;
    job.make_stream = [factory, spec](Rng* rng) {
      return factory->CreateStream(spec, rng);
    };
    job.make_engine = [spec, info = std::move(info)]() {
      return MechanismRegistry::Builtin().Build(spec, info);
    };
  }

  RunnerOptions runner_options;
  runner_options.num_threads = options_.num_threads;
  std::vector<JobResult> results = SimulationRunner(runner_options).RunAll(jobs);

  // Process-wide VmRSS is sampled exactly once per batch — after every
  // scenario has completed — and replicated onto each row: the key is part
  // of the pdm.bench_throughput.v1 row schema, but per-row attribution is
  // meaningless when concurrent scenarios share the address space
  // (single-sample semantics documented in DESIGN.md §8).
  int64_t rss = CurrentRssBytes();
  for (size_t i = 0; i < results.size(); ++i) {
    outcomes[i].engine_name = std::move(results[i].engine_name);
    outcomes[i].result = std::move(results[i].result);
    outcomes[i].rss_bytes = rss;
  }
  return outcomes;
}

namespace {

void WriteStats(JsonWriter* json, const char* key, const RunningStats& stats) {
  json->Key(key);
  json->BeginObject();
  json->Field("mean", stats.mean());
  json->Field("stddev", stats.stddev());
  json->EndObject();
}

}  // namespace

void WriteRunJson(std::ostream& os, const RunMetadata& meta,
                  const std::vector<ScenarioOutcome>& outcomes) {
  JsonWriter json(&os);
  json.BeginObject();
  json.Field("schema", "pdm.run.v1");
  json.Field("generator", meta.generator);
  json.Field("selection", meta.selection);
  json.Field("max_rounds", meta.max_rounds);
  json.Field("num_threads", meta.num_threads);
  json.Key("results");
  json.BeginArray();
  for (const ScenarioOutcome& outcome : outcomes) {
    const ScenarioSpec& spec = outcome.spec;
    const RegretTracker& tracker = outcome.result.tracker;
    const EngineCounters& counters = outcome.result.engine_counters;
    double wall = outcome.result.wall_seconds;
    double rounds = static_cast<double>(spec.rounds);
    json.BeginObject();
    // pdm.bench_throughput.v1 compatibility block (same keys, same meaning).
    json.Field("scenario", spec.name);
    json.Field("variant", spec.mechanism);
    json.Field("dim", spec.n);
    json.Field("rounds", spec.rounds);
    json.Field("wall_seconds", wall);
    json.Field("rounds_per_sec", wall > 0.0 ? rounds / wall : 0.0);
    json.Field("ns_per_round", wall * 1e9 / rounds);
    json.Field("rss_bytes", outcome.rss_bytes);
    json.Field("prepare_seconds", outcome.prepare_seconds);
    // Spec coordinates.
    json.Field("family", spec.family);
    json.Field("stream", StreamKindName(spec.stream));
    json.Field("mechanism", spec.mechanism);
    json.Field("link", LinkKindName(spec.link));
    json.Field("engine", outcome.engine_name);
    json.Field("delta", spec.delta);
    json.Field("epsilon", spec.epsilon);
    json.Field("workload_seed", spec.workload_seed);
    json.Field("sim_seed", spec.sim_seed);
    // Regret accounting (Eq. 1 and the Section V ratios).
    json.Field("sales", tracker.sales());
    json.Field("cumulative_regret", tracker.cumulative_regret());
    json.Field("cumulative_value", tracker.cumulative_value());
    json.Field("cumulative_revenue", tracker.cumulative_revenue());
    json.Field("regret_ratio", tracker.regret_ratio());
    json.Field("baseline_regret_ratio", tracker.baseline_regret_ratio());
    json.Key("counters");
    json.BeginObject();
    json.Field("exploratory_rounds", counters.exploratory_rounds);
    json.Field("conservative_rounds", counters.conservative_rounds);
    json.Field("skipped_rounds", counters.skipped_rounds);
    json.Field("cuts_applied", counters.cuts_applied);
    json.Field("cuts_discarded", counters.cuts_discarded);
    json.EndObject();
    json.Key("stats");
    json.BeginObject();
    WriteStats(&json, "value", tracker.value_stats());
    WriteStats(&json, "reserve", tracker.reserve_stats());
    WriteStats(&json, "price", tracker.price_stats());
    WriteStats(&json, "regret", tracker.regret_stats());
    json.EndObject();
    if (meta.include_series && !tracker.series().empty()) {
      json.Key("series");
      json.BeginArray();
      for (const RegretSeriesPoint& point : tracker.series()) {
        json.BeginObject();
        json.Field("round", point.round);
        json.Field("cumulative_regret", point.cumulative_regret);
        json.Field("regret_ratio", point.regret_ratio);
        json.Field("baseline_regret_ratio", point.baseline_regret_ratio);
        json.EndObject();
      }
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  os << "\n";
}

void PrintOutcomeTable(const std::vector<ScenarioOutcome>& outcomes, std::ostream& os) {
  std::vector<JobResult> rows;
  rows.reserve(outcomes.size());
  for (const ScenarioOutcome& outcome : outcomes) {
    JobResult row;
    row.name = outcome.spec.name;
    row.seed = outcome.spec.sim_seed;
    row.engine_name = outcome.engine_name;
    row.result = outcome.result;
    rows.push_back(std::move(row));
  }
  PrintComparisonTable(rows, os);
}

std::vector<int64_t> LogCheckpoints(int64_t max_round, int per_decade) {
  std::vector<int64_t> points;
  double factor = std::pow(10.0, 1.0 / per_decade);
  double current = 10.0;
  while (static_cast<int64_t>(current) < max_round) {
    int64_t value = static_cast<int64_t>(current);
    if (points.empty() || value > points.back()) points.push_back(value);
    current *= factor;
  }
  points.push_back(max_round);
  return points;
}

}  // namespace pdm::scenario
