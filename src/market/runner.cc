#include "market/runner.h"

#include "common/check.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace pdm {

SimulationRunner::SimulationRunner(const RunnerOptions& options)
    : num_threads_(ResolveThreadCount(options.num_threads)) {}

JobResult SimulationRunner::RunJob(const SimulationJob& spec) {
  SimulationScratch scratch;
  return RunJob(spec, &scratch);
}

JobResult SimulationRunner::RunJob(const SimulationJob& spec,
                                             SimulationScratch* scratch) {
  PDM_CHECK(spec.make_stream != nullptr);
  PDM_CHECK(spec.make_engine != nullptr);

  // The job's entire randomness flows from this one generator: stream
  // construction consumes a prefix, the market loop the rest. That makes the
  // outcome a pure function of the spec, independent of which worker thread
  // runs it or when.
  Rng rng(spec.seed);
  std::unique_ptr<QueryStream> stream = spec.make_stream(&rng);
  std::unique_ptr<PricingEngine> engine = spec.make_engine();
  PDM_CHECK(stream != nullptr);
  PDM_CHECK(engine != nullptr);

  JobResult out;
  out.name = spec.name;
  out.seed = spec.seed;
  out.engine_name = engine->name();
  out.result = RunMarket(stream.get(), engine.get(), spec.options, &rng, scratch);
  return out;
}

std::vector<JobResult> SimulationRunner::RunAll(
    const std::vector<SimulationJob>& jobs) const {
  // Results land in their own slots, so the output order matches the input
  // order exactly. Each worker holds one SimulationScratch, so the round
  // buffers are allocated once per worker and reused across its jobs. A
  // throwing job is rethrown after the join, as on the serial path.
  std::vector<JobResult> results(jobs.size());
  ParallelFor<SimulationScratch>(jobs.size(), num_threads_,
                                 [&](size_t i, SimulationScratch* scratch) {
                                   results[i] = RunJob(jobs[i], scratch);
                                 });
  return results;
}

void PrintComparisonTable(const std::vector<JobResult>& results,
                          std::ostream& os) {
  TablePrinter table({"scenario", "engine", "seed", "rounds", "sales", "regret",
                      "regret%", "explore", "skip", "wall_s"});
  for (const JobResult& r : results) {
    const RegretTracker& tracker = r.result.tracker;
    const EngineCounters& counters = r.result.engine_counters;
    table.AddRow({
        r.name,
        r.engine_name,
        std::to_string(r.seed),
        std::to_string(tracker.rounds()),
        std::to_string(tracker.sales()),
        FormatDouble(tracker.cumulative_regret(), 2),
        FormatDouble(tracker.regret_ratio() * 100.0, 2),
        std::to_string(counters.exploratory_rounds),
        std::to_string(counters.skipped_rounds),
        FormatDouble(r.result.wall_seconds, 3),
    });
  }
  table.Print(os);
}

}  // namespace pdm
