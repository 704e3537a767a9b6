// Unified experiment driver: selects declarative scenarios from the paper-
// exhibit registry by name/glob, executes them on the thread-pooled
// SimulationRunner, and emits one machine-readable pdm.run.v1 JSON document
// (DESIGN.md §8). Every exhibit the dedicated bench binaries reproduce is
// runnable from here — `--list` prints the full catalogue — and new grids
// are added by declaring specs (scenario/scenario_registry.h), not by
// writing another main().
//
//   pdm_run --list
//   pdm_run --scenarios='fig4/*'                 # one whole figure
//   pdm_run --scenarios='fig5a,table1'           # families compose
//   pdm_run --scenarios='throughput/*/n=2?'      # glob on any name part
//   pdm_run --scenarios='fig4,table1' --max_rounds=2000   # CI smoke grid

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "broker/driver.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "scenario/experiment.h"
#include "scenario/scenario_registry.h"

int main(int argc, char** argv) {
  std::string scenarios = "fig4,fig5a,table1,throughput";
  std::string out_path = "RUN_pdm.json";
  int64_t max_rounds = 0;
  int64_t threads = 0;
  bool list = false;
  bool series = false;
  bool table = true;
  bool through_broker = false;
  pdm::FlagSet flags("pdm_run");
  flags.AddString("scenarios", &scenarios,
                  "comma-separated glob patterns over scenario names/families");
  flags.AddString("out", &out_path, "pdm.run.v1 JSON output path ('' disables)");
  flags.AddInt64("max_rounds", &max_rounds,
                 "cap every scenario's horizon (0 = the registered scale)");
  flags.AddInt64("threads", &threads,
                 "scenario worker threads (0 = hardware default, 1 = serial); "
                 "workload synthesis uses every core regardless");
  flags.AddBool("list", &list, "list the registered scenarios and exit");
  flags.AddBool("series", &series, "include regret series in the JSON");
  flags.AddBool("table", &table, "print the comparison table");
  flags.AddBool("through_broker", &through_broker,
                "execute through the Broker serving surface (handle fast "
                "path; bit-identical to the direct path)");
  // --help exits cleanly: asking for the flag list is not an error.
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;

  const pdm::scenario::ScenarioRegistry& registry =
      pdm::scenario::ScenarioRegistry::PaperExhibits();
  if (list) {
    std::vector<pdm::scenario::ScenarioSpec> sorted = registry.specs();
    std::sort(sorted.begin(), sorted.end(),
              [](const pdm::scenario::ScenarioSpec& a,
                 const pdm::scenario::ScenarioSpec& b) { return a.name < b.name; });
    pdm::TablePrinter table({"scenario", "stream", "mechanism", "n", "T"});
    for (const auto& spec : sorted) {
      table.AddRow({spec.name, pdm::scenario::StreamKindName(spec.stream),
                    spec.mechanism, std::to_string(spec.n),
                    std::to_string(spec.rounds)});
    }
    table.Print(std::cout);
    std::printf("\n%zu scenarios registered\n", registry.size());
    return 0;
  }

  std::vector<pdm::scenario::ScenarioSpec> selected = registry.Match(scenarios);
  if (selected.empty()) {
    std::fprintf(stderr,
                 "pdm_run: no scenario matches '%s'\n"
                 "run with --list to see the registered names\n",
                 scenarios.c_str());
    return 1;
  }
  std::printf("=== pdm_run: %zu scenarios matching '%s'%s ===\n\n", selected.size(),
              scenarios.c_str(), max_rounds > 0 ? " (capped)" : "");

  pdm::scenario::RunOptions options;
  options.num_threads = static_cast<int>(threads);
  options.max_rounds = max_rounds;
  std::vector<pdm::scenario::ScenarioOutcome> outcomes =
      through_broker
          ? pdm::broker::RunScenariosThroughBroker(selected, options)
          : pdm::scenario::ExperimentDriver(options).Run(selected);

  if (table) pdm::scenario::PrintOutcomeTable(outcomes, std::cout);
  double prepare_seconds = 0.0;
  for (const pdm::scenario::ScenarioOutcome& outcome : outcomes) {
    prepare_seconds += outcome.prepare_seconds;
  }
  std::printf("\nworkload prepare: %.3f s total\n", prepare_seconds);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    pdm::scenario::RunMetadata meta;
    meta.generator = through_broker ? "pdm_run --through_broker" : "pdm_run";
    meta.selection = scenarios;
    meta.max_rounds = max_rounds;
    meta.num_threads = options.num_threads;
    meta.include_series = series;
    pdm::scenario::WriteRunJson(out, meta, outcomes);
    std::printf("\nwrote %s (%zu results, schema pdm.run.v1)\n", out_path.c_str(),
                outcomes.size());
  }
  return 0;
}
