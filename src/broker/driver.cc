#include "broker/driver.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "market/regret_tracker.h"
#include "market/round.h"
#include "scenario/mechanism_registry.h"

namespace pdm::broker {

BrokerRunOutcome RunScenarioThroughBroker(const scenario::ScenarioSpec& spec,
                                          scenario::StreamFactory* factory,
                                          Broker* broker) {
  PDM_CHECK(factory != nullptr);
  return RunScenarioThroughBroker(spec, factory->Prepare(spec), factory, broker);
}

namespace {

/// Shared core of the Run* entry points: executes `spec` through a session
/// opened under `product` (usually spec.name; the batch driver passes a
/// uniquified name when specs collide).
BrokerRunOutcome RunSpecOnBroker(const scenario::ScenarioSpec& spec,
                                 const scenario::WorkloadInfo& info,
                                 const std::string& product,
                                 scenario::StreamFactory* factory, Broker* broker) {
  PDM_CHECK(factory != nullptr);
  PDM_CHECK(broker != nullptr);
  PDM_CHECK(spec.rounds > 0);

  std::unique_ptr<PricingEngine> engine =
      scenario::MechanismRegistry::Builtin().Build(spec, info);
  // The stream may be adaptive (Lemma 8) and probe the engine's knowledge
  // set; keep a raw pointer across the ownership transfer to the broker.
  const PricingEngine* engine_view = engine.get();
  Status opened = broker->OpenSession(product, std::move(engine));
  PDM_CHECK(opened.ok());
  // Steady-state clients resolve once and never touch the name directory
  // again — the driver pins that fast path, not the string-keyed wrapper.
  ProductHandle handle;
  Status resolved = broker->Resolve(product, &handle);
  PDM_CHECK(resolved.ok());

  // Same Rng lifecycle as SimulationRunner::RunJob: stream construction
  // consumes a prefix of Rng(sim_seed), the market loop the rest (§4).
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory->CreateStream(spec, &rng);
  stream->BindEngine(engine_view);

  BrokerRunOutcome outcome;
  outcome.result.tracker = RegretTracker(spec.series_stride);

  WallTimer total_timer;
  MarketRound round;
  Quote quote;
  PostedPrice posted;
  for (int64_t t = 0; t < spec.rounds; ++t) {
    stream->Next(&rng, &round);
    Status status = broker->PostPrice(handle, round.features, round.reserve, &quote);
    PDM_CHECK(status.ok());
    // Immediate feedback: resolve the sale and answer the ticket before the
    // next request — the regime bit-identical to RunMarket's alternation.
    bool accepted = !quote.certain_no_sale && quote.price <= round.value;
    status = broker->Observe(quote.ticket, accepted);
    PDM_CHECK(status.ok());
    posted.price = quote.price;
    posted.exploratory = quote.exploratory;
    posted.certain_no_sale = quote.certain_no_sale;
    outcome.result.tracker.Observe(round, posted, accepted);
  }
  outcome.result.wall_seconds = total_timer.ElapsedSeconds();
  outcome.result.engine_counters = engine_view->counters();
  outcome.engine_name = engine_view->name();
  return outcome;
}

}  // namespace

BrokerRunOutcome RunScenarioThroughBroker(const scenario::ScenarioSpec& spec,
                                          const scenario::WorkloadInfo& info,
                                          scenario::StreamFactory* factory,
                                          Broker* broker) {
  return RunSpecOnBroker(spec, info, spec.name, factory, broker);
}

BrokerRunOutcome RunScenarioThroughBroker(const scenario::ScenarioSpec& spec,
                                          scenario::StreamFactory* factory) {
  Broker broker;
  return RunScenarioThroughBroker(spec, factory, &broker);
}

std::vector<scenario::ScenarioOutcome> RunScenariosThroughBroker(
    const std::vector<scenario::ScenarioSpec>& specs,
    const scenario::RunOptions& options) {
  scenario::StreamFactory factory;
  std::vector<scenario::ScenarioOutcome> outcomes(specs.size());

  // Serial phase: caps + shared workload preparation, exactly like
  // ExperimentDriver::Run (the StreamFactory Prepare contract — Prepare is
  // serial-only, so workers receive their WorkloadInfo instead of calling
  // Prepare concurrently). Session names are uniquified up front: the
  // shared broker needs distinct products, but ExperimentDriver accepts
  // duplicate spec names, and parity with it is the contract.
  std::vector<scenario::WorkloadInfo> infos(specs.size());
  std::vector<std::string> session_names(specs.size());
  std::unordered_set<std::string> used_names;
  for (size_t i = 0; i < specs.size(); ++i) {
    outcomes[i].spec = scenario::CapRounds(specs[i], options.max_rounds);
    WallTimer prepare_timer;
    infos[i] = factory.Prepare(outcomes[i].spec);
    outcomes[i].prepare_seconds = prepare_timer.ElapsedSeconds();
    session_names[i] = outcomes[i].spec.name;
    for (int suffix = 2; !used_names.insert(session_names[i]).second; ++suffix) {
      session_names[i] = outcomes[i].spec.name + "#" + std::to_string(suffix);
    }
  }

  // Fan out over one shared broker: every scenario opens its own product
  // (OpenSession is the control plane, serialized internally), then prices
  // through the contention-free handle path. Each outcome is a pure
  // function of its spec, so worker count and scheduling cannot change it.
  Broker broker;
  ParallelFor(specs.size(), options.num_threads, [&](size_t i) {
    BrokerRunOutcome run = RunSpecOnBroker(outcomes[i].spec, infos[i], session_names[i],
                                           &factory, &broker);
    outcomes[i].engine_name = std::move(run.engine_name);
    outcomes[i].result = std::move(run.result);
  });

  // Single-sample VmRSS semantics, as in ExperimentDriver (DESIGN.md §8).
  int64_t rss = CurrentRssBytes();
  for (scenario::ScenarioOutcome& outcome : outcomes) outcome.rss_bytes = rss;
  return outcomes;
}

}  // namespace pdm::broker
