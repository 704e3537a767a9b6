// The four benchmark workloads. Each drives the library only through its
// public surface (StreamFactory, MechanismRegistry, RunMarket,
// PricingEngine, Broker, TcpServer/Client, RegretTracker) and derives every
// input from the run's seed.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "broker/broker.h"
#include "broker_bench_util.h"
#include "common/memory.h"
#include "market/regret_tracker.h"
#include "market/simulator.h"
#include "metrics/metrics.h"
#include "pricing/engine_state.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_registry.h"
#include "scenario/stream_factory.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {
namespace {

using pdm::MarketRound;
using pdm::PostedPrice;
using pdm::RegretTracker;
using pdm::Rng;
using pdm::Status;
using pdm::broker::Broker;
using pdm::broker::ProductHandle;
using pdm::scenario::ScenarioSpec;
using pdm::scenario::StreamFactory;
using pdm::scenario::WorkloadInfo;

/// Set-up is timed several times per run and reported as the median: some
/// set-ups run before the timed phases and some after them, so the samples
/// span the run rather than one moment of a shared machine.
struct SetupPlan {
  int before = 1;
  int after = 0;
};

SetupPlan Setups(const Options& options, int before = 3, int after = 2) {
  return options.tiny ? SetupPlan{1, 0} : SetupPlan{before, after};
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

std::string Format(const char* fmt, double a, double b = 0.0, double c = 0.0,
                   double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

/// The steady figure of a timed phase on a shared machine. The phase is cut
/// into short windows, each window yields one time, and the run reports the
/// fastest decile of them. Other tenants of the machine only ever add time,
/// and they come and go within seconds, so the fastest windows are the ones
/// that timed the program rather than its neighbours; a slower program still
/// slows every window.
double FastDecile(const std::vector<double>& window_times) {
  return Percentile(window_times, 0.1);
}

/// Medians of consecutive `window`-sample chunks of a latency series (a
/// trailing partial chunk is dropped unless it is the only one).
std::vector<double> WindowMedians(const std::vector<double>& samples, size_t window) {
  std::vector<double> medians;
  for (size_t at = 0; at + window <= samples.size(); at += window) {
    medians.push_back(Median(std::vector<double>(
        samples.begin() + static_cast<ptrdiff_t>(at),
        samples.begin() + static_cast<ptrdiff_t>(at + window))));
  }
  if (medians.empty() && !samples.empty()) medians.push_back(Median(samples));
  return medians;
}

/// Pricing quality of one mechanism, summed over the RegretTracker results
/// of every product or market that ran it.
struct Quality {
  int64_t rounds = 0;
  int64_t sales = 0;
  double regret = 0.0;
  double value = 0.0;

  void Add(const RegretTracker& tracker) {
    rounds += tracker.rounds();
    sales += tracker.sales();
    regret += tracker.cumulative_regret();
    value += tracker.cumulative_value();
  }
  void Add(const Quality& other) {
    rounds += other.rounds;
    sales += other.sales;
    regret += other.regret;
    value += other.value;
  }
  double sale_rate() const {
    return rounds > 0 ? static_cast<double>(sales) / static_cast<double>(rounds) : 0.0;
  }
  double regret_ratio() const { return value > 0.0 ? regret / value : 0.0; }
};

using QualityByMechanism = std::map<std::string, Quality>;

Quality Pooled(const QualityByMechanism& by_mechanism) {
  Quality pooled;
  for (const auto& [mechanism, quality] : by_mechanism) pooled.Add(quality);
  return pooled;
}

void AddQualityNotes(const std::string& row, const QualityByMechanism& by_mechanism,
                     Report* report) {
  for (const auto& [mechanism, quality] : by_mechanism) {
    report->notes.push_back(
        "quality " + row + " " + mechanism + ": " +
        Format("rounds=%.0f sale_rate=%.4f regret_ratio=%.4f",
               static_cast<double>(quality.rounds), quality.sale_rate(),
               quality.regret_ratio()));
  }
}

using CountersByMechanism = std::map<std::string, pdm::EngineCounters>;

void AddCounters(pdm::EngineCounters* into, const pdm::EngineCounters& c) {
  into->rounds += c.rounds;
  into->exploratory_rounds += c.exploratory_rounds;
  into->skipped_rounds += c.skipped_rounds;
  into->cuts_applied += c.cuts_applied;
}

/// The per-mechanism pricing layer metrics: sale rate from the quality
/// tally, round shares and cuts from the engines' own counters.
void ReportMechanismLayers(const QualityByMechanism& quality,
                           const CountersByMechanism& counters, Report* report) {
  for (const auto& [mechanism, c] : counters) {
    const std::string key = MechanismKey(mechanism);
    const double rounds = std::max<double>(1.0, static_cast<double>(c.rounds));
    auto q = quality.find(mechanism);
    report->Layer("pricing.sale_rate." + key, q == quality.end() ? 0.0 : q->second.sale_rate(),
                  "ratio");
    report->Layer("pricing.exploratory_share." + key,
                  static_cast<double>(c.exploratory_rounds) / rounds, "ratio");
    report->Layer("pricing.certain_no_sale_share." + key,
                  static_cast<double>(c.skipped_rounds) / rounds, "ratio");
    report->Layer("pricing.cuts_applied." + key, static_cast<double>(c.cuts_applied),
                  "count");
  }
}

/// Throughput windows of one closed-loop client thread: the time of every
/// `window` consecutive rounds. Medians over windows shrug off the moments
/// the machine's other tenants take a core away.
struct Windows {
  explicit Windows(int64_t window_rounds) : window(window_rounds) {}

  /// Call when the thread starts (or resumes) its loop.
  void Start() {
    last_ns = NowNs();
    in_window = 0;
  }
  /// Call after every round.
  void Tick() {
    if (++in_window == window) {
      uint64_t now = NowNs();
      ns_per_round.push_back(static_cast<double>(now - last_ns) /
                             static_cast<double>(window));
      last_ns = now;
      in_window = 0;
    }
  }

  int64_t window;
  int64_t in_window = 0;
  uint64_t last_ns = 0;
  std::vector<double> ns_per_round;
};

/// Aggregate closed-loop rate: the sum of every thread's fast-decile rate.
double AggregateRate(const std::vector<Windows>& threads) {
  double rate = 0.0;
  for (const Windows& w : threads) {
    const double ns = FastDecile(w.ns_per_round);
    if (ns > 0.0) rate += 1e9 / ns;
  }
  return rate;
}

/// Spans of the named layer prefix ("broker." ...), summed self time.
double LayerSelfSeconds(const std::map<std::string, SpanStats>& spans,
                        const std::string& layer) {
  double ns = 0.0;
  for (const auto& [name, stats] : spans) {
    if (name.rfind(layer + ".", 0) == 0) ns += stats.self_ns;
  }
  return ns * 1e-9;
}

double SpanMedian(const std::map<std::string, SpanStats>& spans, const std::string& name,
                  double divisor = 1.0) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.median_ns() / divisor;
}

void FinishTrace(const Options& options, const std::vector<const Tracer*>& tracers,
                 double untraced_rate, double traced_rate, Report* report,
                 Checker* checker, std::map<std::string, SpanStats>* spans) {
  *spans = AggregateSpans(tracers);
  for (const char* layer : {"scenario", "market", "pricing", "broker", "client"}) {
    report->Layer(std::string(layer) + ".self_s", LayerSelfSeconds(*spans, layer), "s");
  }
  report->Layer("trace.overhead_pct",
                traced_rate > 0.0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0,
                "%");
  int64_t dropped = 0;
  for (const Tracer* tracer : tracers) dropped += tracer->dropped();
  std::string path = options.work_dir + "/spans-" + options.workload + ".jsonl";
  checker->Expect(WriteSpans(path, tracers), "cannot write " + path);
  report->notes.push_back("trace: spans written to " + path + Format(" (%.0f dropped)", static_cast<double>(dropped)));
}

/// The one below-reserve quote the self-test plants: substitutes the first
/// reserve-enforcing quote's price when `--inject below_reserve` is set.
double MaybePlantBelowReserve(const Options& options, bool enforces_reserve,
                              double price, double reserve, bool* planted) {
  if (options.inject != "below_reserve" || *planted || !enforces_reserve) return price;
  *planted = true;
  return reserve - 1.0;
}

int64_t MaybePlantTallyMismatch(const Options& options, int64_t tally, bool* planted) {
  if (options.inject != "tally_mismatch" || *planted) return tally;
  *planted = true;
  return tally + 1;
}

/// What a client saw of one product. Prices are summed in the order the
/// session saw them, so the sums must equal the session's own exactly.
struct ProductTally {
  int64_t quotes = 0;
  int64_t feedback = 0;
  double posted_value = 0.0;
  double accepted_value = 0.0;

  void Quoted(double price) {
    ++quotes;
    posted_value += price;
  }
  void Settled(bool accepted, double price) {
    ++feedback;
    if (accepted) accepted_value += price;
  }
};

/// Checks a client's tally against Broker::GetSessionInfo: quotes issued,
/// feedback received, and the posted and accepted price sums (which pin the
/// accept/reject split). Adds the session's engine counters to `counters`.
void Reconcile(const Options& options, const Broker& broker, const std::string& product,
               const ProductTally& tally, bool* planted, Checker* checker,
               pdm::EngineCounters* counters = nullptr) {
  pdm::broker::SessionInfo info;
  Status s = broker.GetSessionInfo(product, &info);
  if (!s.ok()) {
    checker->Error("GetSessionInfo: " + s.ToString());
    return;
  }
  if (counters != nullptr) AddCounters(counters, info.counters);
  checker->Tally(product + " quotes", MaybePlantTallyMismatch(options, tally.quotes, planted),
                 info.quotes_issued);
  checker->Tally(product + " feedback", tally.feedback, info.feedback_received);
  checker->Expect(tally.posted_value == info.posted_value,
                  product + ": client and session disagree on posted prices");
  checker->Expect(tally.accepted_value == info.accepted_value,
                  product + ": client and session disagree on accepted prices");
}

// ===========================================================================
// replay: the paper's three pricing instances, offline and serial.
// ===========================================================================

std::vector<ScenarioSpec> ReplaySpecs(const Options& options) {
  const bool tiny = options.tiny;
  const uint64_t seed = options.seed;
  std::vector<ScenarioSpec> specs;
  // Fig. 5(a): noisy linear queries at n = 100, all four mechanisms. The
  // query ring bounds the prepare cost; the replay wraps around it.
  for (ScenarioSpec spec : pdm::scenario::Fig5aScenarios(
           tiny ? 20 : 100, tiny ? 500 : 10000, tiny ? 200 : 2000, 0.01,
           1000 + seed)) {
    spec.linear.workload_rounds = tiny ? 256 : 1024;
    spec.sim_seed = 99 + seed;
    spec.series_stride = 0;
    specs.push_back(spec);
  }
  // Fig. 5(b): the Airbnb market, pure and the three reserve ratios.
  for (ScenarioSpec spec :
       pdm::scenario::Fig5bScenarios(tiny ? 500 : 10000, 2000 + seed, 0.0)) {
    spec.sim_seed = 5 + seed;
    spec.series_stride = 0;
    specs.push_back(spec);
  }
  // Fig. 5(c): the Avazu market at n = 128 (honest sparse and dense modes).
  for (ScenarioSpec spec : pdm::scenario::Fig5cScenarios(
           tiny ? 500 : 10000, tiny ? 500 : 10000, tiny ? 5000 : 50000, 3000 + seed)) {
    if (spec.n != 128 || spec.avazu.oracle_prior_radius > 0.0) continue;
    spec.avazu.eval_samples = tiny ? 1000 : 5000;
    spec.sim_seed = 77 + seed;
    spec.series_stride = 0;
    specs.push_back(spec);
  }
  return specs;
}

const char* StreamLabel(const ScenarioSpec& spec) {
  switch (spec.stream) {
    case pdm::scenario::StreamKind::kAirbnb:
      return "airbnb";
    case pdm::scenario::StreamKind::kAvazu:
      return "avazu";
    default:
      return "linear";
  }
}

/// The batched entry point on a market's stream: panels of 8 quotes priced
/// by PostPriceBatch, each resolved through the detached-feedback protocol.
/// Appends the per-quote time of every panel.
void BatchedDrive(const ScenarioSpec& spec, const StreamFactory& factory,
                  const WorkloadInfo& info, Checker* checker, std::vector<double>* ns_per_quote) {
  std::unique_ptr<pdm::PricingEngine> engine =
      pdm::scenario::MechanismRegistry::Builtin().Build(spec, info);
  if (!engine->SupportsBatchedQuotes()) return;
  Rng rng(spec.sim_seed);
  std::unique_ptr<pdm::QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(engine.get());
  constexpr int kPanel = 8;
  const size_t in_dim = static_cast<size_t>(engine->input_dim());
  const bool enforces = EnforcesReserve(spec.mechanism);
  std::vector<double> panel(kPanel * in_dim);
  double reserves[kPanel], values[kPanel];
  PostedPrice posted[kPanel];
  pdm::PendingCut cuts[kPanel];
  pdm::PendingCut* cut_ptrs[kPanel];
  for (int k = 0; k < kPanel; ++k) cut_ptrs[k] = &cuts[k];
  MarketRound round;
  for (int64_t t = 0; t + kPanel <= spec.rounds; t += kPanel) {
    for (int k = 0; k < kPanel; ++k) {
      stream->Next(&rng, &round);
      std::copy(round.features.begin(), round.features.end(),
                panel.begin() + static_cast<ptrdiff_t>(k * in_dim));
      reserves[k] = round.reserve;
      values[k] = round.value;
    }
    const uint64_t t0 = NowNs();
    engine->PostPriceBatch(panel.data(), kPanel, reserves, posted, cut_ptrs);
    ns_per_quote->push_back(static_cast<double>(NowNs() - t0) / kPanel);
    for (int k = 0; k < kPanel; ++k) {
      checker->Quote(enforces, posted[k].price, reserves[k]);
      engine->ObserveDetached(cuts[k],
                              !posted[k].certain_no_sale && posted[k].price <= values[k]);
    }
  }
}

}  // namespace

void RunReplay(const Options& options, Report* report, Checker* checker) {
  const std::vector<ScenarioSpec> specs = ReplaySpecs(options);
  const auto& registry = pdm::scenario::MechanismRegistry::Builtin();
  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;

  // Set-up: prepare the three workloads and build every engine, from a cold
  // factory each time.
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> prepare_s;
  std::vector<double> build_us;
  auto set_up = [&](std::unique_ptr<StreamFactory>* factory, std::vector<WorkloadInfo>* infos) {
    const uint64_t start = NowNs();
    *factory = std::make_unique<StreamFactory>();
    infos->clear();
    std::map<std::string, double> prepare_this_time;
    for (const ScenarioSpec& spec : specs) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(tr, "scenario.prepare");
        infos->push_back((*factory)->Prepare(spec));
      }
      prepare_this_time[StreamLabel(spec)] += Seconds(t0, NowNs());
      const uint64_t t1 = NowNs();
      ScopedSpan span(tr, "scenario.build_engine");
      std::unique_ptr<pdm::PricingEngine> engine = registry.Build(spec, infos->back());
      build_us.push_back(Seconds(t1, NowNs()) * 1e6);
      checker->Expect(engine != nullptr, "engine build failed for " + spec.name);
    }
    for (const auto& [label, s] : prepare_this_time) prepare_s[label].push_back(s);
    setup_s.push_back(Seconds(start, NowNs()));
  };
  const SetupPlan plan = Setups(options);
  std::unique_ptr<StreamFactory> factory;
  std::vector<WorkloadInfo> infos;
  for (int i = 0; i < plan.before; ++i) set_up(&factory, &infos);

  // Timed passes: every market through RunMarket, repeated until the run's
  // time is spent. Every pass must reproduce the first pass's regret exactly.
  // Each market run (tens of milliseconds) is one timing window.
  std::vector<std::vector<double>> market_s(specs.size()), engine_s(specs.size());
  std::vector<double> pass_market_s;
  QualityByMechanism quality;
  CountersByMechanism counters;
  std::vector<double> first_regret;
  pdm::SimulationScratch scratch;
  const uint64_t measure_start = NowNs();
  const int min_passes = options.tiny ? 1 : 3;
  for (int pass = 0;; ++pass) {
    double pass_s = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const ScenarioSpec& spec = specs[i];
      Rng rng(spec.sim_seed);
      std::unique_ptr<pdm::QueryStream> stream = factory->CreateStream(spec, &rng);
      std::unique_ptr<pdm::PricingEngine> engine = registry.Build(spec, infos[i]);
      pdm::SimulationOptions sim;
      sim.rounds = spec.rounds;
      sim.measure_latency = true;
      pdm::SimulationResult result;
      {
        ScopedSpan span(tr, "market.run", static_cast<uint64_t>(i));
        result = pdm::RunMarket(stream.get(), engine.get(), sim, &rng, &scratch);
      }
      report->attempted += spec.rounds;
      pass_s += result.wall_seconds;
      market_s[i].push_back(result.wall_seconds);
      engine_s[i].push_back(result.engine_millis_per_round * 1e-3 *
                            static_cast<double>(spec.rounds));
      const double regret = result.tracker.cumulative_regret();
      checker->Expect(std::isfinite(regret) && std::isfinite(result.tracker.price_stats().max()),
                      "non-finite regret or price in " + spec.name);
      if (pass == 0) {
        first_regret.push_back(regret);
        quality[spec.mechanism].Add(result.tracker);
        AddCounters(&counters[spec.mechanism], result.engine_counters);
      } else {
        checker->Expect(regret == first_regret[i],
                        "replay of " + spec.name + " is not deterministic");
      }
    }
    pass_market_s.push_back(pass_s);
    if (pass + 1 >= min_passes && Seconds(measure_start, NowNs()) >= options.seconds) break;
  }
  for (int i = 0; i < plan.after; ++i) {
    std::unique_ptr<StreamFactory> spare_factory;
    std::vector<WorkloadInfo> spare_infos;
    set_up(&spare_factory, &spare_infos);
  }
  report->Set("setup_s", Median(setup_s), "s");
  const Quality pooled = Pooled(quality);
  report->Set("regret_ratio", pooled.regret_ratio(), "ratio");
  // One pass priced at every market's fast-decile run time.
  double rounds = 0.0, fast_market_s = 0.0, fast_engine_s = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    rounds += static_cast<double>(specs[i].rounds);
    fast_market_s += FastDecile(market_s[i]);
    fast_engine_s += FastDecile(engine_s[i]);
  }
  report->Set("rounds_per_s", rounds / fast_market_s, "1/s");
  report->Set("quote_p50_us", fast_engine_s / rounds * 1e6, "us");
  report->Extra("passes", static_cast<double>(pass_market_s.size()), "count");
  AddQualityNotes("replay", quality, report);

  // Verification pass (untimed for the result): drive every engine through
  // PricingEngine on the same stream and check each posted price; the regret
  // must equal what RunMarket accounted. A traced run drives each engine
  // twice, without and then with spans, which gives the tracing overhead.
  bool planted = false;
  std::vector<double> batch_ns_per_quote;
  double drive_untraced_s = 0.0;
  double drive_traced_s = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    const bool enforces = EnforcesReserve(spec.mechanism);
    MarketRound round;
    auto drive = [&](Tracer* spans_to) {
      Rng rng(spec.sim_seed);
      std::unique_ptr<pdm::QueryStream> stream = factory->CreateStream(spec, &rng);
      std::unique_ptr<pdm::PricingEngine> engine = registry.Build(spec, infos[i]);
      stream->BindEngine(engine.get());
      RegretTracker tracker;
      const uint64_t start = NowNs();
      for (int64_t t = 0; t < spec.rounds; ++t) {
        stream->Next(&rng, &round);
        Tracer* sampled = (t & 7) == 0 ? spans_to : nullptr;
        PostedPrice posted;
        {
          ScopedSpan span(sampled, "pricing.post_price", static_cast<uint64_t>(t));
          posted = engine->PostPrice(round.features, round.reserve);
        }
        checker->Quote(enforces,
                       MaybePlantBelowReserve(options, enforces, posted.price,
                                              round.reserve, &planted),
                       round.reserve);
        const bool accepted = !posted.certain_no_sale && posted.price <= round.value;
        {
          ScopedSpan span(sampled, "pricing.observe", static_cast<uint64_t>(t));
          engine->Observe(accepted);
        }
        tracker.Observe(round, posted, accepted);
      }
      const double seconds = Seconds(start, NowNs());
      checker->Expect(tracker.cumulative_regret() == first_regret[i],
                      "PricingEngine drive of " + spec.name + " disagrees with RunMarket");
      return seconds;
    };
    drive_untraced_s += drive(nullptr);
    if (options.trace) drive_traced_s += drive(tr);

    if (options.trace) {
      BatchedDrive(spec, *factory, infos[i], checker, &batch_ns_per_quote);
    }
  }

  if (!options.trace) return;
  std::map<std::string, SpanStats> spans;
  FinishTrace(options, {&tracer}, 1.0 / drive_untraced_s, 1.0 / drive_traced_s, report,
              checker, &spans);
  for (const auto& [label, values] : prepare_s) {
    report->Layer("scenario.prepare_s." + label, Median(values), "s");
  }
  report->Layer("scenario.build_engine_us", Median(build_us), "us");
  report->Layer("market.run_s", Median(pass_market_s), "s");
  report->Layer("pricing.post_price_ns", SpanMedian(spans, "pricing.post_price"), "ns");
  report->Layer("pricing.observe_ns", SpanMedian(spans, "pricing.observe"), "ns");
  report->Layer("pricing.post_price_batch_ns_per_quote", Median(batch_ns_per_quote), "ns");
  ReportMechanismLayers(quality, counters, report);
}

}  // namespace perfbench

// ===========================================================================
// serve-tcp: an in-process TcpServer on loopback, open loop then closed loop.
// ===========================================================================

namespace perfbench {
namespace {

using pdm::broker_bench::ProductWorkload;
using pdm::server::Client;
using pdm::server::TcpServer;

constexpr int kServeConnections = 2;
constexpr int kMechanisms = 4;
constexpr int kTickQuotes = 8;

pdm::broker_bench::ProductSetup FleetSetup(const Options& options) {
  pdm::broker_bench::ProductSetup setup;
  setup.dim = 20;
  setup.workload_rounds = 2048;
  setup.num_owners = 512;
  setup.seed = 1 + 1000 * options.seed;
  return setup;
}

/// Everything serve-tcp sets up before its first timed request.
struct ServeStack {
  std::unique_ptr<StreamFactory> factory;
  std::unique_ptr<Broker> broker;
  std::unique_ptr<pdm::metrics::MetricRegistry> registry;
  std::unique_ptr<TcpServer> server;
  std::vector<ProductWorkload> products;
  std::unique_ptr<Client> clients[kServeConnections];
  ProductHandle handles[kServeConnections][kMechanisms];

  ~ServeStack() {
    for (auto& client : clients) client.reset();
    if (server) server->Stop();
  }
};

std::unique_ptr<ServeStack> BuildServeStack(const Options& options, Checker* checker) {
  auto stack = std::make_unique<ServeStack>();
  stack->factory = std::make_unique<StreamFactory>();
  stack->broker = std::make_unique<Broker>();
  stack->products =
      pdm::broker_bench::OpenProducts(stack->factory.get(), stack->broker.get(),
                                      kServeConnections * kMechanisms,
                                      FleetSetup(options), "serve/");
  pdm::server::ServerConfig config;
  if (options.trace) {
    // The traced run wires a live registry so the server's request_ns
    // histogram can be read back.
    stack->registry = std::make_unique<pdm::metrics::MetricRegistry>();
    config.metrics = stack->registry.get();
  }
  stack->server = std::make_unique<TcpServer>(stack->broker.get(), config);
  Status started = stack->server->Start();
  if (!started.ok()) {
    checker->Error("server start: " + started.ToString());
    return nullptr;
  }
  for (int c = 0; c < kServeConnections; ++c) {
    stack->clients[c] = std::make_unique<Client>();
    Status s = stack->clients[c]->Connect("127.0.0.1", stack->server->port());
    for (int m = 0; s.ok() && m < kMechanisms; ++m) {
      s = stack->clients[c]->Resolve(stack->products[c * kMechanisms + m].name,
                                     &stack->handles[c][m]);
    }
    if (!s.ok()) {
      checker->Error("client set-up: " + s.ToString());
      return nullptr;
    }
  }
  return stack;
}

/// One connection's state across both phases.
struct Connection {
  Client* client = nullptr;
  const ProductHandle* handles = nullptr;
  const ProductWorkload* products = nullptr;  ///< kMechanisms of them
  size_t cursor[kMechanisms] = {};
  int64_t frames_sent = kMechanisms;  ///< the Resolve frames of set-up
  ProductTally tally[kMechanisms];
  int64_t quotes_attempted = 0;
  /// Phase A only: latency from each tick's scheduled send, generator
  /// lateness, and pricing quality.
  std::vector<double> latency_ns;
  std::vector<double> lateness_ns;
  RegretTracker trackers[kMechanisms];
  Checker checker;
  bool planted = false;
  Tracer tracer;
};

/// One tick: 8 pipelined PostPrice frames (two per product), their
/// responses, then the 8 matching Observe frames and theirs. `due_ns` is the
/// scheduled send time in the open loop, 0 in the closed loop. Returns false
/// when the connection failed.
bool ServeTick(const Options& options, Connection* conn, uint64_t tick, uint64_t due_ns,
               Tracer* tr) {
  Client& client = *conn->client;
  ScopedSpan tick_span(tr, "client.tick", tick);
  const MarketRound* rounds[kTickQuotes];
  {
    ScopedSpan span(tr, "client.queue", tick);
    for (int k = 0; k < kTickQuotes; ++k) {
      const int p = k % kMechanisms;
      const std::vector<MarketRound>& ring = conn->products[p].recorded;
      rounds[k] = &ring[conn->cursor[p]];
      conn->cursor[p] = (conn->cursor[p] + 1) % ring.size();
      client.QueuePostPrice(conn->handles[p], rounds[k]->features, rounds[k]->reserve);
    }
  }
  conn->frames_sent += kTickQuotes;
  conn->quotes_attempted += kTickQuotes;
  Status s;
  {
    ScopedSpan span(tr, "client.flush", tick);
    s = client.Flush();
  }
  uint64_t tickets[kTickQuotes] = {};
  bool accepted[kTickQuotes] = {};
  double prices[kTickQuotes] = {};
  {
    ScopedSpan span(tr, "client.read_wait", tick);
    for (int k = 0; s.ok() && k < kTickQuotes; ++k) {
      pdm::server::Response resp;
      s = client.ReadResponse(&resp);
      if (!s.ok()) break;
      if (due_ns != 0) conn->latency_ns.push_back(static_cast<double>(NowNs() - due_ns));
      const int p = k % kMechanisms;
      if (!resp.status.ok()) {
        conn->checker.Error("PostPrice: " + resp.status.ToString());
        continue;
      }
      const std::string& mechanism = conn->products[p].variant;
      const bool enforces = EnforcesReserve(mechanism);
      conn->checker.Quote(enforces,
                          MaybePlantBelowReserve(options, enforces, resp.quote.price,
                                                 rounds[k]->reserve, &conn->planted),
                          rounds[k]->reserve);
      conn->tally[p].Quoted(resp.quote.price);
      tickets[k] = resp.quote.ticket;
      prices[k] = resp.quote.price;
      accepted[k] = !resp.quote.certain_no_sale && resp.quote.price <= rounds[k]->value;
      if (due_ns != 0) {
        PostedPrice posted;
        posted.price = resp.quote.price;
        posted.exploratory = resp.quote.exploratory;
        posted.certain_no_sale = resp.quote.certain_no_sale;
        conn->trackers[p].Observe(*rounds[k], posted, accepted[k]);
      }
    }
  }
  if (!s.ok()) return false;
  int queued_product[kTickQuotes];
  bool queued_accept[kTickQuotes];
  double queued_price[kTickQuotes];
  int queued = 0;
  {
    ScopedSpan span(tr, "client.queue", tick);
    for (int k = 0; k < kTickQuotes; ++k) {
      if (tickets[k] == 0) continue;
      client.QueueObserve(tickets[k], accepted[k]);
      queued_product[queued] = k % kMechanisms;
      queued_accept[queued] = accepted[k];
      queued_price[queued] = prices[k];
      ++queued;
    }
  }
  conn->frames_sent += queued;
  {
    ScopedSpan span(tr, "client.flush", tick);
    s = client.Flush();
  }
  ScopedSpan read_span(tr, "client.read_wait", tick);
  for (int k = 0; s.ok() && k < queued; ++k) {
    pdm::server::Response resp;
    s = client.ReadResponse(&resp);
    if (!s.ok()) break;
    if (!resp.status.ok()) {
      conn->checker.Error("Observe: " + resp.status.ToString());
      continue;
    }
    conn->tally[queued_product[k]].Settled(queued_accept[k], queued_price[k]);
  }
  return s.ok();
}

/// Phase A: `ticks` ticks on a fixed schedule from `start_ns`. The generator
/// spins to each tick's due time: a timer sleep wakes tens of microseconds
/// late on a virtual machine, which would swamp the latency it measures.
void OpenLoop(const Options& options, Connection* conn, int64_t ticks, uint64_t start_ns,
              double tick_ns, bool traced) {
  for (int64_t t = 0; t < ticks; ++t) {
    const uint64_t due = start_ns + static_cast<uint64_t>(tick_ns * static_cast<double>(t));
    while (NowNs() < due) {
    }
    conn->lateness_ns.push_back(static_cast<double>(NowNs() - due));
    if (!ServeTick(options, conn, static_cast<uint64_t>(t), due,
                   traced ? &conn->tracer : nullptr)) {
      conn->checker.Error("connection failed in the open loop");
      return;
    }
  }
}

/// Phase B: back-to-back ticks until `end_ns`.
void ClosedLoop(const Options& options, Connection* conn, uint64_t end_ns, bool traced,
                Windows* windows) {
  windows->Start();
  for (uint64_t t = 0; NowNs() < end_ns; ++t) {
    if (!ServeTick(options, conn, t, 0, traced ? &conn->tracer : nullptr)) {
      conn->checker.Error("connection failed in the closed loop");
      return;
    }
    for (int k = 0; k < kTickQuotes; ++k) windows->Tick();
  }
}

template <typename Fn>
void OnEveryConnection(std::vector<Connection>* conns, Fn fn) {
  std::vector<std::thread> threads;
  for (Connection& conn : *conns) threads.emplace_back([&fn, &conn] { fn(&conn); });
  for (std::thread& t : threads) t.join();
}

double ClosedLoopRate(const Options& options, std::vector<Connection>* conns,
                      double seconds, bool traced) {
  std::vector<Windows> windows(conns->size(), Windows(64 * kTickQuotes));
  const uint64_t end_ns = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns->size(); ++i) {
    threads.emplace_back([&, i] {
      ClosedLoop(options, &(*conns)[i], end_ns, traced, &windows[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  return AggregateRate(windows);
}

/// Per-tick broker cost without the wire: the same tick shape replayed into
/// an in-process Broker over the same products.
double BrokerNsPerTick(const Options& options, int64_t ticks, Checker* checker) {
  StreamFactory factory;
  Broker broker;
  std::vector<ProductWorkload> products = pdm::broker_bench::OpenProducts(
      &factory, &broker, kMechanisms, FleetSetup(options), "serve/");
  ProductHandle handles[kMechanisms];
  for (int m = 0; m < kMechanisms; ++m) {
    checker->Expect(broker.Resolve(products[m].name, &handles[m]).ok(), "resolve");
  }
  std::vector<pdm::broker::HandleRequest> requests(kTickQuotes);
  std::vector<pdm::broker::Quote> quotes(kTickQuotes);
  std::vector<pdm::broker::FeedbackRequest> feedback(kTickQuotes);
  size_t cursor[kMechanisms] = {};
  std::vector<double> tick_ns;
  for (int64_t t = 0; t < ticks; ++t) {
    const MarketRound* rounds[kTickQuotes];
    for (int k = 0; k < kTickQuotes; ++k) {
      const int p = k % kMechanisms;
      rounds[k] = &products[p].recorded[cursor[p]];
      cursor[p] = (cursor[p] + 1) % products[p].recorded.size();
      requests[k] = {handles[p], rounds[k]->features, rounds[k]->reserve};
    }
    const uint64_t t0 = NowNs();
    Status s = broker.PostPrices(requests, quotes);
    for (int k = 0; k < kTickQuotes; ++k) {
      feedback[k] = {quotes[k].ticket,
                     !quotes[k].certain_no_sale && quotes[k].price <= rounds[k]->value};
    }
    if (s.ok()) s = broker.Observes(feedback);
    tick_ns.push_back(static_cast<double>(NowNs() - t0));
    if (!s.ok()) {
      checker->Error("in-process tick replay: " + s.ToString());
      break;
    }
  }
  return Median(tick_ns);
}

}  // namespace

void RunServeTcp(const Options& options, Report* report, Checker* checker) {
  // Phase A offers 100k quotes/s in total, well below the loopback capacity
  // this server measures (~350k/s on 4 cores), so its latency is service
  // time rather than queueing.
  const double rate = options.tiny ? 20000.0 : 100000.0;
  const double phase_a_s = options.seconds * 0.45;
  const double phase_b_s = options.seconds * 0.45;

  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  auto set_up = [&]() {
    const uint64_t t0 = NowNs();
    std::unique_ptr<ServeStack> built = BuildServeStack(options, checker);
    setup_s.push_back(Seconds(t0, NowNs()));
    return built;
  };
  const SetupPlan plan = Setups(options);
  for (int i = 0; i < plan.before; ++i) {
    stack.reset();
    stack = set_up();
    if (!stack) return;
  }

  std::vector<Connection> conns(kServeConnections);
  for (int c = 0; c < kServeConnections; ++c) {
    conns[c].client = stack->clients[c].get();
    conns[c].handles = stack->handles[c];
    conns[c].products = &stack->products[static_cast<size_t>(c * kMechanisms)];
    for (int m = 0; m < kMechanisms; ++m) conns[c].cursor[m] = 97 * static_cast<size_t>(c);
  }

  // Phase A: open loop, a fixed number of ticks, so pricing quality repeats
  // exactly for a seed.
  const double tick_ns = 1e9 * kTickQuotes * kServeConnections / rate;
  const int64_t ticks = static_cast<int64_t>(phase_a_s * 1e9 / tick_ns);
  const uint64_t start_ns = NowNs() + 1000000;
  OnEveryConnection(&conns, [&](Connection* conn) {
    OpenLoop(options, conn, ticks, start_ns, tick_ns, options.trace);
  });

  // Phase B: closed loop for capacity. A traced run measures it twice,
  // without and then with spans.
  double capacity = ClosedLoopRate(options, &conns, options.trace ? phase_b_s / 2 : phase_b_s,
                                   false);
  double traced_capacity =
      options.trace ? ClosedLoopRate(options, &conns, phase_b_s / 2, true) : 0.0;

  // Reconcile the client tallies with the server's and the broker's counts.
  const pdm::server::ServerStats stats = stack->server->stats();
  int64_t frames = 0;
  QualityByMechanism quality;
  CountersByMechanism counters;
  std::vector<double> latency, latency_p50s, lateness;
  bool planted = false;
  for (Connection& conn : conns) {
    frames += conn.frames_sent;
    report->attempted += conn.quotes_attempted;
    latency.insert(latency.end(), conn.latency_ns.begin(), conn.latency_ns.end());
    for (double p50 : WindowMedians(conn.latency_ns, 4096)) latency_p50s.push_back(p50);
    lateness.insert(lateness.end(), conn.lateness_ns.begin(), conn.lateness_ns.end());
    checker->Absorb(conn.checker);
    for (int m = 0; m < kMechanisms; ++m) {
      quality[conn.products[m].variant].Add(conn.trackers[m]);
      Reconcile(options, *stack->broker, conn.products[m].name, conn.tally[m], &planted,
                checker, &counters[conn.products[m].variant]);
    }
  }
  checker->Tally("frames served", frames, stats.frames_served);
  for (int i = 0; i < plan.after; ++i) set_up();
  report->Set("setup_s", Median(setup_s), "s");

  const Quality pooled = Pooled(quality);
  report->Set("regret_ratio", pooled.regret_ratio(), "ratio");
  report->Set("rounds_per_s", capacity, "1/s");
  report->Set("quote_p50_us", FastDecile(latency_p50s) * 1e-3, "us");
  report->Extra("capacity_qps", capacity, "1/s");
  report->Extra("quote_p99_us", Percentile(latency, 0.99) * 1e-3, "us");
  report->Extra("lateness_p50_us", Median(lateness) * 1e-3, "us");
  report->Extra("lateness_p99_us", Percentile(lateness, 0.99) * 1e-3, "us");
  report->Extra("open_loop_rate_qps", rate, "1/s");
  report->Extra("open_loop_quotes", static_cast<double>(latency.size()), "count");
  AddQualityNotes("serve-tcp phase A", quality, report);

  const double frames_served = std::max<double>(1.0, static_cast<double>(stats.frames_served));
  report->Layer("server.coalesced_share",
                static_cast<double>(stats.frames_coalesced) / frames_served, "ratio");
  report->Layer("server.frames_per_run",
                stats.coalesced_runs > 0 ? static_cast<double>(stats.frames_coalesced) /
                                               static_cast<double>(stats.coalesced_runs)
                                         : 0.0,
                "count");
  report->Layer("server.shed_frames", static_cast<double>(stats.shed_frames), "count");
  report->Layer("server.protocol_errors", static_cast<double>(stats.protocol_errors),
                "count");
  checker->Expect(stats.shed_frames == 0 && stats.protocol_errors == 0,
                  "server shed frames or saw protocol errors");
  ReportMechanismLayers(quality, counters, report);
  if (!options.trace) return;

  pdm::metrics::MetricsDump dump;
  double request_p50_us = 0.0;
  if (pdm::metrics::DecodeMetricsDump(stack->registry->EncodeDump(), &dump).ok()) {
    if (const auto* h = dump.Find("pdm_server_request_ns")) {
      request_p50_us = static_cast<double>(h->HistogramQuantile(0.5)) * 1e-3;
    }
  }
  stack.reset();
  const double broker_tick_ns = BrokerNsPerTick(options, options.tiny ? 2000 : 20000, checker);
  std::vector<const Tracer*> tracers;
  for (const Connection& conn : conns) tracers.push_back(&conn.tracer);
  std::map<std::string, SpanStats> spans;
  FinishTrace(options, tracers, capacity, traced_capacity, report, checker, &spans);
  const double queue_ns = SpanMedian(spans, "client.queue");
  const double flush_us = SpanMedian(spans, "client.flush") * 1e-3;
  report->Layer("server.request_p50_us", request_p50_us, "us");
  report->Layer("server.broker_ns_per_tick", broker_tick_ns, "ns");
  report->Layer("client.queue_ns", queue_ns, "ns");
  report->Layer("client.flush_us", flush_us, "us");
  report->Layer("client.read_wait_us", SpanMedian(spans, "client.read_wait") * 1e-3, "us");
  report->Layer("client.lateness_us", Median(lateness) * 1e-3, "us");

  // Waterfall beside the measured p50 of this (traced) run's open loop; its
  // parts are medians too.
  const double p50_us = Median(latency) * 1e-3;
  const double parts_us[] = {Median(lateness) * 1e-3, queue_ns * 1e-3 + flush_us,
                             request_p50_us, broker_tick_ns * 1e-3};
  double attributed = 0.0;
  for (double part : parts_us) attributed += part;
  report->notes.push_back(Format("waterfall quote p50 %.2fus = generator lateness %.2fus",
                                 p50_us, parts_us[0]) +
                          Format(" + client encode/flush %.2fus + server request %.2fus",
                                 parts_us[1], parts_us[2]) +
                          Format(" (of which broker per tick %.2fus) + unattributed %.2fus",
                                 parts_us[3], p50_us - attributed + parts_us[3]));
}

// ===========================================================================
// broker-mt: in-process Broker, closed loop, nproc - 1 client threads.
// ===========================================================================

namespace {

/// One client thread's own products for one phase, with its tallies.
struct BrokerClient {
  const ProductWorkload* products = nullptr;  ///< kMechanisms of them
  ProductHandle handles[kMechanisms];
  size_t cursor[kMechanisms] = {};
  ProductTally tally[kMechanisms];
  /// Quality over each product's first `quality_rounds` rounds: a fixed
  /// prefix, so it repeats exactly for a seed however fast the run is.
  RegretTracker trackers[kMechanisms];
  int64_t attempted = 0;
  Checker checker;
  bool planted = false;
  Tracer tracer;
};

/// Closed loop until `end_ns`: each call prices `batch` requests for one
/// product (rotating over the thread's four) and then sends their feedback.
void BrokerLoop(const Options& options, Broker* broker, BrokerClient* client, int batch,
                int64_t quality_rounds, uint64_t end_ns, Tracer* tr, Windows* windows) {
  // Runs past `end_ns` until every product reached the quality prefix, so a
  // slow machine still reports quality over the same rounds.
  auto prefix_done = [&] {
    for (const ProductTally& tally : client->tally) {
      if (tally.quotes < quality_rounds) return false;
    }
    return true;
  };
  std::vector<pdm::broker::HandleRequest> requests(static_cast<size_t>(batch));
  std::vector<pdm::broker::Quote> quotes(static_cast<size_t>(batch));
  std::vector<pdm::broker::FeedbackRequest> feedback(static_cast<size_t>(batch));
  std::vector<const MarketRound*> rounds(static_cast<size_t>(batch));
  windows->Start();
  for (uint64_t call = 0;; ++call) {
    if ((call & 15) == 0 && NowNs() >= end_ns && prefix_done()) break;
    const int p = static_cast<int>(call % kMechanisms);
    const std::vector<MarketRound>& ring = client->products[p].recorded;
    for (int k = 0; k < batch; ++k) {
      rounds[k] = &ring[client->cursor[p]];
      client->cursor[p] = (client->cursor[p] + 1) % ring.size();
      requests[k] = {client->handles[p], rounds[k]->features, rounds[k]->reserve};
    }
    // Spans on every 16th call keep the traced run's own cost bounded.
    Tracer* sampled = (call & 15) == 0 ? tr : nullptr;
    Status s;
    {
      ScopedSpan span(sampled, "broker.post_prices", call);
      s = broker->PostPrices(requests, quotes);
    }
    client->attempted += batch;
    if (!s.ok()) {
      client->checker.Error("PostPrices: " + s.ToString());
      return;
    }
    const std::string& mechanism = client->products[p].variant;
    const bool enforces = EnforcesReserve(mechanism);
    for (int k = 0; k < batch; ++k) {
      const pdm::broker::Quote& q = quotes[k];
      client->checker.Quote(enforces,
                            MaybePlantBelowReserve(options, enforces, q.price,
                                                   rounds[k]->reserve, &client->planted),
                            rounds[k]->reserve);
      const bool accepted = !q.certain_no_sale && q.price <= rounds[k]->value;
      feedback[k] = {q.ticket, accepted};
      client->tally[p].Quoted(q.price);
      if (client->tally[p].quotes <= quality_rounds) {
        PostedPrice posted;
        posted.price = q.price;
        posted.exploratory = q.exploratory;
        posted.certain_no_sale = q.certain_no_sale;
        client->trackers[p].Observe(*rounds[k], posted, accepted);
      }
    }
    {
      ScopedSpan span(sampled, "broker.observes", call);
      s = broker->Observes(feedback);
    }
    if (!s.ok()) {
      client->checker.Error("Observes: " + s.ToString());
      return;
    }
    for (int k = 0; k < batch; ++k) {
      client->tally[p].Settled(feedback[k].accepted, quotes[k].price);
    }
    for (int k = 0; k < batch; ++k) windows->Tick();
  }
}

struct BrokerPhase {
  double rate = 0.0;           ///< round trips per second
  double round_us = 0.0;       ///< fast-decile round time of one client
  double post_prices_ns = 0.0; ///< per item, traced phases only
  double observes_ns = 0.0;
};

/// Runs `threads` closed-loop clients for `seconds`, appending to each
/// thread's windows (a phase may be run in several slices).
void RunBrokerSlice(const Options& options, Broker* broker, std::vector<BrokerClient>* clients,
                    int threads, int batch, int64_t quality_rounds, double seconds,
                    bool traced, std::vector<Windows>* windows) {
  if (windows->empty()) {
    windows->assign(static_cast<size_t>(threads), Windows(batch == 1 ? 4096 : 8192));
  }
  std::vector<std::thread> workers;
  const uint64_t end_ns = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BrokerClient* client = &(*clients)[static_cast<size_t>(t)];
      BrokerLoop(options, broker, client, batch, quality_rounds, end_ns,
                 traced ? &client->tracer : nullptr, &(*windows)[static_cast<size_t>(t)]);
    });
  }
  for (std::thread& w : workers) w.join();
}

BrokerPhase Summarize(const std::vector<Windows>& windows, int batch,
                      const std::vector<BrokerClient>& clients, bool traced) {
  BrokerPhase phase;
  phase.rate = AggregateRate(windows);
  std::vector<double> all;
  for (const Windows& w : windows) all.insert(all.end(), w.ns_per_round.begin(), w.ns_per_round.end());
  phase.round_us = FastDecile(all) * batch * 1e-3;
  if (traced) {
    std::vector<const Tracer*> tracers;
    for (size_t t = 0; t < windows.size(); ++t) tracers.push_back(&clients[t].tracer);
    std::map<std::string, SpanStats> spans = AggregateSpans(tracers);
    phase.post_prices_ns = SpanMedian(spans, "broker.post_prices", batch);
    phase.observes_ns = SpanMedian(spans, "broker.observes", batch);
  }
  return phase;
}

std::vector<BrokerClient> MakeBrokerClients(Broker* broker,
                                            const std::vector<ProductWorkload>& products,
                                            int threads, Checker* checker) {
  std::vector<BrokerClient> clients(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    BrokerClient& client = clients[static_cast<size_t>(t)];
    client.products = &products[static_cast<size_t>(t * kMechanisms)];
    for (int m = 0; m < kMechanisms; ++m) {
      checker->Expect(broker->Resolve(client.products[m].name, &client.handles[m]).ok(),
                      "resolve " + client.products[m].name);
    }
  }
  return clients;
}

/// Reconciles one phase's client tallies with the broker's session counts
/// and folds its pricing quality in.
void SettleBrokerClients(const Options& options, Broker* broker,
                         std::vector<BrokerClient>* clients, Report* report,
                         Checker* checker, QualityByMechanism* quality,
                         CountersByMechanism* counters, bool* planted) {
  for (BrokerClient& client : *clients) {
    report->attempted += client.attempted;
    checker->Absorb(client.checker);
    for (int m = 0; m < kMechanisms; ++m) {
      (*quality)[client.products[m].variant].Add(client.trackers[m]);
      Reconcile(options, *broker, client.products[m].name, client.tally[m], planted, checker,
                &(*counters)[client.products[m].variant]);
    }
  }
}

}  // namespace

void RunBrokerMt(const Options& options, Report* report, Checker* checker) {
  const int threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  // Quality covers each product's first rounds only; every product reaches
  // this prefix within the first few milliseconds of its phase.
  const int64_t quality_rounds = options.tiny ? 2000 : 20000;
  const pdm::broker_bench::ProductSetup setup = FleetSetup(options);

  // Set-up: one product set per phase, b=1 and b=8 twins built from the same
  // seeds, so their quality compares like for like.
  std::vector<double> setup_s;
  struct Fleet {
    std::unique_ptr<StreamFactory> factory;
    std::unique_ptr<Broker> broker;
    std::vector<ProductWorkload> b1_products, b8_products;
  };
  auto set_up = [&]() {
    const uint64_t t0 = NowNs();
    Fleet fleet;
    fleet.factory = std::make_unique<StreamFactory>();
    fleet.broker = std::make_unique<Broker>();
    fleet.b1_products = pdm::broker_bench::OpenProducts(
        fleet.factory.get(), fleet.broker.get(), threads * kMechanisms, setup, "b1/");
    fleet.b8_products = pdm::broker_bench::OpenProducts(
        fleet.factory.get(), fleet.broker.get(), threads * kMechanisms, setup, "b8/");
    setup_s.push_back(Seconds(t0, NowNs()));
    return fleet;
  };
  const SetupPlan plan = Setups(options);
  Fleet fleet;
  for (int i = 0; i < plan.before; ++i) {
    fleet = Fleet();
    fleet = set_up();
  }
  Broker* broker = fleet.broker.get();

  std::vector<BrokerClient> b1 =
      MakeBrokerClients(broker, fleet.b1_products, threads, checker);
  std::vector<BrokerClient> b8 =
      MakeBrokerClients(broker, fleet.b8_products, threads, checker);

  // The b=1 and b=8 phases run in alternating slices, so each phase's
  // windows span the whole run. A traced run also measures one thread alone
  // and then repeats both b=1 measurements with spans.
  const int slices = options.tiny ? 1 : 6;
  const double b1_s = (options.trace ? 0.2 : 0.5) * options.seconds / slices;
  const double b8_s = 0.3 * options.seconds / slices;
  std::vector<Windows> single_w, b1_w, b8_w, single_traced_w, b1_traced_w;
  for (int slice = 0; slice < slices; ++slice) {
    if (options.trace) {
      RunBrokerSlice(options, broker, &b1, 1, 1, quality_rounds, b1_s, false, &single_w);
    }
    RunBrokerSlice(options, broker, &b1, threads, 1, quality_rounds, b1_s, false, &b1_w);
    RunBrokerSlice(options, broker, &b8, threads, 8, quality_rounds, b8_s, false, &b8_w);
  }
  const BrokerPhase phase_b1 = Summarize(b1_w, 1, b1, false);
  const BrokerPhase phase_b8 = Summarize(b8_w, 8, b8, false);
  BrokerPhase single, single_traced, phase_b1_traced;
  if (options.trace) {
    single = Summarize(single_w, 1, b1, false);
    RunBrokerSlice(options, broker, &b1, 1, 1, quality_rounds, b1_s * slices / 2, true,
                   &single_traced_w);
    single_traced = Summarize(single_traced_w, 1, b1, true);
    for (BrokerClient& client : b1) client.tracer = Tracer();
    RunBrokerSlice(options, broker, &b1, threads, 1, quality_rounds, b1_s * slices / 2, true,
                   &b1_traced_w);
    phase_b1_traced = Summarize(b1_traced_w, 1, b1, true);
  }

  QualityByMechanism quality_b1, quality_b8;
  CountersByMechanism counters_b1, counters_b8;
  bool planted = false;
  SettleBrokerClients(options, broker, &b1, report, checker, &quality_b1, &counters_b1,
                      &planted);
  SettleBrokerClients(options, broker, &b8, report, checker, &quality_b8, &counters_b8,
                      &planted);
  for (int i = 0; i < plan.after; ++i) set_up();
  report->Set("setup_s", Median(setup_s), "s");
  ReportMechanismLayers(quality_b1, counters_b1, report);

  report->Set("regret_ratio", Pooled(quality_b1).regret_ratio(), "ratio");
  report->Set("rounds_per_s", phase_b1.rate, "1/s");
  report->Set("quote_p50_us", phase_b1.round_us, "us");
  report->Extra("rounds_per_s_b1", phase_b1.rate, "1/s");
  report->Extra("rounds_per_s_b8", phase_b8.rate, "1/s");
  report->Extra("regret_ratio_b8", Pooled(quality_b8).regret_ratio(), "ratio");
  report->Extra("client_threads", threads, "count");
  AddQualityNotes("broker-mt b=1", quality_b1, report);
  // The b=8 rows run on a collapsed market: batched feedback cuts the
  // knowledge set with stale supports, so the reserve variants stop selling.
  AddQualityNotes("broker-mt b=8", quality_b8, report);

  if (!options.trace) return;
  std::vector<const Tracer*> tracers;
  for (const BrokerClient& client : b1) tracers.push_back(&client.tracer);
  std::map<std::string, SpanStats> spans;
  FinishTrace(options, tracers, phase_b1.rate, phase_b1_traced.rate, report, checker, &spans);
  report->Layer("broker.post_prices_ns.t1", single_traced.post_prices_ns, "ns");
  report->Layer("broker.observes_ns.t1", single_traced.observes_ns, "ns");
  report->Layer("broker.post_prices_ns.tN", phase_b1_traced.post_prices_ns, "ns");
  report->Layer("broker.observes_ns.tN", phase_b1_traced.observes_ns, "ns");
  report->Layer("broker.efficiency",
                single.rate > 0.0 ? phase_b1.rate / (threads * single.rate) : 0.0, "ratio");
}
// ===========================================================================
// cold-tier: many dim-32 packed products, most of them spilled to disk.
// ===========================================================================

namespace {

/// Zipf(s) over [0, n): rank r has weight 1/(r+1)^s, so low indices are hot.
class Zipf {
 public:
  Zipf(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
  }
  size_t Next(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

int64_t TrimmedRssBytes() {
  malloc_trim(0);
  return pdm::CurrentRssBytes();
}

ScenarioSpec ColdFleetSpec(const Options& options) {
  ScenarioSpec spec;
  spec.name = "cold/base";
  spec.family = "perfbench";
  spec.stream = pdm::scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = 32;
  spec.rounds = 200000;
  spec.delta = 0.01;
  spec.linear.num_owners = 256;
  spec.linear.workload_rounds = 1024;
  spec.workload_seed = 1 + 1000 * options.seed;
  spec.sim_seed = 7 + options.seed;
  spec.packed_shape = true;
  return spec;
}

std::string ColdProductName(int64_t i) { return "cold/p" + std::to_string(i); }

/// The cold-tier fleet: every product opened from one shared recipe, then
/// swept down to the residency cap batch by batch.
struct ColdFleet {
  std::unique_ptr<Broker> broker;
  std::vector<ProductHandle> handles;
  double open_s = 0.0;
  int64_t rss_base = 0;
};

ColdFleet OpenColdFleet(const ScenarioSpec& spec, const WorkloadInfo& info,
                        int64_t products, size_t cap, const std::string& spill_dir,
                        Checker* checker) {
  ColdFleet fleet;
  std::filesystem::remove_all(spill_dir);
  pdm::broker::BrokerConfig config;
  config.spill_dir = spill_dir;
  config.max_resident_sessions = cap;
  fleet.broker = std::make_unique<Broker>(config);
  fleet.rss_base = TrimmedRssBytes();
  const uint64_t t0 = NowNs();
  std::vector<std::string> names;
  for (int64_t base = 0; base < products; base += static_cast<int64_t>(cap)) {
    names.clear();
    for (int64_t i = base; i < std::min<int64_t>(products, base + static_cast<int64_t>(cap)); ++i) {
      names.push_back(ColdProductName(i));
    }
    Status s = fleet.broker->OpenSessions(names, spec, info);
    if (!s.ok()) {
      checker->Error("OpenSessions: " + s.ToString());
      return fleet;
    }
    fleet.broker->EvictIdleSessions(cap);
  }
  fleet.open_s = Seconds(t0, NowNs());
  fleet.handles.resize(static_cast<size_t>(products));
  for (int64_t i = 0; i < products; ++i) {
    checker->Expect(
        fleet.broker->Resolve(ColdProductName(i), &fleet.handles[static_cast<size_t>(i)]).ok(),
        "resolve " + ColdProductName(i));
  }
  return fleet;
}

}  // namespace

void RunColdTier(const Options& options, Report* report, Checker* checker) {
  const int64_t products = options.tiny ? 2000 : 12000;
  const size_t cap = static_cast<size_t>(products / 4);
  const int64_t quality_touches = options.tiny ? 1000 : 100000;
  const std::string spill_dir = options.work_dir + "/cold-spill";
  const ScenarioSpec spec = ColdFleetSpec(options);

  // Set-up: prepare the shared workload, open the fleet, sweep it to the cap.
  std::vector<double> setup_s, open_s;
  std::vector<MarketRound> ring;
  auto set_up = [&]() {
    const uint64_t t0 = NowNs();
    StreamFactory factory;
    const WorkloadInfo info = factory.Prepare(spec);
    Rng rng(spec.sim_seed);
    std::unique_ptr<pdm::QueryStream> stream = factory.CreateStream(spec, &rng);
    ring.resize(static_cast<size_t>(spec.linear.workload_rounds));
    for (MarketRound& round : ring) stream->Next(&rng, &round);
    ColdFleet fleet = OpenColdFleet(spec, info, products, cap, spill_dir, checker);
    setup_s.push_back(Seconds(t0, NowNs()));
    open_s.push_back(fleet.open_s);
    return fleet;
  };
  // Three set-ups, not five: each one spills three quarters of the fleet.
  const SetupPlan plan = Setups(options, 2, 1);
  ColdFleet fleet;
  for (int i = 0; i < plan.before; ++i) {
    fleet = ColdFleet();
    fleet = set_up();
    if (!fleet.broker) return;
  }
  Broker& broker = *fleet.broker;
  const pdm::broker::BrokerStats before = broker.Stats();

  // Zipf touches, one PostPrice + Observe each, from a single client thread.
  // A traced run spends the second half of its time with spans on.
  const Zipf zipf(products, 1.05);
  Rng touch_rng(options.seed * 7919 + 11);
  std::vector<ProductTally> tallies(static_cast<size_t>(products));
  std::vector<double> touch_ns, fault_ns;
  RegretTracker tracker;
  Tracer tracer;
  Windows windows(1024), traced_windows(1024);
  bool planted = false;
  int64_t useful = 0;
  const double touch_s = options.seconds * 0.9;
  const uint64_t start = NowNs();
  const uint64_t traced_from = options.trace ? start + static_cast<uint64_t>(touch_s * 0.5e9)
                                             : ~uint64_t{0};
  const uint64_t end = start + static_cast<uint64_t>(touch_s * 1e9);
  Windows* current = &windows;
  current->Start();
  for (int64_t t = 0;; ++t) {
    const uint64_t t0 = NowNs();
    // Runs past the time until the quality prefix is complete, so a slow
    // machine still reports quality over the same touches.
    if (t0 >= end && t >= quality_touches) break;
    const bool traced = t0 >= traced_from;
    if (traced && current != &traced_windows) {
      current = &traced_windows;
      current->Start();
    }
    Tracer* tr = traced && (t & 7) == 0 ? &tracer : nullptr;
    const size_t idx = zipf.Next(&touch_rng);
    const MarketRound& round = ring[static_cast<size_t>(t) % ring.size()];
    const uint64_t faults_before = broker.fault_in_count();
    pdm::broker::Quote quote;
    Status s;
    {
      ScopedSpan span(tr, "broker.post_price", static_cast<uint64_t>(t));
      s = broker.PostPrice(fleet.handles[idx], round.features, round.reserve, &quote);
    }
    const bool accepted = !quote.certain_no_sale && quote.price <= round.value;
    if (s.ok()) {
      ScopedSpan span(tr, "broker.observe", static_cast<uint64_t>(t));
      s = broker.Observe(quote.ticket, accepted);
    }
    const uint64_t elapsed = NowNs() - t0;
    ++report->attempted;
    if (!s.ok()) {
      checker->Error("touch: " + s.ToString());
      continue;
    }
    checker->Quote(true,
                   MaybePlantBelowReserve(options, true, quote.price, round.reserve,
                                          &planted),
                   round.reserve);
    tallies[idx].Quoted(quote.price);
    tallies[idx].Settled(accepted, quote.price);
    if (t < quality_touches) {
      PostedPrice posted;
      posted.price = quote.price;
      posted.exploratory = quote.exploratory;
      posted.certain_no_sale = quote.certain_no_sale;
      tracker.Observe(round, posted, accepted);
    }
    if (broker.fault_in_count() != faults_before) {
      fault_ns.push_back(static_cast<double>(elapsed));
    } else {
      ++useful;
    }
    touch_ns.push_back(static_cast<double>(elapsed));
    current->Tick();
  }
  const int64_t rss_steady = TrimmedRssBytes();
  const pdm::broker::BrokerStats after = broker.Stats();

  // Tallies of a sample of products, hottest first (each read faults the
  // product in, so the sample stays small).
  bool planted_tally = false;
  for (int64_t i = 0; i < std::min<int64_t>(products, 64); ++i) {
    const int64_t idx = i < 32 ? i : (i * 7919) % products;
    Reconcile(options, broker, ColdProductName(idx), tallies[static_cast<size_t>(idx)],
              &planted_tally, checker);
  }

  const double touch_rate = AggregateRate({windows});
  report->Set("regret_ratio", tracker.regret_ratio(), "ratio");
  report->Set("rounds_per_s", touch_rate, "1/s");
  report->Set("quote_p50_us", FastDecile(WindowMedians(touch_ns, 1024)) * 1e-3, "us");
  report->Extra("quote_p99_us", Percentile(touch_ns, 0.99) * 1e-3, "us");
  report->Extra("fault_in_p50_us", FastDecile(WindowMedians(fault_ns, 256)) * 1e-3, "us");
  report->Extra("bytes_per_product",
                static_cast<double>(rss_steady - fleet.rss_base) / static_cast<double>(products),
                "bytes");
  report->Extra("products", static_cast<double>(products), "count");
  report->Extra("resident_cap", static_cast<double>(cap), "count");

  const double touched = std::max<double>(1.0, static_cast<double>(touch_ns.size()));
  report->Layer("broker.evictions", static_cast<double>(after.evictions - before.evictions),
                "count");
  report->Layer("broker.fault_ins", static_cast<double>(after.fault_ins - before.fault_ins),
                "count");
  report->Layer("broker.resident_hit_rate", static_cast<double>(useful) / touched, "ratio");
  report->Layer("broker.spill_bytes_per_session",
                after.evicted_sessions > 0 ? static_cast<double>(after.spill_bytes) /
                                                 static_cast<double>(after.evicted_sessions)
                                           : 0.0,
                "bytes");
  report->Layer("broker.arena_used_bytes", static_cast<double>(after.arena_bytes_used), "bytes");
  report->Layer("broker.arena_reserved_bytes", static_cast<double>(after.arena_bytes_reserved),
                "bytes");
  if (options.trace) {
    // Snapshot and restore of the hottest products through the public
    // diagnostics surface (restoring a session's own snapshot is a no-op).
    std::vector<double> snapshot_ns, restore_ns;
    for (int64_t i = 0; i < std::min<int64_t>(products, 256); ++i) {
      pdm::broker::SessionSnapshot snapshot;
      uint64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan span(&tracer, "broker.snapshot", static_cast<uint64_t>(i));
        s = broker.Snapshot(ColdProductName(i), &snapshot);
      }
      uint64_t t1 = NowNs();
      if (s.ok()) {
        ScopedSpan span(&tracer, "broker.restore", static_cast<uint64_t>(i));
        s = broker.Restore(ColdProductName(i), snapshot);
      }
      uint64_t t2 = NowNs();
      if (!s.ok()) {
        checker->Error("snapshot/restore: " + s.ToString());
        continue;
      }
      snapshot_ns.push_back(static_cast<double>(t1 - t0));
      restore_ns.push_back(static_cast<double>(t2 - t1));
    }
    report->Layer("broker.snapshot_ns", Median(snapshot_ns), "ns");
    report->Layer("broker.restore_ns", Median(restore_ns), "ns");
    std::map<std::string, SpanStats> spans;
    FinishTrace(options, {&tracer}, touch_rate, AggregateRate({traced_windows}), report,
                checker, &spans);
  }
  fleet = ColdFleet();
  for (int i = 0; i < plan.after; ++i) set_up();
  report->Set("setup_s", Median(setup_s), "s");
  report->Layer("broker.open_sessions_s", Median(open_s), "s");
  std::filesystem::remove_all(spill_dir);
}
}  // namespace perfbench
