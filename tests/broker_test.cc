// The serving layer (DESIGN.md §9): ticket lifecycle, status-based misuse
// handling, batched pricing, snapshot/restore, the scrape-time metrics
// collector (§13), and the two load-bearing guarantees — (1)
// immediate-feedback broker execution is bit-identical to RunMarket for
// registry specs, and (2) any legal interleaving of ticketed feedback
// across products leaves every product's engine in exactly the state
// sequential execution produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/driver.h"
#include "broker/session.h"
#include "broker/snapshot.h"
#include "market/round.h"
#include "metrics/metrics.h"
#include "market/simulator.h"
#include "pricing/baselines.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/feature_maps.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"
#include "pricing/link_functions.h"
#include "rng/rng.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_registry.h"
#include "scenario/stream_factory.h"

namespace pdm::broker {
namespace {

using scenario::MechanismRegistry;
using scenario::ScenarioRegistry;
using scenario::ScenarioSpec;
using scenario::StreamFactory;
using scenario::WorkloadInfo;

// Mirror of ExperimentDriver::Capped: shrink a registry spec to test scale
// without changing its workload identity beyond what the driver itself does.
ScenarioSpec Capped(ScenarioSpec spec, int64_t max_rounds) {
  if (max_rounds > 0 && spec.rounds > max_rounds) {
    spec.rounds = max_rounds;
    if (spec.linear.workload_rounds > 0) {
      spec.linear.workload_rounds = std::min(spec.linear.workload_rounds, spec.rounds);
    }
    if (spec.series_stride > spec.rounds) spec.series_stride = 0;
  }
  return spec;
}

/// The classic simulation path for the same spec: factory stream + registry
/// engine + RunMarket, with the runner's exact Rng lifecycle.
SimulationResult RunDirect(const ScenarioSpec& spec, StreamFactory* factory) {
  WorkloadInfo info = factory->Prepare(spec);
  std::unique_ptr<PricingEngine> engine = MechanismRegistry::Builtin().Build(spec, info);
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory->CreateStream(spec, &rng);
  SimulationOptions options;
  options.rounds = spec.rounds;
  options.series_stride = spec.series_stride;
  return RunMarket(stream.get(), engine.get(), options, &rng);
}

ScenarioSpec LinearSpec(const std::string& name, int n, int64_t rounds,
                        const std::string& mechanism, uint64_t workload_seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.family = "brokertest";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = mechanism;
  spec.n = n;
  spec.rounds = rounds;
  spec.delta = 0.01;
  spec.linear.num_owners = 200;
  spec.workload_seed = workload_seed;
  spec.sim_seed = 99;
  return spec;
}

std::unique_ptr<PricingEngine> BuildEngine(const ScenarioSpec& spec,
                                           StreamFactory* factory) {
  return MechanismRegistry::Builtin().Build(spec, factory->Prepare(spec));
}

// ------------------------------------------------------ ticket lifecycle

TEST(Broker, TicketLifecycleAndSessionInfo) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("credit/score", 8, 2000, "reserve", 11);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);

  Quote quote;
  ASSERT_TRUE(broker.PostPrice({spec.name, round.features, round.reserve}, &quote).ok());
  EXPECT_NE(quote.ticket, 0u);
  EXPECT_EQ(quote.status, StatusCode::kOk);

  SessionInfo info;
  ASSERT_TRUE(broker.GetSessionInfo(spec.name, &info).ok());
  EXPECT_EQ(info.pending, 1);
  EXPECT_EQ(info.quotes_issued, 1);
  EXPECT_EQ(info.feedback_received, 0);
  EXPECT_EQ(info.counters.rounds, 1);

  EXPECT_TRUE(broker.Observe(quote.ticket, true).ok());
  ASSERT_TRUE(broker.GetSessionInfo(spec.name, &info).ok());
  EXPECT_EQ(info.pending, 0);
  EXPECT_EQ(info.feedback_received, 1);

  // Duplicate feedback: the ticket was retired by its first resolution.
  Status dup = broker.Observe(quote.ticket, true);
  EXPECT_EQ(dup.code(), StatusCode::kNotFound);

  // Tickets are session-scoped: consecutive quotes get distinct ids.
  Quote second;
  stream->Next(&rng, &round);
  ASSERT_TRUE(broker.PostPrice({spec.name, round.features, round.reserve}, &second).ok());
  EXPECT_NE(second.ticket, quote.ticket);
  EXPECT_TRUE(broker.Observe(second.ticket, false).ok());
}

TEST(Broker, MisuseReturnsStatusInsteadOfAborting) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("energy/meter", 6, 2000, "reserve", 13);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());

  // Unknown product.
  std::array<double, 6> x{1, 1, 1, 1, 1, 1};
  Quote quote;
  Status status = broker.PostPrice({"no/such/product", x, 0.5}, &quote);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(quote.ticket, 0u);
  EXPECT_EQ(quote.status, StatusCode::kNotFound);

  // Dimension mismatch.
  std::array<double, 3> short_x{1, 1, 1};
  status = broker.PostPrice({spec.name, short_x, 0.5}, &quote);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(quote.ticket, 0u);
  EXPECT_NE(status.message().find("dimension mismatch"), std::string::npos);

  // Unknown ticket / malformed ticket.
  EXPECT_EQ(broker.Observe(0, true).code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.Observe(uint64_t{7} << 40 | 123, true).code(), StatusCode::kNotFound);

  // Duplicate product.
  status = broker.OpenSession(spec.name, spec, factory.Prepare(spec));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  // Batch span mismatch.
  std::vector<PriceRequest> requests(2);
  std::vector<Quote> quotes(1);
  EXPECT_EQ(broker.PostPrices(requests, quotes).code(), StatusCode::kInvalidArgument);

  // Empty product / null engine at open.
  EXPECT_EQ(broker.OpenSession("", spec, factory.Prepare(spec)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.OpenSession("x", nullptr).code(), StatusCode::kInvalidArgument);

  // Closing makes the product and its tickets unroutable.
  ASSERT_TRUE(broker.PostPrice({spec.name, std::span<const double>(x), 0.5}, &quote).ok());
  ASSERT_TRUE(broker.CloseSession(spec.name).ok());
  EXPECT_EQ(broker.Observe(quote.ticket, true).code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.CloseSession(spec.name).code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.PostPrice({spec.name, x, 0.5}, &quote).code(), StatusCode::kNotFound);
}

TEST(Broker, BatchedPostPricesMatchesSingleRequests) {
  StreamFactory factory;
  ScenarioSpec spec_a = LinearSpec("batch/a", 8, 4000, "reserve", 21);
  ScenarioSpec spec_b = LinearSpec("batch/b", 8, 4000, "reserve+uncertainty", 22);

  // Reference broker priced one by one; batch broker priced through
  // PostPrices with interleaved products. Same engines, same streams.
  Broker single, batched;
  ASSERT_TRUE(single.OpenSession(spec_a.name, spec_a, factory.Prepare(spec_a)).ok());
  ASSERT_TRUE(single.OpenSession(spec_b.name, spec_b, factory.Prepare(spec_b)).ok());
  ASSERT_TRUE(batched.OpenSession(spec_a.name, spec_a, factory.Prepare(spec_a)).ok());
  ASSERT_TRUE(batched.OpenSession(spec_b.name, spec_b, factory.Prepare(spec_b)).ok());

  Rng rng_a(spec_a.sim_seed), rng_b(spec_b.sim_seed);
  std::unique_ptr<QueryStream> stream_a = factory.CreateStream(spec_a, &rng_a);
  std::unique_ptr<QueryStream> stream_b = factory.CreateStream(spec_b, &rng_b);

  constexpr int kBatches = 50;
  constexpr int kPerProduct = 4;
  std::vector<MarketRound> rounds(2 * kPerProduct);
  std::vector<PriceRequest> requests(2 * kPerProduct);
  std::vector<Quote> quotes(2 * kPerProduct);
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int i = 0; i < kPerProduct; ++i) {
      stream_a->Next(&rng_a, &rounds[2 * i]);
      stream_b->Next(&rng_b, &rounds[2 * i + 1]);
      requests[2 * i] = {spec_a.name, rounds[2 * i].features, rounds[2 * i].reserve};
      requests[2 * i + 1] = {spec_b.name, rounds[2 * i + 1].features,
                             rounds[2 * i + 1].reserve};
    }
    // NB: one product sees several outstanding tickets per batch, so the
    // reference path must follow the same op order — all posts, then all
    // feedback — just through the one-at-a-time entry point.
    std::vector<Quote> reference(2 * kPerProduct);
    for (int i = 0; i < 2 * kPerProduct; ++i) {
      ASSERT_TRUE(single.PostPrice(requests[i], &reference[i]).ok());
    }
    ASSERT_TRUE(batched.PostPrices(requests, quotes).ok());
    for (int i = 0; i < 2 * kPerProduct; ++i) {
      EXPECT_EQ(quotes[i].price, reference[i].price);
      EXPECT_EQ(quotes[i].exploratory, reference[i].exploratory);
      EXPECT_EQ(quotes[i].certain_no_sale, reference[i].certain_no_sale);
      bool accepted =
          !reference[i].certain_no_sale && reference[i].price <= rounds[i].value;
      ASSERT_TRUE(single.Observe(reference[i].ticket, accepted).ok());
      ASSERT_TRUE(batched.Observe(quotes[i].ticket, accepted).ok());
    }
  }

  // Both paths left the engines in identical states.
  for (const std::string& product : {spec_a.name, spec_b.name}) {
    SessionSnapshot snap_single, snap_batched;
    ASSERT_TRUE(single.Snapshot(product, &snap_single).ok());
    ASSERT_TRUE(batched.Snapshot(product, &snap_batched).ok());
    EXPECT_EQ(EncodeSessionSnapshot(snap_single), EncodeSessionSnapshot(snap_batched))
        << product;
  }
}

TEST(Broker, BatchedSameProductRunsMatchSingleAcrossTilesAndEngines) {
  // Long same-product runs hit the session's panel path across several
  // kQuoteTile tiles (70 > 2×32), the n = 1 product routes to the interval
  // engine (a per-query loop inside its PostPriceBatch), the risk-averse
  // product to the baseline's own PostPriceBatch, and the kernel product
  // runs the generalized wrapper's skip/panel split. Everything must be
  // bit-identical to the one-at-a-time entry point, tickets included.
  StreamFactory factory;
  ScenarioSpec linear = LinearSpec("tile/linear", 20, 40000, "reserve", 41);
  ScenarioSpec one_d = LinearSpec("tile/interval", 1, 40000, "reserve", 42);
  ScenarioSpec averse = LinearSpec("tile/risk-averse", 8, 40000, "risk-averse", 43);
  const ScenarioSpec* kernel_found =
      ScenarioRegistry::PaperExhibits().Find("kernel/m=10");
  ASSERT_NE(kernel_found, nullptr);
  ScenarioSpec kernel = Capped(*kernel_found, 40000);
  kernel.name = "tile/kernel";

  Broker single, batched;
  for (Broker* broker : {&single, &batched}) {
    ASSERT_TRUE(broker->OpenSession(linear.name, linear, factory.Prepare(linear)).ok());
    ASSERT_TRUE(broker->OpenSession(one_d.name, one_d, factory.Prepare(one_d)).ok());
    ASSERT_TRUE(broker->OpenSession(averse.name, averse, factory.Prepare(averse)).ok());
    ASSERT_TRUE(broker->OpenSession(kernel.name, kernel, factory.Prepare(kernel)).ok());
  }
  struct Run {
    const std::string* product;
    int dim;
    int count;
  };
  const std::array<Run, 4> runs = {{
      {&linear.name, single.FindEngine(linear.name)->input_dim(), 70},
      {&one_d.name, single.FindEngine(one_d.name)->input_dim(), 5},
      {&averse.name, single.FindEngine(averse.name)->input_dim(), 7},
      {&kernel.name, single.FindEngine(kernel.name)->input_dim(), 9},
  }};

  Rng rng(4242);
  constexpr int kBatches = 25;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<Vector> features;
    std::vector<PriceRequest> requests;
    // Requests hold spans into `features`; reserve up front so push_back
    // never reallocates under them.
    size_t total = 0;
    for (const Run& run : runs) total += static_cast<size_t>(run.count);
    features.reserve(total);
    for (const Run& run : runs) {
      for (int i = 0; i < run.count; ++i) {
        features.push_back(rng.GaussianVector(run.dim));
        // Reserves reach high enough to trigger certain-no-sale skips (and
        // the generalized wrapper's link-range skip) inside a panel.
        requests.push_back({*run.product, features.back(), rng.NextUniform(0.0, 1.5)});
      }
    }
    std::vector<Quote> reference(requests.size());
    std::vector<Quote> quotes(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(single.PostPrice(requests[i], &reference[i]).ok());
    }
    ASSERT_TRUE(batched.PostPrices(requests, quotes).ok());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(quotes[i].ticket, reference[i].ticket) << "batch=" << batch << " i=" << i;
      ASSERT_EQ(quotes[i].price, reference[i].price) << "batch=" << batch << " i=" << i;
      ASSERT_EQ(quotes[i].exploratory, reference[i].exploratory);
      ASSERT_EQ(quotes[i].certain_no_sale, reference[i].certain_no_sale);
      bool accepted = rng.NextUniform(0.0, 1.0) < 0.5;
      ASSERT_TRUE(single.Observe(reference[i].ticket, accepted).ok());
      ASSERT_TRUE(batched.Observe(quotes[i].ticket, accepted).ok());
    }
  }

  for (const Run& run : runs) {
    SessionSnapshot snap_single, snap_batched;
    ASSERT_TRUE(single.Snapshot(*run.product, &snap_single).ok());
    ASSERT_TRUE(batched.Snapshot(*run.product, &snap_batched).ok());
    EXPECT_EQ(EncodeSessionSnapshot(snap_single), EncodeSessionSnapshot(snap_batched))
        << *run.product;
  }
}

// --------------------------------------------- bit-identity with RunMarket

TEST(BrokerDriver, ImmediateFeedbackBitIdenticalToRunMarketForFig5aAndTable1) {
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();
  StreamFactory factory;
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : registry.Match("fig5a")) {
    specs.push_back(Capped(spec, 1500));
  }
  for (const ScenarioSpec& spec : registry.Match("table1")) {
    specs.push_back(Capped(spec, 1500));
  }
  ASSERT_EQ(specs.size(), 10u);

  for (const ScenarioSpec& spec : specs) {
    SimulationResult direct = RunDirect(spec, &factory);
    BrokerRunOutcome broker = RunScenarioThroughBroker(spec, &factory);

    // Bit-identical accounting: double comparisons are exact on purpose.
    EXPECT_EQ(broker.result.tracker.cumulative_regret(),
              direct.tracker.cumulative_regret())
        << spec.name;
    EXPECT_EQ(broker.result.tracker.cumulative_revenue(),
              direct.tracker.cumulative_revenue())
        << spec.name;
    EXPECT_EQ(broker.result.tracker.cumulative_value(),
              direct.tracker.cumulative_value())
        << spec.name;
    EXPECT_EQ(broker.result.tracker.sales(), direct.tracker.sales()) << spec.name;
    EXPECT_EQ(broker.result.engine_counters.exploratory_rounds,
              direct.engine_counters.exploratory_rounds)
        << spec.name;
    EXPECT_EQ(broker.result.engine_counters.cuts_applied,
              direct.engine_counters.cuts_applied)
        << spec.name;
    EXPECT_EQ(broker.result.engine_counters.skipped_rounds,
              direct.engine_counters.skipped_rounds)
        << spec.name;
  }
}

TEST(BrokerDriver, BitIdenticalOnKernelAndOneDimensionalSpecs) {
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();
  StreamFactory factory;
  for (const char* name : {"kernel/m=10", "theorem3/T=1000"}) {
    const ScenarioSpec* found = registry.Find(name);
    ASSERT_NE(found, nullptr) << name;
    ScenarioSpec spec = Capped(*found, 1000);
    SimulationResult direct = RunDirect(spec, &factory);
    BrokerRunOutcome broker = RunScenarioThroughBroker(spec, &factory);
    EXPECT_EQ(broker.result.tracker.cumulative_regret(),
              direct.tracker.cumulative_regret())
        << name;
    EXPECT_EQ(broker.result.tracker.sales(), direct.tracker.sales()) << name;
    EXPECT_EQ(broker.result.engine_counters.cuts_applied,
              direct.engine_counters.cuts_applied)
        << name;
  }
}

// --------------------------------------------- delayed / interleaved feedback

// Drives one product's rounds through `broker` with per-product alternation
// but under an external scheduler: NextOp()==true posts, false delivers the
// oldest pending feedback.
class ProductScript {
 public:
  ProductScript(ScenarioSpec spec, StreamFactory* factory, Broker* broker)
      : spec_(std::move(spec)), broker_(broker) {
    WorkloadInfo info = factory->Prepare(spec_);
    Status status = broker_->OpenSession(spec_.name, spec_, info);
    PDM_CHECK(status.ok());
    rng_ = std::make_unique<Rng>(spec_.sim_seed);
    stream_ = factory->CreateStream(spec_, rng_.get());
    stream_->BindEngine(broker_->FindEngine(spec_.name));
  }

  bool CanPost() const { return posted_ < spec_.rounds && !awaiting_feedback_; }
  bool CanObserve() const { return awaiting_feedback_; }
  bool Done() const { return posted_ == spec_.rounds && !awaiting_feedback_; }

  void Post() {
    stream_->Next(rng_.get(), &round_);
    Quote quote;
    Status status =
        broker_->PostPrice({spec_.name, round_.features, round_.reserve}, &quote);
    ASSERT_TRUE(status.ok()) << status.ToString();
    pending_ticket_ = quote.ticket;
    pending_accept_ = !quote.certain_no_sale && quote.price <= round_.value;
    awaiting_feedback_ = true;
    ++posted_;
  }

  void Observe() {
    Status status = broker_->Observe(pending_ticket_, pending_accept_);
    ASSERT_TRUE(status.ok()) << status.ToString();
    awaiting_feedback_ = false;
  }

  const std::string& product() const { return spec_.name; }

 private:
  ScenarioSpec spec_;
  Broker* broker_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<QueryStream> stream_;
  MarketRound round_;
  int64_t posted_ = 0;
  bool awaiting_feedback_ = false;
  uint64_t pending_ticket_ = 0;
  bool pending_accept_ = false;
};

TEST(Broker, AnyCrossProductInterleavingMatchesSequentialExecution) {
  constexpr int64_t kRounds = 600;
  StreamFactory factory;
  auto spec_a = LinearSpec("interleave/a", 8, kRounds, "reserve", 31);
  auto spec_b = LinearSpec("interleave/b", 10, kRounds, "reserve+uncertainty", 32);

  // Sequential reference: each product runs start-to-finish on its own.
  std::string reference_a, reference_b;
  {
    Broker broker;
    ProductScript a(spec_a, &factory, &broker);
    while (!a.Done()) {
      a.Post();
      a.Observe();
    }
    ProductScript b(spec_b, &factory, &broker);
    while (!b.Done()) {
      b.Post();
      b.Observe();
    }
    SessionSnapshot snap;
    ASSERT_TRUE(broker.Snapshot(spec_a.name, &snap).ok());
    reference_a = EncodeSessionSnapshot(snap);
    ASSERT_TRUE(broker.Snapshot(spec_b.name, &snap).ok());
    reference_b = EncodeSessionSnapshot(snap);
  }

  // Property: every random legal interleaving reproduces both reference
  // states exactly. The scheduler draws from a seeded Rng per trial.
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Broker broker;
    ProductScript a(spec_a, &factory, &broker);
    ProductScript b(spec_b, &factory, &broker);
    Rng scheduler(1000 + trial);
    int cross_product_delays = 0;
    while (!a.Done() || !b.Done()) {
      // Collect the legal moves, then pick one uniformly.
      struct Move {
        ProductScript* script;
        bool post;
      };
      std::vector<Move> moves;
      if (a.CanPost()) moves.push_back({&a, true});
      if (a.CanObserve()) moves.push_back({&a, false});
      if (b.CanPost()) moves.push_back({&b, true});
      if (b.CanObserve()) moves.push_back({&b, false});
      ASSERT_FALSE(moves.empty());
      const Move& move = moves[scheduler.NextUint64() % moves.size()];
      if (move.post) {
        move.script->Post();
      } else {
        move.script->Observe();
      }
      if (a.CanObserve() && b.CanObserve()) ++cross_product_delays;
      if (HasFatalFailure()) return;
    }
    // The schedule really interleaved (both products held open tickets).
    EXPECT_GT(cross_product_delays, 0);

    SessionSnapshot snap;
    ASSERT_TRUE(broker.Snapshot(spec_a.name, &snap).ok());
    EXPECT_EQ(EncodeSessionSnapshot(snap), reference_a) << "trial " << trial;
    ASSERT_TRUE(broker.Snapshot(spec_b.name, &snap).ok());
    EXPECT_EQ(EncodeSessionSnapshot(snap), reference_b) << "trial " << trial;
  }
}

TEST(Broker, OutOfOrderFeedbackWithinAProductIsAcceptedAndDeterministic) {
  // Within one product, delayed feedback is *legal* (cuts apply in arrival
  // order with posting-time context, DESIGN.md §9); this pins that the
  // broker accepts it and that the outcome is a deterministic function of
  // the arrival order.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("ooo/a", 8, 4000, "reserve", 41);

  auto run_with_order = [&](bool reverse) {
    Broker broker;
    PDM_CHECK(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    MarketRound round;
    constexpr int kWindow = 8;
    std::array<Quote, kWindow> quotes;
    std::array<bool, kWindow> accepts{};
    for (int block = 0; block < 40; ++block) {
      for (int i = 0; i < kWindow; ++i) {
        stream->Next(&rng, &round);
        Status status =
            broker.PostPrice({spec.name, round.features, round.reserve}, &quotes[i]);
        PDM_CHECK(status.ok());
        accepts[i] = !quotes[i].certain_no_sale && quotes[i].price <= round.value;
      }
      for (int i = 0; i < kWindow; ++i) {
        int j = reverse ? kWindow - 1 - i : i;
        PDM_CHECK(broker.Observe(quotes[j].ticket, accepts[j]).ok());
      }
    }
    SessionSnapshot snap;
    PDM_CHECK(broker.Snapshot(spec.name, &snap).ok());
    return EncodeSessionSnapshot(snap);
  };

  std::string in_order_1 = run_with_order(false);
  std::string in_order_2 = run_with_order(false);
  std::string reversed = run_with_order(true);
  EXPECT_EQ(in_order_1, in_order_2);  // deterministic
  // The cut sequences genuinely differ between arrival orders (the engine
  // state diverges), yet both are serviced without error.
  EXPECT_NE(in_order_1, reversed);
}

// ------------------------------------------------------- snapshot / restore

TEST(BrokerSnapshot, CodecRoundTripsByteExactly) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("snap/codec", 8, 2000, "reserve+uncertainty", 51);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  // Leave two tickets open so the pending table is exercised.
  Quote open_a, open_b;
  for (int t = 0; t < 200; ++t) {
    stream->Next(&rng, &round);
    Quote quote;
    ASSERT_TRUE(broker.PostPrice({spec.name, round.features, round.reserve}, &quote).ok());
    if (t < 198) {
      ASSERT_TRUE(
          broker.Observe(quote.ticket, quote.price <= round.value && !quote.certain_no_sale)
              .ok());
    } else if (t == 198) {
      open_a = quote;
    } else {
      open_b = quote;
    }
  }

  SessionSnapshot snap;
  ASSERT_TRUE(broker.Snapshot(spec.name, &snap).ok());
  EXPECT_EQ(snap.pending.size(), 2u);
  EXPECT_EQ(snap.quotes_issued, 200);
  EXPECT_EQ(snap.feedback_received, 198);

  std::string bytes = EncodeSessionSnapshot(snap);
  SessionSnapshot decoded;
  Status status = DecodeSessionSnapshot(bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Decode → encode is byte-identical (doubles travel as bit patterns).
  EXPECT_EQ(EncodeSessionSnapshot(decoded), bytes);
  EXPECT_EQ(decoded.product, spec.name);
  EXPECT_EQ(decoded.engine.engine, "ellipsoid");
  EXPECT_EQ(decoded.engine.dim, 8);
  EXPECT_EQ(decoded.pending.size(), 2u);
  EXPECT_EQ(decoded.pending[0].ticket, open_a.ticket);
  EXPECT_EQ(decoded.pending[1].ticket, open_b.ticket);

  // Corruption and truncation decode to a Status, never UB/abort: a cut
  // inside the 8-byte magic is not a pdm.snap document (InvalidArgument), a
  // cut after it is a damaged envelope (DataLoss).
  for (size_t cut : {size_t{0}, size_t{4}, size_t{11}, bytes.size() / 2,
                     bytes.size() - 1}) {
    SessionSnapshot scratch;
    EXPECT_EQ(DecodeSessionSnapshot(std::string_view(bytes).substr(0, cut), &scratch)
                  .code(),
              cut < 8 ? StatusCode::kInvalidArgument : StatusCode::kDataLoss)
        << cut;
  }
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  SessionSnapshot scratch;
  EXPECT_EQ(DecodeSessionSnapshot(corrupt, &scratch).code(),
            StatusCode::kInvalidArgument);
}

/// Lowercase hex of a byte string, so a golden mismatch prints readably.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

/// A snapshot built from fixed dyadic values rather than an engine run, so
/// its bytes do not depend on the FP kernels or the ISA: a dim-2 ellipsoid,
/// two pending tickets, a ticket table with a free stack and a retired
/// count, and value totals.
SessionSnapshot GoldenSnapshot() {
  SessionSnapshot snap;
  snap.product = "golden/p";
  EngineSnapshot& e = snap.engine;
  e.engine = "ellipsoid";
  e.dim = 2;
  e.epsilon = 0.125;
  e.delta = 0.5;
  e.center = {0.25, -1.5};
  e.shape = Matrix(2, 2);
  e.shape(0, 0) = 2.0;
  e.shape(0, 1) = 0.5;
  e.shape(1, 0) = 0.5;
  e.shape(1, 1) = 1.0;
  e.cuts_since_symmetrize = 3;
  e.counters = {7, 4, 2, 1, 3, 1};
  snap.quotes_issued = 9;
  snap.feedback_received = 7;
  const uint64_t base = PricingSession::kDefaultTicketBase;
  PendingTicketState first;
  first.ticket = base | (uint64_t{1} << PricingSession::kGenBits) | 5;
  first.posted_price = 0.75;
  first.cut.kind = 1;
  first.cut.price = 0.75;
  first.cut.support = {-0.5, 2.0, 1.25, 0.75, {1.0, -0.25}};
  PendingTicketState second;
  second.ticket = base | 6;
  second.posted_price = 0.5;
  second.cut.kind = 2;
  second.cut.price = 0.5;
  second.cut.support = {0.25, 1.25, 0.5, 0.75, {0.5, 0.125}};
  snap.pending = {first, second};
  snap.posted_value = 6.5;
  snap.accepted_value = 3.25;
  snap.slot_generations = {6, 5, 2};
  snap.free_slots = {2};
  snap.slots_retired = 1;
  return snap;
}

TEST(BrokerSnapshot, EncodesGoldenBytes) {
  const std::string bytes = EncodeSessionSnapshot(GoldenSnapshot());
  EXPECT_EQ(Hex(bytes),
            "50444d534e41503202000000b501000050444d534e4150310100000008000000"
            "676f6c64656e2f7009000000656c6c6970736f696402000000000000000000c0"
            "3f000000000000e03f02000000000000000000d03f000000000000f8bf020000"
            "00020000000000000000000040000000000000e03f000000000000e03f000000"
            "000000f03f030000000000000000000000000000000000000007000000000000"
            "0004000000000000000200000000000000010000000000000003000000000000"
            "0001000000000000000900000000000000070000000000000002000000050010"
            "000001000001000000000000000000e83f000000000000000000000000000000"
            "e0bf0000000000000040000000000000f43f000000000000e83f020000000000"
            "00000000f03f000000000000d0bf060000000001000002000000000000000000"
            "e03f000000000000000000000000000000d03f000000000000f43f0000000000"
            "00e03f000000000000e83f02000000000000000000e03f000000000000c03f01"
            "0300000006000000050000000200000001000000020000000100000000000000"
            "020000000000001a400000000000000a4002000000000000000000e83f000000"
            "000000e03f516c3af7");
  SessionSnapshot decoded;
  ASSERT_TRUE(DecodeSessionSnapshot(bytes, &decoded).ok());
  EXPECT_EQ(EncodeSessionSnapshot(decoded), bytes);
}

TEST(BrokerSnapshot, RestoreResumesMidSimulationWithIdenticalPrices) {
  constexpr int64_t kTotal = 3000;
  constexpr int64_t kCheckpoint = 1100;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("snap/resume", 10, kTotal, "reserve", 61);

  // Record the full query sequence once so both halves see identical input.
  std::vector<MarketRound> rounds(kTotal);
  factory.Prepare(spec);
  {
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    for (int64_t t = 0; t < kTotal; ++t) stream->Next(&rng, &rounds[t]);
  }

  auto drive = [&](Broker* broker, int64_t from, int64_t to,
                   std::vector<double>* prices) {
    for (int64_t t = from; t < to; ++t) {
      Quote quote;
      Status status =
          broker->PostPrice({spec.name, rounds[t].features, rounds[t].reserve}, &quote);
      PDM_CHECK(status.ok());
      PDM_CHECK(
          broker->Observe(quote.ticket,
                          !quote.certain_no_sale && quote.price <= rounds[t].value)
              .ok());
      if (prices != nullptr) prices->push_back(quote.price);
    }
  };

  // Uninterrupted run.
  std::vector<double> uninterrupted;
  std::string checkpoint_bytes;
  {
    Broker broker;
    ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
    drive(&broker, 0, kCheckpoint, nullptr);
    SessionSnapshot snap;
    ASSERT_TRUE(broker.Snapshot(spec.name, &snap).ok());
    checkpoint_bytes = EncodeSessionSnapshot(snap);
    drive(&broker, kCheckpoint, kTotal, &uninterrupted);
  }

  // A fresh broker + fresh engine, resumed from the serialized checkpoint —
  // the migration path. Subsequent prices must be identical bit for bit.
  std::vector<double> resumed;
  {
    Broker broker;
    ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
    SessionSnapshot snap;
    ASSERT_TRUE(DecodeSessionSnapshot(checkpoint_bytes, &snap).ok());
    Status status = broker.Restore(spec.name, snap);
    ASSERT_TRUE(status.ok()) << status.ToString();
    SessionInfo info;
    ASSERT_TRUE(broker.GetSessionInfo(spec.name, &info).ok());
    EXPECT_EQ(info.quotes_issued, kCheckpoint);
    EXPECT_EQ(info.counters.rounds, kCheckpoint);
    drive(&broker, kCheckpoint, kTotal, &resumed);
  }

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_EQ(resumed[i], uninterrupted[i]) << "diverged at resumed round " << i;
  }
}

TEST(BrokerSnapshot, RestoreRejectsMismatchedEngine) {
  StreamFactory factory;
  ScenarioSpec spec8 = LinearSpec("mismatch/n8", 8, 1000, "reserve", 71);
  ScenarioSpec spec12 = LinearSpec("mismatch/n12", 12, 1000, "reserve", 72);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec8.name, spec8, factory.Prepare(spec8)).ok());
  ASSERT_TRUE(broker.OpenSession(spec12.name, spec12, factory.Prepare(spec12)).ok());

  SessionSnapshot snap;
  ASSERT_TRUE(broker.Snapshot(spec8.name, &snap).ok());
  // Same family, wrong dimension → refused, state untouched.
  EXPECT_EQ(broker.Restore(spec12.name, snap).code(), StatusCode::kFailedPrecondition);
}

TEST(BrokerSnapshot, RestoreRefusesCutsTheEngineCannotApply) {
  // A CRC-valid snapshot may still carry a pending cut this engine cannot
  // apply. Restoring it must fail with a Status — not succeed and abort the
  // process on the ticket's feedback.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("snap/bad-cut", 6, 500, "pure", 81);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  Quote quote;
  ASSERT_TRUE(broker.PostPrice({spec.name, round.features, round.reserve}, &quote).ok());
  ASSERT_TRUE(quote.exploratory);
  SessionSnapshot snap;
  ASSERT_TRUE(broker.Snapshot(spec.name, &snap).ok());
  ASSERT_EQ(snap.pending.size(), 1u);
  ASSERT_GT(snap.pending[0].cut.support.half_width, 0.0);

  // Each damaged cut travels through the real encoder and decoder, so it
  // reaches Restore inside an intact envelope.
  auto round_trip_with = [&snap](void (*damage)(PendingCut*)) {
    SessionSnapshot damaged = snap;
    damage(&damaged.pending[0].cut);
    SessionSnapshot decoded;
    PDM_CHECK(DecodeSessionSnapshot(EncodeSessionSnapshot(damaged), &decoded).ok());
    return decoded;
  };
  // (a) A support direction too short for the dim-6 knowledge set.
  EXPECT_EQ(broker
                .Restore(spec.name, round_trip_with([](PendingCut* cut) {
                           cut->support.direction.resize(2);
                         }))
                .code(),
            StatusCode::kFailedPrecondition);
  // (b) A link-range skip, which only the generalized wrapper issues.
  EXPECT_EQ(broker
                .Restore(spec.name, round_trip_with([](PendingCut* cut) {
                           cut->kind = 0;
                           cut->wrapped_skip = true;
                         }))
                .code(),
            StatusCode::kFailedPrecondition);

  // Both refusals left the session as it was: it resolves its own ticket.
  EXPECT_TRUE(broker.Observe(quote.ticket, false).ok());
  SessionInfo info;
  ASSERT_TRUE(broker.GetSessionInfo(spec.name, &info).ok());
  EXPECT_EQ(info.pending, 0);
  EXPECT_EQ(info.feedback_received, 1);
}

TEST(BrokerSnapshot, EachEngineAcceptsExactlyTheCutsItIssues) {
  const double x[4] = {0.3, -0.2, 0.4, 0.1};
  const double reserve = 0.0;
  const double unsellable = 1.5;  // ≥ sup of the logistic link
  PostedPrice posted;
  auto issue = [&](PricingEngine* engine, const double* reserves) {
    PendingCut cut;
    PendingCut* cuts[1] = {&cut};
    engine->PostPriceBatch(x, 1, reserves, &posted, cuts);
    return cut;
  };

  EllipsoidEngineConfig config;
  config.dim = 4;
  config.horizon = 1000;
  config.initial_radius = 2.0;
  EllipsoidPricingEngine ellipsoid(config);
  const PendingCut cut = issue(&ellipsoid, &reserve);
  ASSERT_GT(cut.support.half_width, 0.0);
  EXPECT_TRUE(ellipsoid.AcceptsCut(cut));
  PendingCut bad = cut;
  bad.support.direction.resize(2);
  EXPECT_FALSE(ellipsoid.AcceptsCut(bad));
  bad = cut;
  bad.support.half_width = 0.0;  // a degenerate probe needs no direction
  bad.support.direction.clear();
  EXPECT_TRUE(ellipsoid.AcceptsCut(bad));
  for (int kind : {0, 4, -1}) {
    bad = cut;
    bad.kind = kind;
    EXPECT_FALSE(ellipsoid.AcceptsCut(bad)) << kind;
  }
  bad = cut;
  bad.wrapped_skip = true;
  EXPECT_FALSE(ellipsoid.AcceptsCut(bad));

  GeneralizedPricingEngine wrapped(std::make_unique<EllipsoidPricingEngine>(config),
                                   std::make_shared<LogisticLink>(0.0),
                                   std::make_shared<IdentityFeatureMap>());
  const PendingCut skip = issue(&wrapped, &unsellable);
  ASSERT_TRUE(skip.wrapped_skip);
  EXPECT_TRUE(wrapped.AcceptsCut(skip));
  EXPECT_FALSE(ellipsoid.AcceptsCut(skip));
  bad = skip;
  bad.kind = 1;
  EXPECT_FALSE(wrapped.AcceptsCut(bad));
  EXPECT_TRUE(wrapped.AcceptsCut(issue(&wrapped, &reserve)));

  IntervalPricingEngine interval(IntervalEngineConfig{});
  const PendingCut scalar = issue(&interval, &reserve);
  EXPECT_TRUE(interval.AcceptsCut(scalar));
  bad = scalar;
  bad.kind = 4;
  EXPECT_FALSE(interval.AcceptsCut(bad));
  bad = scalar;
  bad.wrapped_skip = true;
  EXPECT_FALSE(interval.AcceptsCut(bad));

  ReservePriceBaseline baseline(4);
  const PendingCut marker = issue(&baseline, &reserve);
  EXPECT_TRUE(baseline.AcceptsCut(marker));
  bad = marker;
  bad.kind = 2;
  EXPECT_FALSE(baseline.AcceptsCut(bad));
}

// ------------------------------------------------------- handle fast path

TEST(BrokerHandle, ResolveAndHandlePathMatchesNamePath) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("handle/match", 8, 3000, "reserve", 101);

  Broker by_name, by_handle;
  ASSERT_TRUE(by_name.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
  ASSERT_TRUE(by_handle.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
  ProductHandle handle;
  ASSERT_TRUE(by_handle.Resolve(spec.name, &handle).ok());
  ASSERT_TRUE(handle.valid());

  Rng rng_a(spec.sim_seed), rng_b(spec.sim_seed);
  std::unique_ptr<QueryStream> stream_a = factory.CreateStream(spec, &rng_a);
  std::unique_ptr<QueryStream> stream_b = factory.CreateStream(spec, &rng_b);
  MarketRound round_a, round_b;
  for (int t = 0; t < 500; ++t) {
    stream_a->Next(&rng_a, &round_a);
    stream_b->Next(&rng_b, &round_b);
    Quote quote_a, quote_b;
    ASSERT_TRUE(
        by_name.PostPrice({spec.name, round_a.features, round_a.reserve}, &quote_a)
            .ok());
    ASSERT_TRUE(
        by_handle.PostPrice(handle, round_b.features, round_b.reserve, &quote_b).ok());
    ASSERT_EQ(quote_a.price, quote_b.price);
    ASSERT_EQ(quote_a.ticket, quote_b.ticket);
    bool accepted = !quote_a.certain_no_sale && quote_a.price <= round_a.value;
    ASSERT_TRUE(by_name.Observe(quote_a.ticket, accepted).ok());
    ASSERT_TRUE(by_handle.Observe(quote_b.ticket, accepted).ok());
  }

  // The diagnostic observer routes identically too.
  ValueInterval via_name, via_handle;
  ASSERT_TRUE(by_name.EstimateValue(spec.name, round_a.features, &via_name).ok());
  ASSERT_TRUE(by_handle.EstimateValue(handle, round_b.features, &via_handle).ok());
  EXPECT_EQ(via_name.lower, via_handle.lower);
  EXPECT_EQ(via_name.upper, via_handle.upper);
}

TEST(BrokerHandle, StaleHandleMisuseReturnsStatusInsteadOfAborting) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("handle/stale", 6, 2000, "reserve", 103);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());

  ProductHandle handle;
  ASSERT_TRUE(broker.Resolve(spec.name, &handle).ok());
  std::array<double, 6> x{1, 1, 1, 1, 1, 1};
  Quote quote;
  ASSERT_TRUE(broker.PostPrice(handle, x, 0.2, &quote).ok());
  ASSERT_TRUE(broker.Observe(quote.ticket, true).ok());

  // Closing kills the handle...
  ASSERT_TRUE(broker.CloseSession(spec.name).ok());
  Status stale = broker.PostPrice(handle, x, 0.2, &quote);
  EXPECT_EQ(stale.code(), StatusCode::kNotFound);
  EXPECT_EQ(quote.ticket, 0u);
  EXPECT_EQ(quote.status, StatusCode::kNotFound);
  EXPECT_EQ(broker.EstimateValue(handle, x, nullptr).code(), StatusCode::kNotFound);

  // ...and reopening the same name revives the *product* but not the old
  // handle: slots are never reused, so the stale handle stays dead forever.
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
  EXPECT_EQ(broker.PostPrice(handle, x, 0.2, &quote).code(), StatusCode::kNotFound);
  ProductHandle fresh;
  ASSERT_TRUE(broker.Resolve(spec.name, &fresh).ok());
  EXPECT_NE(fresh, handle);
  EXPECT_TRUE(broker.PostPrice(fresh, x, 0.2, &quote).ok());
  ASSERT_TRUE(broker.Observe(quote.ticket, false).ok());

  // Default-constructed and out-of-range handles are plain NotFound.
  EXPECT_EQ(broker.PostPrice(ProductHandle{}, x, 0.2, &quote).code(),
            StatusCode::kNotFound);
  ProductHandle forged;
  forged.index = 12345;
  forged.generation = 1;
  EXPECT_EQ(broker.PostPrice(forged, x, 0.2, &quote).code(), StatusCode::kNotFound);

  // Unknown product resolves to an invalid handle + NotFound.
  ProductHandle unknown;
  EXPECT_EQ(broker.Resolve("no/such/product", &unknown).code(), StatusCode::kNotFound);
  EXPECT_FALSE(unknown.valid());
}

TEST(BrokerHandle, BatchedHandleAndFeedbackPathsMatchSingleRequests) {
  StreamFactory factory;
  ScenarioSpec spec_a = LinearSpec("hbatch/a", 8, 4000, "reserve", 105);
  ScenarioSpec spec_b = LinearSpec("hbatch/b", 8, 4000, "reserve+uncertainty", 106);

  Broker single, batched;
  for (Broker* broker : {&single, &batched}) {
    ASSERT_TRUE(broker->OpenSession(spec_a.name, spec_a, factory.Prepare(spec_a)).ok());
    ASSERT_TRUE(broker->OpenSession(spec_b.name, spec_b, factory.Prepare(spec_b)).ok());
  }
  ProductHandle handle_a, handle_b;
  ASSERT_TRUE(batched.Resolve(spec_a.name, &handle_a).ok());
  ASSERT_TRUE(batched.Resolve(spec_b.name, &handle_b).ok());

  Rng rng_a(spec_a.sim_seed), rng_b(spec_b.sim_seed);
  std::unique_ptr<QueryStream> stream_a = factory.CreateStream(spec_a, &rng_a);
  std::unique_ptr<QueryStream> stream_b = factory.CreateStream(spec_b, &rng_b);

  constexpr int kBatches = 50;
  constexpr int kPerProduct = 4;
  std::vector<MarketRound> rounds(2 * kPerProduct);
  std::vector<HandleRequest> requests(2 * kPerProduct);
  std::vector<Quote> quotes(2 * kPerProduct);
  std::vector<FeedbackRequest> feedback(2 * kPerProduct);
  std::vector<StatusCode> codes(2 * kPerProduct);
  for (int batch = 0; batch < kBatches; ++batch) {
    // Interleave the two products inside one batch, so the grouped path
    // must visit non-consecutive entries per session.
    for (int i = 0; i < kPerProduct; ++i) {
      stream_a->Next(&rng_a, &rounds[2 * i]);
      stream_b->Next(&rng_b, &rounds[2 * i + 1]);
      requests[2 * i] = {handle_a, rounds[2 * i].features, rounds[2 * i].reserve};
      requests[2 * i + 1] = {handle_b, rounds[2 * i + 1].features,
                             rounds[2 * i + 1].reserve};
    }
    std::vector<Quote> reference(2 * kPerProduct);
    for (int i = 0; i < 2 * kPerProduct; ++i) {
      ASSERT_TRUE(
          single
              .PostPrice({i % 2 == 0 ? spec_a.name : spec_b.name,
                          rounds[i].features, rounds[i].reserve},
                         &reference[i])
              .ok());
    }
    ASSERT_TRUE(batched.PostPrices(std::span<const HandleRequest>(requests), quotes)
                    .ok());
    for (int i = 0; i < 2 * kPerProduct; ++i) {
      EXPECT_EQ(quotes[i].price, reference[i].price);
      EXPECT_EQ(quotes[i].ticket, reference[i].ticket);
      bool accepted =
          !reference[i].certain_no_sale && reference[i].price <= rounds[i].value;
      ASSERT_TRUE(single.Observe(reference[i].ticket, accepted).ok());
      feedback[i] = {quotes[i].ticket, accepted};
    }
    ASSERT_TRUE(batched.Observes(feedback, codes).ok());
    for (StatusCode code : codes) ASSERT_EQ(code, StatusCode::kOk);
  }

  for (const std::string& product : {spec_a.name, spec_b.name}) {
    SessionSnapshot snap_single, snap_batched;
    ASSERT_TRUE(single.Snapshot(product, &snap_single).ok());
    ASSERT_TRUE(batched.Snapshot(product, &snap_batched).ok());
    EXPECT_EQ(EncodeSessionSnapshot(snap_single), EncodeSessionSnapshot(snap_batched))
        << product;
  }

  // Per-item codes surface failures without aborting the batch: replaying
  // the last feedback batch hits only already-resolved tickets.
  Status replay = batched.Observes(feedback, codes);
  EXPECT_EQ(replay.code(), StatusCode::kNotFound);
  for (StatusCode code : codes) EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST(Broker, BatchedFirstErrorIsLowestBatchPosition) {
  // The batch Status contract: groups execute in leader order, but the
  // returned Status is the failure at the lowest batch *position* — whether
  // it came from name resolution or the session level.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("batcherr/a", 6, 2000, "reserve", 121);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());

  std::array<double, 6> x{0.2, 0.4, 0.1, 0.3, 0.5, 0.2};
  std::array<double, 3> short_x{1, 1, 1};
  std::vector<Quote> quotes(2);

  // Session-level failure at position 0 beats a resolve failure at 1.
  std::vector<PriceRequest> requests = {{spec.name, short_x, 0.1},
                                        {"no/such/product", x, 0.1}};
  Status status = broker.PostPrices(requests, quotes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(quotes[0].status, StatusCode::kInvalidArgument);
  EXPECT_EQ(quotes[1].status, StatusCode::kNotFound);

  // Swapped, the resolve failure wins and keeps its product-naming message.
  requests = {{"no/such/product", x, 0.1}, {spec.name, short_x, 0.1}};
  status = broker.PostPrices(requests, quotes);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("no/such/product"), std::string::npos);
}

TEST(Broker, ConcurrentDirectoryMutationUnderLoad) {
  // The tentpole property of the snapshot directory: AddProduct/
  // RemoveProduct (control plane) racing PostPrice/Observe on *other*
  // products must never block, corrupt, or leak into them. Two stable
  // products take traffic (one via names, one via a pre-resolved handle)
  // while a mutator thread churns open/close on short-lived products and
  // occasionally quotes them. Run under TSan in CI.
  constexpr int64_t kRoundsPerWorker = 4000;
  constexpr int kChurnIterations = 250;
  StreamFactory factory;
  Broker broker;

  ScenarioSpec stable_a = LinearSpec("churn/stable-a", 6, kRoundsPerWorker, "reserve", 111);
  ScenarioSpec stable_b =
      LinearSpec("churn/stable-b", 6, kRoundsPerWorker, "reserve+uncertainty", 112);
  ScenarioSpec churn = LinearSpec("churn/ephemeral", 6, 2000, "reserve", 113);
  ASSERT_TRUE(broker.OpenSession(stable_a.name, stable_a, factory.Prepare(stable_a)).ok());
  ASSERT_TRUE(broker.OpenSession(stable_b.name, stable_b, factory.Prepare(stable_b)).ok());
  // Serial phase: the mutator reuses this info, so Prepare never races the
  // workers' CreateStream calls.
  WorkloadInfo churn_info = factory.Prepare(churn);

  auto worker = [&](const ScenarioSpec& spec, bool use_handle) {
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    ProductHandle handle;
    if (use_handle) PDM_CHECK(broker.Resolve(spec.name, &handle).ok());
    MarketRound round;
    Quote quote;
    for (int64_t t = 0; t < kRoundsPerWorker; ++t) {
      stream->Next(&rng, &round);
      Status status =
          use_handle
              ? broker.PostPrice(handle, round.features, round.reserve, &quote)
              : broker.PostPrice({spec.name, round.features, round.reserve}, &quote);
      PDM_CHECK(status.ok());
      PDM_CHECK(broker
                    .Observe(quote.ticket,
                             !quote.certain_no_sale && quote.price <= round.value)
                    .ok());
    }
  };

  std::thread thread_a(worker, stable_a, /*use_handle=*/false);
  std::thread thread_b(worker, stable_b, /*use_handle=*/true);
  std::thread mutator([&] {
    std::array<double, 6> x{0.2, 0.4, 0.1, 0.3, 0.5, 0.2};
    for (int i = 0; i < kChurnIterations; ++i) {
      PDM_CHECK(broker.OpenSession(churn.name, churn, churn_info).ok());
      ProductHandle handle;
      PDM_CHECK(broker.Resolve(churn.name, &handle).ok());
      Quote quote;
      Status status = broker.PostPrice(handle, x, 0.1, &quote);
      PDM_CHECK(status.ok());
      PDM_CHECK(broker.Observe(quote.ticket, false).ok());
      PDM_CHECK(broker.CloseSession(churn.name).ok());
      // A racer may legally see either world; what it must never see is a
      // crash, a deadlock, or traffic bleeding into another product.
      status = broker.PostPrice(handle, x, 0.1, &quote);
      PDM_CHECK(status.code() == StatusCode::kNotFound);
    }
  });
  thread_a.join();
  thread_b.join();
  mutator.join();

  SessionInfo info;
  for (const ScenarioSpec* spec : {&stable_a, &stable_b}) {
    ASSERT_TRUE(broker.GetSessionInfo(spec->name, &info).ok());
    EXPECT_EQ(info.quotes_issued, kRoundsPerWorker) << spec->name;
    EXPECT_EQ(info.feedback_received, kRoundsPerWorker) << spec->name;
    EXPECT_EQ(info.pending, 0) << spec->name;
    EXPECT_EQ(info.counters.rounds, kRoundsPerWorker) << spec->name;
  }
  // The churn product ended closed; its name is gone from the directory.
  EXPECT_EQ(broker.GetSessionInfo(churn.name, &info).code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.session_count(), 2u);
}

// ------------------------------------------- batch driver (serving parity)

TEST(BrokerDriver, BatchRunThroughBrokerMatchesExperimentDriver) {
  // RunScenariosThroughBroker is the serving-side ExperimentDriver::Run:
  // same specs, one shared broker, handle fast path, bit-identical results
  // at any worker count.
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : registry.Match("fig5a")) specs.push_back(spec);
  ASSERT_EQ(specs.size(), 4u);

  scenario::RunOptions options;
  options.max_rounds = 1200;
  options.num_threads = 1;
  scenario::ExperimentDriver driver(options);
  std::vector<scenario::ScenarioOutcome> direct = driver.Run(specs);
  std::vector<scenario::ScenarioOutcome> serial = RunScenariosThroughBroker(specs, options);
  options.num_threads = 4;
  std::vector<scenario::ScenarioOutcome> threaded =
      RunScenariosThroughBroker(specs, options);

  ASSERT_EQ(direct.size(), serial.size());
  ASSERT_EQ(direct.size(), threaded.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    for (const std::vector<scenario::ScenarioOutcome>* outcomes : {&serial, &threaded}) {
      const scenario::ScenarioOutcome& broker_outcome = (*outcomes)[i];
      EXPECT_EQ(broker_outcome.spec.name, direct[i].spec.name);
      EXPECT_EQ(broker_outcome.engine_name, direct[i].engine_name);
      EXPECT_EQ(broker_outcome.result.tracker.cumulative_regret(),
                direct[i].result.tracker.cumulative_regret())
          << direct[i].spec.name;
      EXPECT_EQ(broker_outcome.result.tracker.sales(), direct[i].result.tracker.sales())
          << direct[i].spec.name;
      EXPECT_EQ(broker_outcome.result.engine_counters.cuts_applied,
                direct[i].result.engine_counters.cuts_applied)
          << direct[i].spec.name;
    }
  }
}

// ---------------------------------------------------- generalized wrapper

TEST(BrokerSession, LinkRangeSkipsFlowThroughTickets) {
  // A logistic-link engine proves any reserve ≥ sup g = 1 unsellable; the
  // wrapper short-circuits before the base engine. The session must ticket
  // those rounds too (accounting stays uniform) and resolve them as no-ops.
  EllipsoidEngineConfig base;
  base.dim = 4;
  base.horizon = 1000;
  base.initial_radius = 2.0;
  auto engine = std::make_unique<GeneralizedPricingEngine>(
      std::make_unique<EllipsoidPricingEngine>(base),
      std::make_shared<LogisticLink>(0.0), std::make_shared<IdentityFeatureMap>());
  PricingSession session("ads/ctr", std::move(engine));

  std::array<double, 4> x{0.3, -0.2, 0.4, 0.1};
  Quote quote;
  ASSERT_TRUE(session.PostPrice(x, /*reserve=*/1.5, &quote).ok());
  EXPECT_TRUE(quote.certain_no_sale);
  ASSERT_TRUE(session.Observe(quote.ticket, false).ok());

  // A normal round afterwards still works and cuts.
  ASSERT_TRUE(session.PostPrice(x, /*reserve=*/0.2, &quote).ok());
  EXPECT_FALSE(quote.certain_no_sale);
  ASSERT_TRUE(session.Observe(quote.ticket, true).ok());
  EXPECT_EQ(session.engine().counters().rounds, 1);  // skip never hit the base
}

// ------------------------------------------------------------ concurrency

TEST(Broker, ConcurrentTrafficAcrossProductsIsSafeAndComplete) {
  // One product per thread plus one shared product all threads contend on;
  // run under TSan in CI. Totals must add up exactly afterwards.
  constexpr int kThreads = 4;
  constexpr int64_t kRoundsPerThread = 1500;
  StreamFactory factory;
  Broker broker;

  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < kThreads; ++i) {
    specs.push_back(
        LinearSpec("mt/own" + std::to_string(i), 6, kRoundsPerThread, "reserve", 80 + i));
    ASSERT_TRUE(broker.OpenSession(specs[i].name, specs[i], factory.Prepare(specs[i])).ok());
  }
  ScenarioSpec shared = LinearSpec("mt/shared", 6, kRoundsPerThread, "reserve", 90);
  ASSERT_TRUE(broker.OpenSession(shared.name, shared, factory.Prepare(shared)).ok());

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(specs[i].sim_seed + i);
      std::unique_ptr<QueryStream> own_stream = factory.CreateStream(specs[i], &rng);
      std::unique_ptr<QueryStream> shared_stream = factory.CreateStream(shared, &rng);
      MarketRound round;
      Quote quote;
      for (int64_t t = 0; t < kRoundsPerThread; ++t) {
        own_stream->Next(&rng, &round);
        Status status =
            broker.PostPrice({specs[i].name, round.features, round.reserve}, &quote);
        PDM_CHECK(status.ok());
        PDM_CHECK(broker
                      .Observe(quote.ticket,
                               !quote.certain_no_sale && quote.price <= round.value)
                      .ok());
        shared_stream->Next(&rng, &round);
        status = broker.PostPrice({shared.name, round.features, round.reserve}, &quote);
        PDM_CHECK(status.ok());
        PDM_CHECK(broker
                      .Observe(quote.ticket,
                               !quote.certain_no_sale && quote.price <= round.value)
                      .ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  SessionInfo info;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(broker.GetSessionInfo(specs[i].name, &info).ok());
    EXPECT_EQ(info.quotes_issued, kRoundsPerThread);
    EXPECT_EQ(info.feedback_received, kRoundsPerThread);
    EXPECT_EQ(info.pending, 0);
    EXPECT_EQ(info.counters.rounds, kRoundsPerThread);
  }
  ASSERT_TRUE(broker.GetSessionInfo(shared.name, &info).ok());
  EXPECT_EQ(info.quotes_issued, kThreads * kRoundsPerThread);
  EXPECT_EQ(info.feedback_received, kThreads * kRoundsPerThread);
  EXPECT_EQ(info.pending, 0);
}

// ------------------------------------------ generation wrap refusal (§9)

// The ticket-slot generation saturates at kGenMask instead of wrapping: a
// slot at the bound is retired on resolution, never recycled, so a ticket
// issued 2^20 recycles ago can never alias a fresh quote (ABA). Driving a
// slot to the bound for real takes 2^20 - 1 issues, so the test
// fast-forwards through Restore — pending tickets re-enter the table with
// whatever generation their id encodes.
TEST(BrokerSession, GenerationSaturatesAndRetiresSlotInsteadOfWrapping) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("wrap/session", 4, 100, "reserve", 77);
  PricingSession session("wrap/session", BuildEngine(spec, &factory));

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);

  // One real quote gives the snapshot a genuine pending cut.
  Quote quote;
  ASSERT_TRUE(session.PostPrice(round.features, round.reserve, &quote).ok());
  SessionSnapshot snap;
  ASSERT_TRUE(session.Snapshot(&snap).ok());
  ASSERT_EQ(snap.pending.size(), 1u);

  // Fast-forward: re-enter the table one issue below the generation bound.
  const uint64_t kGenMask = PricingSession::kGenMask;
  uint64_t near_bound = (snap.pending[0].ticket & ~kGenMask) | (kGenMask - 1);
  snap.pending[0].ticket = near_bound;
  ASSERT_TRUE(session.Restore(snap).ok());
  EXPECT_EQ(session.retired_ticket_slots(), 0);

  // Resolving the near-bound ticket recycles the slot one last time...
  ASSERT_TRUE(session.Observe(near_bound, true).ok());
  stream->Next(&rng, &round);
  ASSERT_TRUE(session.PostPrice(round.features, round.reserve, &quote).ok());
  uint64_t at_bound = quote.ticket;
  // ...and the bump saturates exactly at the bound (same slot, generation
  // kGenMask) — it must NOT wrap to a small generation a stale ticket
  // could still carry.
  EXPECT_EQ(at_bound & kGenMask, kGenMask);
  EXPECT_EQ(at_bound >> PricingSession::kGenBits,
            near_bound >> PricingSession::kGenBits);

  // Resolution at the bound retires the slot permanently.
  ASSERT_TRUE(session.Observe(at_bound, false).ok());
  EXPECT_EQ(session.retired_ticket_slots(), 1);
  EXPECT_EQ(session.Observe(at_bound, true).code(), StatusCode::kNotFound);

  // The next quote comes from a FRESH slot, never the retired one.
  stream->Next(&rng, &round);
  ASSERT_TRUE(session.PostPrice(round.features, round.reserve, &quote).ok());
  EXPECT_NE((quote.ticket >> PricingSession::kGenBits) & PricingSession::kSlotMask,
            (at_bound >> PricingSession::kGenBits) & PricingSession::kSlotMask);
  EXPECT_EQ(quote.ticket & kGenMask, 1u);  // fresh slot, first generation
  ASSERT_TRUE(session.Observe(quote.ticket, true).ok());
  EXPECT_EQ(session.retired_ticket_slots(), 1);
  EXPECT_EQ(session.pending_count(), 0);
}

// A ticket restored already AT the bound resolves normally once and its
// slot retires immediately — the session keeps serving from other slots.
TEST(BrokerSession, TicketRestoredAtGenerationBoundRetiresOnResolution) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("wrap/at-bound", 4, 100, "reserve", 78);
  PricingSession session("wrap/at-bound", BuildEngine(spec, &factory));

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  Quote quote;
  ASSERT_TRUE(session.PostPrice(round.features, round.reserve, &quote).ok());
  SessionSnapshot snap;
  ASSERT_TRUE(session.Snapshot(&snap).ok());
  ASSERT_EQ(snap.pending.size(), 1u);

  const uint64_t kGenMask = PricingSession::kGenMask;
  uint64_t at_bound = (snap.pending[0].ticket & ~kGenMask) | kGenMask;
  snap.pending[0].ticket = at_bound;
  ASSERT_TRUE(session.Restore(snap).ok());

  ASSERT_TRUE(session.Observe(at_bound, true).ok());
  EXPECT_EQ(session.retired_ticket_slots(), 1);

  // Serving continues on fresh slots; the engine state is unharmed.
  stream->Next(&rng, &round);
  ASSERT_TRUE(session.PostPrice(round.features, round.reserve, &quote).ok());
  EXPECT_NE((quote.ticket >> PricingSession::kGenBits) & PricingSession::kSlotMask,
            (at_bound >> PricingSession::kGenBits) & PricingSession::kSlotMask);
  ValueInterval interval;
  EXPECT_TRUE(session.EstimateValue(round.features, &interval).ok());
  ASSERT_TRUE(session.Observe(quote.ticket, false).ok());
  EXPECT_EQ(session.pending_count(), 0);
}

// ------------------------------------------------------ cold tier

/// Fresh spill directory for one test (wiped so reruns start clean).
std::string ColdDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/pdm_cold_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Broker, BatchedOpenIsAtomicAndServesEveryProduct) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("batch/base", 6, 2000, "reserve", 31);
  WorkloadInfo info = factory.Prepare(spec);
  Broker broker;

  // Validation failures open nothing.
  std::vector<std::string> dup{"batch/a", "batch/b", "batch/a"};
  Status dup_status = broker.OpenSessions(dup, spec, info);
  EXPECT_EQ(dup_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dup_status.message(), "product 'batch/a' appears twice in the batch");
  EXPECT_EQ(broker.session_count(), 0u);
  std::vector<std::string> with_empty{"batch/a", ""};
  EXPECT_EQ(broker.OpenSessions(with_empty, spec, info).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.session_count(), 0u);

  std::vector<std::string> names;
  for (int i = 0; i < 16; ++i) names.push_back("batch/p" + std::to_string(i));
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  EXPECT_EQ(broker.session_count(), names.size());

  // A batch-opened product collides with later opens like any other.
  EXPECT_EQ(broker.OpenSession("batch/p3", spec, info).code(),
            StatusCode::kFailedPrecondition);

  // Every product serves, and its batch-assigned ticket base routes feedback.
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  for (const std::string& name : names) {
    stream->Next(&rng, &round);
    Quote quote;
    ASSERT_TRUE(broker.PostPrice({name, round.features, round.reserve}, &quote).ok());
    EXPECT_TRUE(broker.Observe(quote.ticket, true).ok());
  }
  BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.open_sessions, names.size());
  EXPECT_EQ(stats.resident_sessions, names.size());
  EXPECT_EQ(stats.slab_live_slots, names.size());
  EXPECT_EQ(stats.slab_tombstoned_slots, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(BrokerColdTier, RandomizedEvictFaultInMatchesNeverEvictedTwinBitwise) {
  // The load-bearing cold-tier pin: a broker that randomly evicts and
  // faults sessions back in must be BIT-identical — every quote, every
  // snapshot byte — to a twin broker that never evicts, including while
  // quotes are outstanding across an eviction.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("cold/base", 8, 4000, "reserve+uncertainty", 21);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr int kProducts = 6;
  std::vector<std::string> names;
  for (int i = 0; i < kProducts; ++i) names.push_back("cold/p" + std::to_string(i));

  BrokerConfig cold_config;
  cold_config.spill_dir = ColdDir("twin");
  Broker cold(cold_config);
  Broker hot;  // no spill_dir: the never-evicted twin
  ASSERT_TRUE(cold.OpenSessions(names, spec, info).ok());
  for (const std::string& name : names) {
    ASSERT_TRUE(hot.OpenSession(name, spec, info).ok());
  }

  // One shared query source so both brokers see identical rounds.
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  Rng control(20240808);
  // Tickets deliberately held pending across evictions, resolved later.
  std::vector<std::pair<uint64_t, uint64_t>> held;  // (cold ticket, hot ticket)

  for (int step = 0; step < 600; ++step) {
    int p = static_cast<int>(control.NextUint64(kProducts));
    stream->Next(&rng, &round);
    Quote cold_quote;
    Quote hot_quote;
    ASSERT_TRUE(
        cold.PostPrice({names[p], round.features, round.reserve}, &cold_quote).ok());
    ASSERT_TRUE(
        hot.PostPrice({names[p], round.features, round.reserve}, &hot_quote).ok());
    ASSERT_EQ(cold_quote.ticket, hot_quote.ticket) << "step " << step;
    ASSERT_EQ(cold_quote.price, hot_quote.price) << "step " << step;
    ASSERT_EQ(cold_quote.certain_no_sale, hot_quote.certain_no_sale);
    bool accepted = (control.NextUint64(3) != 0);
    if (control.NextUint64(4) == 0 && held.size() < 32) {
      held.emplace_back(cold_quote.ticket, hot_quote.ticket);
    } else {
      ASSERT_EQ(cold.Observe(cold_quote.ticket, accepted).code(),
                hot.Observe(hot_quote.ticket, accepted).code());
    }
    if (control.NextUint64(10) == 0) {
      // Evict down to a random residency target; the twin never evicts.
      cold.EvictIdleSessions(control.NextUint64(kProducts));
    }
    if (control.NextUint64(8) == 0 && !held.empty()) {
      size_t h = control.NextUint64(held.size());
      bool late_accept = (control.NextUint64(2) == 0);
      ASSERT_EQ(cold.Observe(held[h].first, late_accept).code(),
                hot.Observe(held[h].second, late_accept).code());
      held.erase(held.begin() + static_cast<ptrdiff_t>(h));
    }
    if (step % 100 == 99) {
      // Mid-run snapshots must agree byte for byte — even for products
      // currently sitting in the cold tier (Snapshot faults them in).
      for (const std::string& name : names) {
        SessionSnapshot cold_snap;
        SessionSnapshot hot_snap;
        ASSERT_TRUE(cold.Snapshot(name, &cold_snap).ok());
        ASSERT_TRUE(hot.Snapshot(name, &hot_snap).ok());
        ASSERT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap))
            << name << " at step " << step;
      }
    }
  }
  BrokerStats stats = cold.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.fault_ins, 0u);
  // Drain the held tickets; both brokers end balanced.
  for (const auto& [cold_ticket, hot_ticket] : held) {
    ASSERT_EQ(cold.Observe(cold_ticket, true).code(),
              hot.Observe(hot_ticket, true).code());
  }
  for (const std::string& name : names) {
    SessionInfo cold_info;
    SessionInfo hot_info;
    ASSERT_TRUE(cold.GetSessionInfo(name, &cold_info).ok());
    ASSERT_TRUE(hot.GetSessionInfo(name, &hot_info).ok());
    EXPECT_EQ(cold_info.pending, 0);
    EXPECT_EQ(cold_info.quotes_issued, hot_info.quotes_issued);
    EXPECT_EQ(cold_info.feedback_received, hot_info.feedback_received);
  }
}

TEST(BrokerColdTier, EvictionsAndSnapshotsWhileACutIsPendingMatchATwinBitwise) {
  // An Observe that cuts leaves the shape update pending until the
  // product's next quote (DESIGN.md §11). Here every eviction and every
  // snapshot lands in that window, in both shape layouts: the spill, the
  // fault-in and the snapshot bytes must all see the cut, so every quote and
  // snapshot must match a twin broker that never evicts and whose pending
  // cuts ride its next quote's support pass.
  StreamFactory factory;
  for (bool packed : {false, true}) {
    const std::string tag = packed ? "pending_packed" : "pending_dense";
    ScenarioSpec spec = LinearSpec("cold/" + tag, 13, 4000, "pure", 23);
    spec.packed_shape = packed;
    WorkloadInfo info = factory.Prepare(spec);
    const std::vector<std::string> names = {"cold/" + tag + "/a", "cold/" + tag + "/b"};
    BrokerConfig cold_config;
    cold_config.spill_dir = ColdDir(tag);
    Broker cold(cold_config);
    Broker hot;
    ASSERT_TRUE(cold.OpenSessions(names, spec, info).ok());
    for (const std::string& name : names) ASSERT_TRUE(hot.OpenSession(name, spec, info).ok());

    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    MarketRound round;
    Rng control(20261020);
    for (int step = 0; step < 240; ++step) {
      const std::string& name = names[static_cast<size_t>(step) % names.size()];
      stream->Next(&rng, &round);
      Quote cold_quote;
      Quote hot_quote;
      ASSERT_TRUE(cold.PostPrice({name, round.features, round.reserve}, &cold_quote).ok());
      ASSERT_TRUE(hot.PostPrice({name, round.features, round.reserve}, &hot_quote).ok());
      ASSERT_EQ(cold_quote.ticket, hot_quote.ticket) << tag << " step " << step;
      ASSERT_EQ(cold_quote.price, hot_quote.price) << tag << " step " << step;
      const bool accepted = control.NextUint64(2) == 0;
      ASSERT_TRUE(cold.Observe(cold_quote.ticket, accepted).ok());
      ASSERT_TRUE(hot.Observe(hot_quote.ticket, accepted).ok());
      switch (step % 3) {
        case 0:  // spill every product, pending cut included; the twin keeps its cut
          cold.EvictIdleSessions(0);
          break;
        case 1: {  // snapshot with the cut pending on both sides
          SessionSnapshot cold_snap;
          SessionSnapshot hot_snap;
          ASSERT_TRUE(cold.Snapshot(name, &cold_snap).ok());
          ASSERT_TRUE(hot.Snapshot(name, &hot_snap).ok());
          ASSERT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap))
              << tag << " step " << step;
          break;
        }
        default:  // the cut rides the next quote on both sides
          break;
      }
    }
    EXPECT_GT(cold.Stats().evictions, 0u) << tag;
    for (const std::string& name : names) {
      SessionInfo cold_info;
      SessionInfo hot_info;
      ASSERT_TRUE(cold.GetSessionInfo(name, &cold_info).ok());
      ASSERT_TRUE(hot.GetSessionInfo(name, &hot_info).ok());
      EXPECT_GT(hot_info.counters.cuts_applied, 40) << name;
      EXPECT_EQ(cold_info.counters.cuts_applied, hot_info.counters.cuts_applied) << name;
      SessionSnapshot cold_snap;
      SessionSnapshot hot_snap;
      ASSERT_TRUE(cold.Snapshot(name, &cold_snap).ok());
      ASSERT_TRUE(hot.Snapshot(name, &hot_snap).ok());
      EXPECT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap)) << name;
    }
  }
}

/// Bytes held by the `*.snap` pack files in `dir`.
size_t SpillDirBytes(const std::string& dir) {
  size_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") bytes += entry.file_size();
  }
  return bytes;
}

TEST(BrokerColdTier, WaveSizeFollowsTheCap) {
  // One wave victim per 32 resident sessions, between 1 and 64.
  const std::vector<std::pair<size_t, size_t>> table{
      {1, 1}, {31, 1}, {32, 1}, {500, 15}, {2048, 64}, {3000, 64}, {1000000, 64}};
  for (const auto& [cap, wave] : table) EXPECT_EQ(WaveSizeForCap(cap), wave) << "cap " << cap;
}

TEST(BrokerColdTier, ResidencyCapWavesMatchNeverEvictedTwinBitwise) {
  // The request-path sweep at a cap that gets full waves: cap 2048 gives
  // W = min(64, 2048 / 32) = 64, so each sweep spills 64 victims as one
  // pack down to cap − 63. The open leaves the 512 products past the cap
  // unbuilt, so the cold broker builds, evicts and faults in on its own,
  // and every quote and snapshot must still match a twin that never
  // evicts. Three touches in four walk the catalog in order, which keeps
  // running into the products the last wave spilled.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("wave/base", 4, 4000, "reserve+uncertainty", 23);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kCap = 2048;
  constexpr size_t kWave = 64;
  constexpr size_t kProducts = kCap + 8 * kWave;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("wave/p" + std::to_string(i));

  BrokerConfig cold_config;
  cold_config.spill_dir = ColdDir("wave_twin");
  cold_config.max_resident_sessions = kCap;
  Broker cold(cold_config);
  Broker hot;
  ASSERT_TRUE(cold.OpenSessions(names, spec, info).ok());
  ASSERT_TRUE(hot.OpenSessions(names, spec, info).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  Rng control(20261017);
  std::vector<std::pair<uint64_t, uint64_t>> held;  // (cold ticket, hot ticket)
  EXPECT_EQ(cold.Stats().resident_sessions, kCap);
  size_t cursor = 0;
  uint64_t evictions_seen = 0;
  size_t sweeps = 0;
  for (int step = 0; step < 4000; ++step) {
    const size_t p = control.NextUint64(4) != 0 ? cursor++ % kProducts
                                                : control.NextUint64(kProducts);
    stream->Next(&rng, &round);
    Quote cold_quote;
    Quote hot_quote;
    ASSERT_TRUE(
        cold.PostPrice({names[p], round.features, round.reserve}, &cold_quote).ok());
    ASSERT_TRUE(hot.PostPrice({names[p], round.features, round.reserve}, &hot_quote).ok());
    ASSERT_EQ(cold_quote.ticket, hot_quote.ticket) << "step " << step;
    ASSERT_EQ(cold_quote.price, hot_quote.price) << "step " << step;
    ASSERT_EQ(cold_quote.certain_no_sale, hot_quote.certain_no_sale);
    const bool accepted = control.NextUint64(3) != 0;
    if (control.NextUint64(4) == 0 && held.size() < 32) {
      held.emplace_back(cold_quote.ticket, hot_quote.ticket);
    } else {
      ASSERT_EQ(cold.Observe(cold_quote.ticket, accepted).code(),
                hot.Observe(hot_quote.ticket, accepted).code());
    }
    if (control.NextUint64(8) == 0 && !held.empty()) {
      const size_t h = control.NextUint64(held.size());
      const bool late_accept = control.NextUint64(2) == 0;
      ASSERT_EQ(cold.Observe(held[h].first, late_accept).code(),
                hot.Observe(held[h].second, late_accept).code());
      held.erase(held.begin() + static_cast<ptrdiff_t>(h));
    }
    // The open stopped at the cap, so every sweep starts at cap + 1, one
    // fault-in over the cap, and spills exactly one wave of W.
    const uint64_t evictions = cold.eviction_count();
    if (evictions != evictions_seen) {
      ASSERT_EQ(evictions - evictions_seen, kWave) << "step " << step;
      evictions_seen = evictions;
      ++sweeps;
    }
  }
  EXPECT_GT(sweeps, 20u);
  // The first sweep came one fault-in past the cap, each later one W after.
  EXPECT_GT(cold.fault_in_count(), (sweeps - 1) * kWave);
  for (const auto& [cold_ticket, hot_ticket] : held) {
    ASSERT_EQ(cold.Observe(cold_ticket, true).code(), hot.Observe(hot_ticket, true).code());
  }
  for (const std::string& name : names) {
    SessionSnapshot cold_snap;
    SessionSnapshot hot_snap;
    ASSERT_TRUE(cold.Snapshot(name, &cold_snap).ok());
    ASSERT_TRUE(hot.Snapshot(name, &hot_snap).ok());
    ASSERT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap)) << name;
  }
}

TEST(BrokerColdTier, ConcurrentFaultInsAndWavesKeepEveryProductExact) {
  // Four client threads walk their own quarter of a catalog larger than
  // the cap, so their touches keep faulting products in while the sweeps
  // they trigger spill waves of 64 (cap 2048 → W = 64); a fifth thread
  // sweeps through EvictIdleSessions. Victims a client is waiting on sit
  // locked in a wave, fault-ins queue consumed spills while a wave is
  // unlinking the earlier ones, and waves relocate the records of packs
  // the clients have thinned out. The TSan job runs this suite.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("stress/base", 4, 4000, "reserve", 29);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kCap = 2048;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 528;
  constexpr size_t kProducts = kThreads * kPerThread;
  constexpr int kTouches = 600;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("stress/p" + std::to_string(i));
  BrokerConfig config;
  config.spill_dir = ColdDir("wave_stress");
  config.max_resident_sessions = kCap;
  std::vector<int64_t> quotes(kProducts, 0);
  std::vector<int64_t> feedback(kProducts, 0);
  // Before the clients start, half the cap goes to disk. With the products
  // the open left unbuilt past the cap, every client's first pass over its
  // quarter then faults in a counted set, however the threads interleave.
  constexpr size_t kCold = kProducts - kCap / 2;
  {
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    ASSERT_EQ(broker.EvictIdleSessions(kCap / 2), kCap / 2);
    std::atomic<int> failures{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(spec.sim_seed + t);
        std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
        MarketRound round;
        for (int i = 0; i < kTouches; ++i) {
          const size_t p = t * kPerThread + static_cast<size_t>(i) % kPerThread;
          stream->Next(&rng, &round);
          Quote quote;
          if (!broker.PostPrice({names[p], round.features, round.reserve}, &quote).ok()) {
            failures.fetch_add(1);
            continue;
          }
          ++quotes[p];
          if (!broker.Observe(quote.ticket, quote.price <= round.value).ok()) {
            failures.fetch_add(1);
            continue;
          }
          ++feedback[p];
        }
      });
    }
    std::thread sweeper([&] {
      while (!done.load()) {
        broker.EvictIdleSessions(kCap - 16);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (std::thread& client : clients) client.join();
    done.store(true);
    sweeper.join();
    EXPECT_EQ(failures.load(), 0);

    const BrokerStats stats = broker.Stats();
    EXPECT_GE(stats.evictions, kCap / 2);
    EXPECT_GE(stats.fault_ins, kCold);
    EXPECT_EQ(stats.quarantined_sessions, 0u);
    EXPECT_EQ(stats.resident_sessions + stats.evicted_sessions, kProducts);
    EXPECT_EQ(stats.quotes, uint64_t{kThreads} * kTouches);
    EXPECT_EQ(stats.accepts + stats.rejects, stats.quotes);
    for (size_t p = 0; p < kProducts; ++p) {
      SessionInfo session;
      ASSERT_TRUE(broker.GetSessionInfo(names[p], &session).ok());
      EXPECT_EQ(session.quotes_issued, quotes[p]) << names[p];
      EXPECT_EQ(session.feedback_received, feedback[p]) << names[p];
      EXPECT_EQ(session.pending, 0) << names[p];
    }
  }
  // ~Broker removed every evicted slot's spill and every consumed one.
  EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir));
}

TEST(BrokerColdTier, ResidencyLimitEvictsAutomaticallyAndStatsTrackIt) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("cap/base", 6, 2000, "reserve", 41);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kProducts = 12;
  constexpr size_t kCap = 4;
  BrokerConfig config;
  config.spill_dir = ColdDir("cap");
  config.max_resident_sessions = kCap;
  Broker broker(config);
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("cap/p" + std::to_string(i));
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  // Round-robin touches force every product through evict → fault-in cycles.
  for (int pass = 0; pass < 4; ++pass) {
    for (const std::string& name : names) {
      stream->Next(&rng, &round);
      Quote quote;
      ASSERT_TRUE(broker.PostPrice({name, round.features, round.reserve}, &quote).ok());
      ASSERT_TRUE(broker.Observe(quote.ticket, true).ok());
    }
  }
  BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.open_sessions, kProducts);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.fault_ins, 0u);
  // The cap is a soft target enforced at request entry; after a full pass
  // the resident set sits at the cap plus at most the products touched
  // since the last sweep.
  EXPECT_LE(stats.resident_sessions, kProducts);
  EXPECT_EQ(stats.resident_sessions + stats.evicted_sessions, kProducts);
  EXPECT_GT(stats.evicted_sessions, 0u);
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_GT(stats.arena_bytes_used, 0u);

  // EstimateValue and GetSessionInfo also fault in transparently.
  stream->Next(&rng, &round);
  for (const std::string& name : names) {
    ValueInterval interval;
    EXPECT_TRUE(broker.EstimateValue(name, round.features, &interval).ok());
  }
}

TEST(BrokerColdTier, CloseWhileEvictedDropsSpillFileWithoutFaultIn) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("closecold/base", 6, 2000, "reserve", 51);
  WorkloadInfo info = factory.Prepare(spec);
  BrokerConfig config;
  config.spill_dir = ColdDir("closecold");
  Broker broker(config);
  std::vector<std::string> names{"closecold/a", "closecold/b"};
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  ASSERT_EQ(broker.EvictIdleSessions(0), 2u);
  BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.evicted_sessions, 2u);
  EXPECT_EQ(stats.resident_sessions, 0u);
  uint64_t fault_ins_before = stats.fault_ins;

  ASSERT_TRUE(broker.CloseSession("closecold/a").ok());
  stats = broker.Stats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_EQ(stats.evicted_sessions, 1u);
  EXPECT_EQ(stats.slab_tombstoned_slots, 1u);
  EXPECT_EQ(stats.fault_ins, fault_ins_before);  // close never faults in
  // Exactly one spill file remains (the still-evicted product's).
  size_t spill_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(config.spill_dir)) {
    (void)entry;
    ++spill_files;
  }
  EXPECT_EQ(spill_files, 1u);
  // The closed product is gone for good; the surviving one faults in fine.
  Quote quote;
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  EXPECT_EQ(
      broker.PostPrice({"closecold/a", round.features, round.reserve}, &quote).code(),
      StatusCode::kNotFound);
  EXPECT_TRUE(
      broker.PostPrice({"closecold/b", round.features, round.reserve}, &quote).ok());
}

TEST(BrokerColdTier, SpillDirStaysWithinEightTimesLiveSpillBytes) {
  // A pack lives until its last record dies, so consumed records ride along
  // inside live packs. A pack of more than 8 records turns sparse at 1/8
  // live, and the next wave moves its live records out; so with records of
  // one size the spill directory holds at most 8× the live spill bytes
  // once a sweep has run. EvictIdleSessions spills waves of up to 64.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("bound/base", 4, 4000, "reserve", 43);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kProducts = 96;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) {
    // Names of one length, so every record has the same size.
    names.push_back(std::string(i < 10 ? "bound/p0" : "bound/p") + std::to_string(i));
  }
  BrokerConfig config;
  config.spill_dir = ColdDir("bound");
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  auto touch = [&](size_t p) {
    stream->Next(&rng, &round);
    Quote quote;
    ASSERT_TRUE(broker.PostPrice({names[p], round.features, round.reserve}, &quote).ok());
    ASSERT_TRUE(broker.Observe(quote.ticket, quote.price <= round.value).ok());
  };
  // One quote each first: a session's ticket table, and so its record,
  // grows on its first quote and then keeps its size.
  for (size_t p = 0; p < kProducts; ++p) touch(p);
  Rng control(20261019);
  size_t checks = 0;
  for (int step = 0; step < 3000; ++step) {
    touch(control.NextUint64(kProducts));
    if (control.NextUint64(16) == 0) {
      broker.EvictIdleSessions(control.NextUint64(kProducts / 2));
      const BrokerStats stats = broker.Stats();
      const size_t on_disk = SpillDirBytes(config.spill_dir);
      ASSERT_LE(on_disk, 8 * stats.spill_bytes) << "step " << step;
      ASSERT_EQ(stats.spill_file_bytes, on_disk) << "step " << step;
      ++checks;
    }
  }
  EXPECT_GT(checks, 100u);
  const BrokerStats stats = broker.Stats();
  EXPECT_GT(stats.fault_ins, 500u);
  EXPECT_GT(stats.relocations, 0u);
}

TEST(BrokerColdTier, RequestPathWavesStayWithinEightTimesLiveSpillBytes) {
  // The same bound for the request path's own waves: cap 2048 spills 64
  // victims per sweep, and random touches thin the packs out unevenly.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("capbound/base", 4, 4000, "reserve", 47);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kCap = 2048;
  constexpr size_t kProducts = kCap + 512;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) {
    // Names of one length, so every record has the same size.
    std::string number = std::to_string(i);
    names.push_back("capbound/p" + std::string(4 - number.size(), '0') + number);
  }
  BrokerConfig config;
  config.spill_dir = ColdDir("capbound");
  config.max_resident_sessions = kCap;
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  size_t checks = 0;
  uint64_t evictions_seen = 0;
  auto touch = [&](size_t p) {
    stream->Next(&rng, &round);
    Quote quote;
    ASSERT_TRUE(broker.PostPrice({names[p], round.features, round.reserve}, &quote).ok());
    ASSERT_TRUE(broker.Observe(quote.ticket, quote.price <= round.value).ok());
    if (broker.eviction_count() == evictions_seen) return;
    evictions_seen = broker.eviction_count();
    const BrokerStats stats = broker.Stats();
    const size_t on_disk = SpillDirBytes(config.spill_dir);
    ASSERT_LE(on_disk, 8 * stats.spill_bytes) << "touch of " << names[p];
    ASSERT_EQ(stats.spill_file_bytes, on_disk) << "touch of " << names[p];
    ++checks;
  };
  // One quote each first (every record then keeps one size), then random
  // touches.
  for (size_t p = 0; p < kProducts; ++p) touch(p);
  Rng control(20261021);
  for (int step = 0; step < 12000; ++step) touch(control.NextUint64(kProducts));
  EXPECT_GT(checks, 20u);
  EXPECT_GT(broker.Stats().relocations, 0u);
}

TEST(BrokerColdTier, CallerBuiltEnginesAreNeverEvicted) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("pinned/base", 6, 2000, "reserve", 61);
  WorkloadInfo info = factory.Prepare(spec);
  BrokerConfig config;
  config.spill_dir = ColdDir("pinned");
  Broker broker(config);
  // A caller-built engine has no rebuild recipe → not evictable.
  ASSERT_TRUE(broker.OpenSession("pinned/custom", BuildEngine(spec, &factory)).ok());
  ASSERT_TRUE(broker.OpenSession("pinned/registry", spec, info).ok());
  EXPECT_EQ(broker.EvictIdleSessions(0), 1u);
  BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.resident_sessions, 1u);
  EXPECT_EQ(stats.evicted_sessions, 1u);
}

TEST(BrokerColdTier, OverCapOpensStartUnbuiltAndWriteNothing) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("unbuilt/base", 6, 2000, "reserve", 53);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kCap = 4;
  std::vector<std::string> names;
  for (size_t i = 0; i < 12; ++i) names.push_back("unbuilt/p" + std::to_string(i));
  BrokerConfig config;
  config.spill_dir = ColdDir("unbuilt");
  config.max_resident_sessions = kCap;
  Broker broker(config);
  // A caller-built engine takes room like any resident session.
  ASSERT_TRUE(broker.OpenSession("unbuilt/custom", BuildEngine(spec, &factory)).ok());
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  ASSERT_TRUE(broker.OpenSession("unbuilt/late", spec, info).ok());
  // The open builds exactly the cap's engines; the rest wait unbuilt, with
  // nothing on disk.
  BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.open_sessions, names.size() + 2);
  EXPECT_EQ(stats.resident_sessions, kCap);
  EXPECT_EQ(stats.evicted_sessions, names.size() + 2 - kCap);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.fault_ins, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_EQ(stats.spill_file_bytes, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir));
  // A sweep has nothing to take from them.
  EXPECT_EQ(broker.EvictIdleSessions(kCap), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir));
  // The first touch builds one, counted as a fault-in.
  SessionInfo session;
  ASSERT_TRUE(broker.GetSessionInfo("unbuilt/late", &session).ok());
  EXPECT_EQ(session.product, "unbuilt/late");
  EXPECT_EQ(session.quotes_issued, 0);
  EXPECT_EQ(broker.Stats().fault_ins, 1u);
  EXPECT_EQ(broker.Stats().resident_sessions, kCap + 1);

  // Without a spill directory there is no cold tier, and every open builds.
  BrokerConfig hot_config;
  hot_config.max_resident_sessions = kCap;
  Broker hot(hot_config);
  ASSERT_TRUE(hot.OpenSessions(names, spec, info).ok());
  EXPECT_EQ(hot.Stats().resident_sessions, names.size());
}

TEST(BrokerColdTier, UnbuiltProductsMatchANeverEvictedTwinBitwise) {
  // An unbuilt product's first touch builds it from the recipe. Its
  // snapshot, tickets and quotes must match a twin broker that built it at
  // open and never evicts — the same session a built, spilled and restored
  // product resumes.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("unbuilt/twin", 6, 4000, "reserve+uncertainty", 57);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kCap = 3;
  std::vector<std::string> names;
  for (size_t i = 0; i < 10; ++i) names.push_back("unbuilt/t" + std::to_string(i));
  BrokerConfig cold_config;
  cold_config.spill_dir = ColdDir("unbuilt_twin");
  cold_config.max_resident_sessions = kCap;
  Broker cold(cold_config);
  Broker hot;
  // Two batches: the second opens entirely past the cap.
  const std::vector<std::string> first(names.begin(), names.begin() + 5);
  const std::vector<std::string> second(names.begin() + 5, names.end());
  ASSERT_TRUE(cold.OpenSessions(first, spec, info).ok());
  ASSERT_TRUE(cold.OpenSessions(second, spec, info).ok());
  ASSERT_TRUE(hot.OpenSessions(first, spec, info).ok());
  ASSERT_TRUE(hot.OpenSessions(second, spec, info).ok());
  ASSERT_EQ(cold.Stats().resident_sessions, kCap);

  // Unbuilt products snapshot byte-for-byte like their never-touched twins.
  for (size_t i = kCap; i < names.size(); i += 2) {
    SessionSnapshot cold_snap;
    SessionSnapshot hot_snap;
    ASSERT_TRUE(cold.Snapshot(names[i], &cold_snap).ok());
    ASSERT_TRUE(hot.Snapshot(names[i], &hot_snap).ok());
    ASSERT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap)) << names[i];
  }
  // The rest are first touched by a quote, in reverse, so products past
  // the cap fault in, evict and fault in again.
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  Rng control(20261023);
  for (int step = 0; step < 400; ++step) {
    const size_t p = step < static_cast<int>(names.size())
                         ? names.size() - 1 - static_cast<size_t>(step)
                         : control.NextUint64(names.size());
    stream->Next(&rng, &round);
    Quote cold_quote;
    Quote hot_quote;
    ASSERT_TRUE(cold.PostPrice({names[p], round.features, round.reserve}, &cold_quote).ok());
    ASSERT_TRUE(hot.PostPrice({names[p], round.features, round.reserve}, &hot_quote).ok());
    ASSERT_EQ(cold_quote.ticket, hot_quote.ticket) << "step " << step;
    ASSERT_EQ(cold_quote.price, hot_quote.price) << "step " << step;
    ASSERT_EQ(cold_quote.certain_no_sale, hot_quote.certain_no_sale);
    const bool accepted = control.NextUint64(3) != 0;
    ASSERT_EQ(cold.Observe(cold_quote.ticket, accepted).code(),
              hot.Observe(hot_quote.ticket, accepted).code());
  }
  EXPECT_GT(cold.eviction_count(), 0u);
  EXPECT_GT(cold.fault_in_count(), names.size() - kCap);
  for (const std::string& name : names) {
    SessionSnapshot cold_snap;
    SessionSnapshot hot_snap;
    ASSERT_TRUE(cold.Snapshot(name, &cold_snap).ok());
    ASSERT_TRUE(hot.Snapshot(name, &hot_snap).ok());
    ASSERT_EQ(EncodeSessionSnapshot(cold_snap), EncodeSessionSnapshot(hot_snap)) << name;
  }
}

TEST(BrokerColdTier, UnbuiltProductsLeaveNothingBehind) {
  // An unbuilt product has no durable state: closing it and ~Broker write
  // nothing, and a restart on a crash copy of the directory opens it fresh
  // — unbuilt again when it falls past the cap.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("unbuilt/gone", 6, 2000, "reserve", 59);
  WorkloadInfo info = factory.Prepare(spec);
  std::vector<std::string> names;
  for (size_t i = 0; i < 6; ++i) names.push_back("unbuilt/g" + std::to_string(i));
  BrokerConfig config;
  config.spill_dir = ColdDir("unbuilt_gone");
  config.max_resident_sessions = 2;
  const std::string crashed = ColdDir("unbuilt_gone_crash");
  {
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    // g0 and g1 are built; they serve and then spill as one pack.
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    MarketRound round;
    for (size_t p = 0; p < 2; ++p) {
      stream->Next(&rng, &round);
      Quote quote;
      ASSERT_TRUE(broker.PostPrice({names[p], round.features, round.reserve}, &quote).ok());
      ASSERT_TRUE(broker.Observe(quote.ticket, true).ok());
    }
    ASSERT_EQ(broker.EvictIdleSessions(0), 2u);
    const size_t spilled = SpillDirBytes(config.spill_dir);
    // Closing an unbuilt product touches nothing on disk.
    ASSERT_TRUE(broker.CloseSession(names[5]).ok());
    const BrokerStats stats = broker.Stats();
    EXPECT_EQ(stats.open_sessions, 5u);
    EXPECT_EQ(stats.evicted_sessions, 5u);
    EXPECT_EQ(stats.fault_ins, 0u);
    EXPECT_EQ(SpillDirBytes(config.spill_dir), spilled);
    EXPECT_EQ(stats.spill_file_bytes, spilled);
    // The simulated kill -9: the directory as the crash would leave it.
    std::filesystem::copy(config.spill_dir, crashed);
  }
  EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir));

  BrokerConfig restart_config = config;
  restart_config.spill_dir = crashed;
  restart_config.max_resident_sessions = 1;
  Broker restarted(restart_config);
  EXPECT_EQ(restarted.recovery_report().spills_found, 2u);
  ASSERT_TRUE(restarted.OpenSessions(names, spec, info).ok());
  // g0 and g1 adopt their records and take no room; g2 fills the cap of
  // one, and g3..g5 open unbuilt again.
  EXPECT_EQ(restarted.recovery_report().adopted, 2u);
  BrokerStats stats = restarted.Stats();
  EXPECT_EQ(stats.resident_sessions, 1u);
  EXPECT_EQ(stats.evicted_sessions, 5u);
  SessionInfo session;
  ASSERT_TRUE(restarted.GetSessionInfo(names[4], &session).ok());
  EXPECT_EQ(session.quotes_issued, 0);
  ASSERT_TRUE(restarted.GetSessionInfo(names[1], &session).ok());
  EXPECT_EQ(session.quotes_issued, 1);
  EXPECT_EQ(restarted.Stats().fault_ins, 2u);
}

// ------------------------------------------------------ metrics (§13)

/// What a test did to a broker, tallied client side in the scrape's terms.
struct ClientTally {
  uint64_t quotes = 0;
  uint64_t accepts = 0;
  uint64_t rejects = 0;
  double rejected_value = 0.0;
};

/// One PostPrice + Observe round trip on `product`, answered truthfully.
void RoundTrip(Broker* broker, const std::string& product, QueryStream* stream,
               Rng* rng, ClientTally* tally) {
  MarketRound round;
  stream->Next(rng, &round);
  Quote quote;
  ASSERT_TRUE(broker->PostPrice({product, round.features, round.reserve}, &quote).ok());
  ++tally->quotes;
  const bool accepted = !quote.certain_no_sale && quote.price <= round.value;
  ASSERT_TRUE(broker->Observe(quote.ticket, accepted).ok());
  if (accepted) {
    ++tally->accepts;
  } else {
    ++tally->rejects;
    tally->rejected_value += quote.price;
  }
}

metrics::MetricsDump Scrape(const metrics::MetricRegistry& registry) {
  metrics::MetricsDump dump;
  EXPECT_TRUE(metrics::DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  return dump;
}

double GaugeValue(const metrics::MetricsDump& dump, std::string_view name) {
  const metrics::DumpInstrument* instrument = dump.Find(name);
  return instrument != nullptr ? instrument->gauge : -1.0;
}

/// The regret proxy is a sum of doubles accumulated in a different order on
/// each side, so it matches to rounding, not bit for bit.
void ExpectRegretNear(double scraped, double expected) {
  EXPECT_NEAR(scraped, expected, 1e-9 * (1.0 + expected));
}

void ExpectScrapeMatchesTally(const metrics::MetricsDump& dump,
                              const ClientTally& tally) {
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"), tally.quotes);
  EXPECT_EQ(dump.CounterValue("pdm_broker_accepts_total"), tally.accepts);
  EXPECT_EQ(dump.CounterValue("pdm_broker_rejects_total"), tally.rejects);
  ExpectRegretNear(GaugeValue(dump, "pdm_broker_regret_proxy"), tally.rejected_value);
}

/// The scrape and Stats() come from one summation, so they agree exactly
/// once the broker is quiet.
void ExpectScrapeMatchesStats(const metrics::MetricsDump& dump,
                              const BrokerStats& stats) {
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"), stats.quotes);
  EXPECT_EQ(dump.CounterValue("pdm_broker_accepts_total"), stats.accepts);
  EXPECT_EQ(dump.CounterValue("pdm_broker_rejects_total"), stats.rejects);
  EXPECT_EQ(dump.CounterValue("pdm_broker_evictions_total"), stats.evictions);
  EXPECT_EQ(dump.CounterValue("pdm_broker_fault_ins_total"), stats.fault_ins);
  ExpectRegretNear(GaugeValue(dump, "pdm_broker_regret_proxy"), stats.regret_proxy);
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_open_products"),
            static_cast<double>(stats.open_sessions));
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_resident_sessions"),
            static_cast<double>(stats.resident_sessions));
  // The gauge counts every open session without a live engine.
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_evicted_sessions"),
            static_cast<double>(stats.evicted_sessions + stats.quarantined_sessions));
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_spill_bytes"),
            static_cast<double>(stats.spill_bytes));
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_spill_file_bytes"),
            static_cast<double>(stats.spill_file_bytes));
  EXPECT_EQ(dump.CounterValue("pdm_broker_spill_relocations_total"), stats.relocations);
}

TEST(BrokerMetrics, UnwiredRequestPathWritesNoSharedCell) {
  // DESIGN.md §9: independent products share no cache line on the request
  // path, whether or not a registry is wired. Default-constructed handles
  // alias the process-wide sink cells, so a request-path site that still
  // pushed into a metric handle would move them.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("unwired/p", 6, 2000, "reserve", 13);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok());
  ProductHandle handle;
  ASSERT_TRUE(broker.Resolve(spec.name, &handle).ok());
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);

  const metrics::Counter sink_counter;
  const metrics::Gauge sink_gauge;
  const metrics::Histogram sink_histogram;
  const uint64_t counter_before = sink_counter.value();
  const double gauge_before = sink_gauge.value();
  const int64_t histogram_before = sink_histogram.count();

  // Single round trips and batches of four, answered alternately so both
  // the accept and the reject (regret) paths run.
  constexpr int kIterations = 100;
  constexpr int kBatch = 4;
  std::array<MarketRound, kBatch> rounds;
  std::array<HandleRequest, kBatch> requests;
  std::array<Quote, kBatch> quotes;
  std::array<FeedbackRequest, kBatch> feedback;
  for (int it = 0; it < kIterations; ++it) {
    stream->Next(&rng, &rounds[0]);
    ASSERT_TRUE(broker.PostPrice(handle, rounds[0].features, rounds[0].reserve, &quotes[0])
                    .ok());
    ASSERT_TRUE(broker.Observe(quotes[0].ticket, it % 2 == 0).ok());
    for (int k = 0; k < kBatch; ++k) {
      stream->Next(&rng, &rounds[k]);
      requests[k] = {handle, rounds[k].features, rounds[k].reserve};
    }
    ASSERT_TRUE(broker.PostPrices(requests, quotes).ok());
    for (int k = 0; k < kBatch; ++k) feedback[k] = {quotes[k].ticket, k % 2 == 0};
    ASSERT_TRUE(broker.Observes(feedback).ok());
  }

  EXPECT_EQ(sink_counter.value(), counter_before);
  EXPECT_EQ(sink_gauge.value(), gauge_before);
  EXPECT_EQ(sink_histogram.count(), histogram_before);
  // The broker still counted everything, on its own slot.
  const BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.quotes, uint64_t{kIterations} * (kBatch + 1));
  EXPECT_EQ(stats.accepts + stats.rejects, stats.quotes);
  EXPECT_GT(stats.rejects, 0u);
  EXPECT_GT(stats.regret_proxy, 0.0);
}

TEST(BrokerMetrics, ScrapeMatchesClientTallyAcrossEvictFaultInAndClose) {
  // Request counters live on slots, and a slot outlives every session it
  // holds: the scrape stays exact while products are evicted, faulted back
  // in, and closed (tombstoned slots still count).
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("scrape/base", 6, 4000, "reserve+uncertainty", 23);
  WorkloadInfo info = factory.Prepare(spec);
  metrics::MetricRegistry registry;
  BrokerConfig config;
  config.spill_dir = ColdDir("scrape");
  config.max_resident_sessions = 2;
  config.metrics = &registry;
  Broker broker(config);
  std::vector<std::string> names;
  for (int i = 0; i < 5; ++i) names.push_back("scrape/p" + std::to_string(i));
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  ClientTally tally;
  // Round-robin touches over a residency cap of 2 push every product
  // through evict → fault-in cycles; scrape after every pass.
  for (int pass = 0; pass < 4; ++pass) {
    for (const std::string& name : names) {
      RoundTrip(&broker, name, stream.get(), &rng, &tally);
    }
    const metrics::MetricsDump dump = Scrape(registry);
    ExpectScrapeMatchesTally(dump, tally);
    ExpectScrapeMatchesStats(dump, broker.Stats());
  }
  const BrokerStats cycled = broker.Stats();
  EXPECT_GT(cycled.evictions, 0u);
  EXPECT_GT(cycled.fault_ins, 0u);
  EXPECT_GT(tally.accepts, 0u);
  EXPECT_GT(tally.rejects, 0u);

  // Close one product while it sits in the cold tier and one while it is
  // resident: what they counted stays in the totals.
  ASSERT_GT(broker.EvictIdleSessions(0), 0u);
  ASSERT_TRUE(broker.CloseSession(names[0]).ok());
  RoundTrip(&broker, names[1], stream.get(), &rng, &tally);  // faults it in
  ASSERT_TRUE(broker.CloseSession(names[1]).ok());
  metrics::MetricsDump dump = Scrape(registry);
  ExpectScrapeMatchesTally(dump, tally);
  ExpectScrapeMatchesStats(dump, broker.Stats());
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_open_products"), 3.0);

  // The survivors keep serving and the totals keep counting from there.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 2; i < names.size(); ++i) {
      RoundTrip(&broker, names[i], stream.get(), &rng, &tally);
    }
  }
  dump = Scrape(registry);
  ExpectScrapeMatchesTally(dump, tally);
  ExpectScrapeMatchesStats(dump, broker.Stats());
}

TEST(BrokerMetrics, TwoBrokersOnOneRegistryReportTheirSum) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("sum/base", 6, 2000, "reserve", 29);
  WorkloadInfo info = factory.Prepare(spec);
  metrics::MetricRegistry registry;
  BrokerConfig config;
  config.metrics = &registry;
  Broker first(config);
  Broker second(config);
  ASSERT_TRUE(first.OpenSession("sum/a", spec, info).ok());
  ASSERT_TRUE(
      second.OpenSessions(std::vector<std::string>{"sum/b", "sum/c"}, spec, info).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  ClientTally tally;
  for (int t = 0; t < 30; ++t) RoundTrip(&first, "sum/a", stream.get(), &rng, &tally);
  for (int t = 0; t < 25; ++t) {
    RoundTrip(&second, "sum/b", stream.get(), &rng, &tally);
    RoundTrip(&second, "sum/c", stream.get(), &rng, &tally);
  }

  const metrics::MetricsDump dump = Scrape(registry);
  ExpectScrapeMatchesTally(dump, tally);
  EXPECT_EQ(first.Stats().quotes + second.Stats().quotes, tally.quotes);
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_open_products"), 3.0);
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_resident_sessions"), 3.0);
  // Every PostPrice and Observe call was a batch of one, on either broker.
  const metrics::DumpInstrument* batches = dump.Find("pdm_broker_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->hist_count, 2 * static_cast<int64_t>(tally.quotes));
  EXPECT_EQ(batches->hist_sum, 2 * tally.quotes);
}

TEST(BrokerMetrics, WritersRacingScrapesSeeMonotoneThenExactTotals) {
  // TSan target: three threads drive batched round trips on their own
  // products while this thread scrapes in a loop. Slot counters are written
  // under the slot lock and read lock-free by the collector; batch-size
  // cells are recorded by their thread and read by the collector. Every scrape is
  // monotone, and the one after the writers finish is exact.
  constexpr int kThreads = 3;
  constexpr int kIterations = 300;
  constexpr int kBatch = 4;
  StreamFactory factory;
  metrics::MetricRegistry registry;
  BrokerConfig config;
  config.metrics = &registry;
  Broker broker(config);
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < kThreads; ++i) {
    specs.push_back(LinearSpec("race/p" + std::to_string(i), 6, kIterations * kBatch,
                               "reserve", 60 + i));
    ASSERT_TRUE(broker.OpenSession(specs[i].name, specs[i], factory.Prepare(specs[i])).ok());
  }

  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&, i] {
      Rng rng(specs[i].sim_seed + i);
      std::unique_ptr<QueryStream> stream = factory.CreateStream(specs[i], &rng);
      ProductHandle handle;
      PDM_CHECK(broker.Resolve(specs[i].name, &handle).ok());
      std::array<MarketRound, kBatch> rounds;
      std::array<HandleRequest, kBatch> requests;
      std::array<Quote, kBatch> quotes;
      std::array<FeedbackRequest, kBatch> feedback;
      for (int it = 0; it < kIterations; ++it) {
        for (int k = 0; k < kBatch; ++k) {
          stream->Next(&rng, &rounds[k]);
          requests[k] = {handle, rounds[k].features, rounds[k].reserve};
        }
        PDM_CHECK(broker.PostPrices(requests, quotes).ok());
        for (int k = 0; k < kBatch; ++k) {
          feedback[k] = {quotes[k].ticket,
                         !quotes[k].certain_no_sale && quotes[k].price <= rounds[k].value};
        }
        PDM_CHECK(broker.Observes(feedback).ok());
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  uint64_t last_quotes = 0;
  uint64_t last_feedback = 0;
  int64_t last_batches = 0;
  int scrapes = 0;
  do {
    const metrics::MetricsDump dump = Scrape(registry);
    const uint64_t quotes = dump.CounterValue("pdm_broker_quotes_total");
    const uint64_t feedback = dump.CounterValue("pdm_broker_accepts_total") +
                              dump.CounterValue("pdm_broker_rejects_total");
    const metrics::DumpInstrument* batches = dump.Find("pdm_broker_batch_size");
    const int64_t batch_count = batches != nullptr ? batches->hist_count : -1;
    EXPECT_GE(quotes, last_quotes);
    EXPECT_GE(feedback, last_feedback);
    EXPECT_GE(batch_count, last_batches);
    last_quotes = quotes;
    last_feedback = feedback;
    last_batches = batch_count;
    ++scrapes;
  } while (running.load(std::memory_order_acquire) > 0);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GT(scrapes, 0);

  const uint64_t expected = uint64_t{kThreads} * kIterations * kBatch;
  const metrics::MetricsDump dump = Scrape(registry);
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"), expected);
  EXPECT_EQ(dump.CounterValue("pdm_broker_accepts_total") +
                dump.CounterValue("pdm_broker_rejects_total"),
            expected);
  const metrics::DumpInstrument* batches = dump.Find("pdm_broker_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->hist_count, int64_t{kThreads} * kIterations * 2);
  EXPECT_EQ(batches->hist_sum, expected * 2);
  ExpectScrapeMatchesStats(dump, broker.Stats());
}

TEST(BrokerMetrics, ThreadChurnKeepsTheBatchSizeHistogramExact) {
  // TSan target. Request threads come and go while this thread scrapes:
  // waves of short-lived writers, more than 4× as many over the broker's
  // life as there are exclusive batch-size cells, then one wave wider than
  // the cell count, whose extra threads share the overflow cell. A thread
  // gives its cell back when it exits, so every short wave records into
  // cells of its own. Every scrape is monotone, and after the joins the
  // histogram holds exactly the calls made and the requests sent.
  constexpr int kCells = static_cast<int>(metrics::PerThreadHistogram::kExclusiveCells);
  constexpr int kShortWaves = 8;
  constexpr int kShortWaveThreads = 4;
  constexpr int kWideWaveThreads = kCells + 4;
  static_assert(kShortWaves * kShortWaveThreads + kWideWaveThreads >= 4 * kCells);
  constexpr int kIterations = 60;
  constexpr size_t kBatchSizes[] = {1, 3, 8};
  constexpr size_t kMaxBatch = 8;
  StreamFactory factory;
  metrics::MetricRegistry registry;
  BrokerConfig config;
  config.metrics = &registry;
  Broker broker(config);
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < kWideWaveThreads; ++i) {
    specs.push_back(LinearSpec("churn/p" + std::to_string(i), 6, 4000, "reserve", 80 + i));
    ASSERT_TRUE(broker.OpenSession(specs[i].name, specs[i], factory.Prepare(specs[i])).ok());
  }

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> requests_sent{0};
  // One short-lived writer: round trips on its own product, cycling
  // through the batch sizes.
  auto writer = [&](int product, uint64_t seed) {
    Rng rng(seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(specs[product], &rng);
    ProductHandle handle;
    PDM_CHECK(broker.Resolve(specs[product].name, &handle).ok());
    std::array<MarketRound, kMaxBatch> rounds;
    std::array<HandleRequest, kMaxBatch> requests;
    std::array<Quote, kMaxBatch> quotes;
    std::array<FeedbackRequest, kMaxBatch> feedback;
    for (int it = 0; it < kIterations; ++it) {
      const size_t batch = kBatchSizes[static_cast<size_t>(product + it) % 3];
      for (size_t k = 0; k < batch; ++k) {
        stream->Next(&rng, &rounds[k]);
        requests[k] = {handle, rounds[k].features, rounds[k].reserve};
      }
      PDM_CHECK(broker
                    .PostPrices(std::span<const HandleRequest>(requests.data(), batch),
                                std::span<Quote>(quotes.data(), batch))
                    .ok());
      for (size_t k = 0; k < batch; ++k) {
        feedback[k] = {quotes[k].ticket,
                       !quotes[k].certain_no_sale && quotes[k].price <= rounds[k].value};
      }
      PDM_CHECK(
          broker.Observes(std::span<const FeedbackRequest>(feedback.data(), batch)).ok());
      calls.fetch_add(2, std::memory_order_relaxed);
      requests_sent.fetch_add(2 * batch, std::memory_order_relaxed);
    }
  };
  std::atomic<bool> finished{false};
  std::thread waves([&] {
    uint64_t seed = 300;
    auto run_wave = [&](int threads) {
      std::vector<std::thread> wave;
      for (int t = 0; t < threads; ++t) wave.emplace_back(writer, t, ++seed);
      for (std::thread& thread : wave) thread.join();
    };
    for (int w = 0; w < kShortWaves; ++w) run_wave(kShortWaveThreads);
    run_wave(kWideWaveThreads);
    finished.store(true, std::memory_order_release);
  });

  int64_t last_count = 0;
  uint64_t last_sum = 0;
  int scrapes = 0;
  do {
    const metrics::MetricsDump dump = Scrape(registry);
    const metrics::DumpInstrument* batches = dump.Find("pdm_broker_batch_size");
    const int64_t count = batches != nullptr ? batches->hist_count : -1;
    const uint64_t sum = batches != nullptr ? batches->hist_sum : 0;
    EXPECT_GE(count, last_count);
    EXPECT_GE(sum, last_sum);
    last_count = count;
    last_sum = sum;
    ++scrapes;
  } while (!finished.load(std::memory_order_acquire));
  waves.join();
  EXPECT_GT(scrapes, 0);

  const metrics::MetricsDump dump = Scrape(registry);
  const metrics::DumpInstrument* batches = dump.Find("pdm_broker_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->hist_count, static_cast<int64_t>(calls.load()));
  EXPECT_EQ(batches->hist_sum, requests_sent.load());
  // Half the requests were price requests, and every one of them was quoted.
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"), requests_sent.load() / 2);
}

TEST(BrokerMetrics, BrokerDestroyedWhileAnotherThreadScrapesIsSafe) {
  // ~Broker unregisters its collector while its slots are alive, and the
  // registry's RemoveCollector waits out a scrape in progress — otherwise
  // this is a use-after-free under ASan and a race under TSan. Counters keep
  // what destroyed brokers counted; occupancy gauges leave with them.
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("lifecycle/base", 6, 2000, "reserve", 37);
  WorkloadInfo info = factory.Prepare(spec);
  metrics::MetricRegistry registry;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    std::string text;
    metrics::MetricsDump dump;
    while (!stop.load(std::memory_order_acquire)) {
      text.clear();
      registry.RenderPrometheus(&text);
      EXPECT_TRUE(metrics::DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
    }
  });

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  ClientTally tally;
  const std::vector<std::string> names{"lifecycle/a", "lifecycle/b"};
  for (int life = 0; life < 12; ++life) {
    BrokerConfig config;
    config.metrics = &registry;
    auto broker = std::make_unique<Broker>(config);
    PDM_CHECK(broker->OpenSessions(names, spec, info).ok());
    for (int t = 0; t < 20; ++t) {
      RoundTrip(broker.get(), names[t % 2], stream.get(), &rng, &tally);
    }
    broker.reset();
  }
  stop.store(true, std::memory_order_release);
  scraper.join();

  const metrics::MetricsDump dump = Scrape(registry);
  ExpectScrapeMatchesTally(dump, tally);
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_open_products"), 0.0);
  EXPECT_EQ(GaugeValue(dump, "pdm_broker_resident_sessions"), 0.0);
}

}  // namespace
}  // namespace pdm::broker
