// Zero-allocation regression tests for the steady-state pricing hot path.
//
// This binary replaces the global `operator new` family with hooks that bump
// the thread-local counter in common/memory (the library installs no hook
// itself — counting is strictly opt-in per binary). Each test warms a
// (stream, engine) pair until every reusable buffer has reached steady-state
// capacity, then runs 1000 further rounds and asserts the counter does not
// move: the per-round pipeline — stream fill, PostPrice, Observe, regret
// accounting — provably never touches the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "broker/broker.h"
#include "common/arena.h"
#include "common/memory.h"
#include "metrics/metrics.h"
#include "market/linear_market.h"
#include "market/airbnb_market.h"
#include "market/kernel_market.h"
#include "market/regret_tracker.h"
#include "market/round.h"
#include "market/simulator.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/engine_state.h"
#include "pricing/feature_maps.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"
#include "pricing/link_functions.h"
#include "scenario/mechanism_registry.h"
#include "scenario/stream_factory.h"
#include "server/client.h"
#include "server/server.h"

// ---------------------------------------------------------------------------
// Replaceable operator new/delete hooks. Every allocation in this binary
// (gtest included) bumps the calling thread's counter and the process-wide
// one; the tests only read deltas around the measured loops. Aligned
// variants are required since C++17 for over-aligned types.
// ---------------------------------------------------------------------------

namespace {

/// Every thread's allocations, for paths that span threads (a TcpServer's
/// event loop runs on its own).
std::atomic<int64_t> process_allocations{0};

void* CountedAlloc(std::size_t size) {
  pdm::NoteAllocation();
  process_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  pdm::NoteAllocation();
  process_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(alignment, ((size + alignment - 1) / alignment) * alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pdm {
namespace {

constexpr int kWarmupRounds = 500;
constexpr int kMeasuredRounds = 1000;

/// Runs `rounds` full market iterations (stream fill → PostPrice → Observe →
/// regret accounting) against the given pair, mirroring RunMarket's loop.
void DriveRounds(QueryStream* stream, PricingEngine* engine, RegretTracker* tracker,
                 MarketRound* round, Rng* rng, int rounds) {
  for (int t = 0; t < rounds; ++t) {
    stream->Next(rng, round);
    // Adaptive streams (market/adversarial.h) probe the knowledge set every
    // round, so the diagnostic observer is part of the hot-path contract too.
    ValueInterval interval = engine->EstimateValueInterval(round->features);
    (void)interval;
    PostedPrice posted = engine->PostPrice(round->features, round->reserve);
    bool accepted = !posted.certain_no_sale && posted.price <= round->value;
    engine->Observe(accepted);
    tracker->Observe(*round, posted, accepted);
  }
}

/// Warmup, snapshot, measure: asserts the measured rounds allocated nothing.
void ExpectSteadyStateAllocationFree(QueryStream* stream, PricingEngine* engine,
                                     uint64_t seed) {
  RegretTracker tracker(0);
  MarketRound round;
  Rng rng(seed);
  stream->BindEngine(engine);
  DriveRounds(stream, engine, &tracker, &round, &rng, kWarmupRounds);

  int64_t before = ThreadAllocationCount();
  DriveRounds(stream, engine, &tracker, &round, &rng, kMeasuredRounds);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " steady-state rounds of " << engine->name();
}

TEST(AllocationCounter, HookIsLive) {
  // Sanity: the replaced operator new really reaches the counter (otherwise
  // every zero-delta assertion below would be vacuous).
  int64_t before = ThreadAllocationCount();
  std::vector<double>* v = new std::vector<double>(1024);
  int64_t after = ThreadAllocationCount();
  delete v;
  EXPECT_GE(after - before, 2);  // the vector object + its buffer
}

/// The four published mechanism variants of the ellipsoid engine, priced over
/// the paper's noisy-linear-query workload.
TEST(SteadyStateAllocations, EllipsoidVariantsOverLinearStream) {
  struct VariantCase {
    bool use_reserve;
    double delta;
  };
  for (const VariantCase& variant :
       {VariantCase{false, 0.0}, VariantCase{false, 0.01}, VariantCase{true, 0.0},
        VariantCase{true, 0.01}}) {
    NoisyLinearMarketConfig market;
    market.feature_dim = 8;
    market.num_owners = 120;
    market.value_noise_sigma = variant.delta > 0.0 ? 0.003 : 0.0;
    Rng setup_rng(11);
    NoisyLinearQueryStream stream(market, &setup_rng);

    EllipsoidEngineConfig config;
    config.dim = market.feature_dim;
    config.horizon = kWarmupRounds + kMeasuredRounds;
    config.initial_radius = stream.RecommendedRadius();
    config.use_reserve = variant.use_reserve;
    config.delta = variant.delta;
    EllipsoidPricingEngine engine(config);

    ExpectSteadyStateAllocationFree(&stream, &engine, /*seed=*/21);
  }
}

TEST(SteadyStateAllocations, IntervalEngineOverReplayStream) {
  // One-dimensional special case: precompute 1-d rounds once, replay them.
  std::vector<MarketRound> rounds;
  Rng rng(31);
  for (int i = 0; i < 64; ++i) {
    MarketRound round;
    round.features = {rng.NextUniform(0.2, 1.0)};
    round.value = 0.7 * round.features[0];
    round.reserve = 0.4 * round.value;
    rounds.push_back(round);
  }
  ReplayQueryStream stream(&rounds);

  IntervalEngineConfig config;
  config.theta_min = 0.0;
  config.theta_max = 2.0;
  config.horizon = kWarmupRounds + kMeasuredRounds;
  IntervalPricingEngine engine(config);

  ExpectSteadyStateAllocationFree(&stream, &engine, /*seed=*/41);
}

TEST(SteadyStateAllocations, GeneralizedEngineOverKernelStream) {
  // The Theorem 2 reduction end to end: kernel feature map + identity link
  // around an ellipsoid base, against the kernelized workload.
  KernelMarketConfig market;
  market.input_dim = 3;
  market.num_landmarks = 6;
  Rng setup_rng(51);
  KernelQueryStream stream(market, &setup_rng);

  EllipsoidEngineConfig base_config;
  base_config.dim = market.num_landmarks;
  base_config.horizon = kWarmupRounds + kMeasuredRounds;
  base_config.initial_radius = stream.RecommendedRadius();
  GeneralizedPricingEngine engine(
      std::make_unique<EllipsoidPricingEngine>(base_config),
      std::make_shared<IdentityLink>(),
      std::make_shared<KernelFeatureMap>(stream.feature_map()));

  ExpectSteadyStateAllocationFree(&stream, &engine, /*seed=*/61);
}

TEST(SteadyStateAllocations, MechanismRegistryBuiltEnginesOverScenarioStreams) {
  // The declarative path must inherit the hot-path guarantee: engines built
  // by scenario::MechanismRegistry over scenario::StreamFactory streams are
  // the same wiring as above, assembled by name instead of by hand.
  scenario::StreamFactory factory;
  for (const char* mechanism :
       {"pure", "uncertainty", "reserve", "reserve+uncertainty", "risk-averse"}) {
    scenario::ScenarioSpec spec;
    spec.name = std::string("alloc/linear/") + mechanism;
    spec.stream = scenario::StreamKind::kLinear;
    spec.mechanism = mechanism;
    spec.n = 8;
    spec.rounds = kWarmupRounds + kMeasuredRounds;
    spec.delta = 0.01;
    spec.linear.num_owners = 120;
    spec.workload_seed = 11;
    scenario::WorkloadInfo info = factory.Prepare(spec);
    Rng rng(21);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    std::unique_ptr<PricingEngine> engine =
        scenario::MechanismRegistry::Builtin().Build(spec, info);
    ExpectSteadyStateAllocationFree(stream.get(), engine.get(), /*seed=*/21);
  }

  // The generalized (kernel map + link) composition through the registry.
  scenario::ScenarioSpec kernel_spec;
  kernel_spec.name = "alloc/kernel/reserve";
  kernel_spec.stream = scenario::StreamKind::kKernel;
  kernel_spec.mechanism = "reserve";
  kernel_spec.n = 6;
  kernel_spec.kernel.input_dim = 3;
  kernel_spec.rounds = kWarmupRounds + kMeasuredRounds;
  kernel_spec.sim_seed = 51;
  scenario::WorkloadInfo info = factory.Prepare(kernel_spec);
  Rng rng(kernel_spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(kernel_spec, &rng);
  std::unique_ptr<PricingEngine> engine =
      scenario::MechanismRegistry::Builtin().Build(kernel_spec, info);
  ExpectSteadyStateAllocationFree(stream.get(), engine.get(), /*seed=*/61);
}

TEST(SteadyStateAllocations, MetricInstrumentOpsAreAllocationFree) {
  // The DESIGN.md §13 hot-path contract: once a handle is resolved,
  // Increment/Add/Set/Record are single relaxed atomic RMWs — no heap, no
  // lock. Holds identically for live-registry cells and the no-op gateway's
  // sink cells (default-constructed handles).
  pdm::metrics::MetricRegistry registry;
  pdm::metrics::Counter counter = registry.GetCounter("alloc_total", "h");
  pdm::metrics::Gauge gauge = registry.GetGauge("alloc_gauge", "h");
  pdm::metrics::Histogram hist = registry.GetHistogram("alloc_ns", "h");
  pdm::metrics::Counter sink_counter;   // noop-gateway handles
  pdm::metrics::Histogram sink_hist;

  int64_t before = ThreadAllocationCount();
  for (int i = 0; i < kMeasuredRounds; ++i) {
    counter.Increment();
    counter.Add(3);
    gauge.Set(static_cast<double>(i));
    gauge.Add(1.0);
    hist.Record(static_cast<uint64_t>(i) * 97);
    sink_counter.Increment();
    sink_hist.Record(static_cast<uint64_t>(i));
  }
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " metric instrument rounds";
}

TEST(SteadyStateAllocations, BrokerRoundTripsWithLiveMetricsRegistry) {
  // The serving hot path with a LIVE registry wired: the per-round metric
  // writes (the slot's quote/accept/reject/regret counters, the thread's
  // batch-size cell) must not reintroduce heap traffic. Registration
  // allocates at wiring time only — before the measured window opens.
  scenario::StreamFactory factory;
  scenario::ScenarioSpec spec;
  spec.name = "alloc/broker/live-metrics";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = 8;
  spec.rounds = kWarmupRounds + kMeasuredRounds;
  spec.delta = 0.01;
  spec.linear.num_owners = 120;
  spec.workload_seed = 17;
  scenario::WorkloadInfo info = factory.Prepare(spec);

  metrics::MetricRegistry registry;
  broker::BrokerConfig config;
  config.metrics = &registry;
  broker::Broker broker(config);
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, info).ok());
  broker::ProductHandle handle;
  ASSERT_TRUE(broker.Resolve(spec.name, &handle).ok());
  Rng rng(27);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(broker.FindEngine(spec.name));

  constexpr int kWindow = 8;
  MarketRound rounds[kWindow];
  broker::HandleRequest requests[kWindow];
  broker::Quote quotes[kWindow];
  broker::FeedbackRequest feedback[kWindow];
  StatusCode codes[kWindow];
  auto drive = [&](int iterations) {
    for (int it = 0; it < iterations; ++it) {
      for (int i = 0; i < kWindow; ++i) {
        stream->Next(&rng, &rounds[i]);
        requests[i] = {handle, rounds[i].features, rounds[i].reserve};
      }
      ASSERT_TRUE(broker.PostPrices(std::span<const broker::HandleRequest>(requests),
                                    std::span<broker::Quote>(quotes))
                      .ok());
      for (int i = 0; i < kWindow; ++i) {
        feedback[i].ticket = quotes[i].ticket;
        feedback[i].accepted =
            !quotes[i].certain_no_sale && quotes[i].price <= rounds[i].value;
      }
      ASSERT_TRUE(broker
                      .Observes(std::span<const broker::FeedbackRequest>(feedback),
                                std::span<StatusCode>(codes))
                      .ok());
    }
  };

  drive(kWarmupRounds / kWindow);
  int64_t before = ThreadAllocationCount();
  drive(kMeasuredRounds / kWindow);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " live-metrics broker round trips";
  // Every priced round trip was counted (iterations truncate to kWindow).
  // The broker counters are pulled at scrape time, so read them from a dump.
  metrics::MetricsDump dump;
  ASSERT_TRUE(metrics::DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"),
            static_cast<uint64_t>((kWarmupRounds / kWindow) * kWindow +
                                  (kMeasuredRounds / kWindow) * kWindow));
}

TEST(SteadyStateAllocations, ServeTcpTicksThroughLoopbackServerAndClient) {
  // The wire path end to end, in perfbench serve-tcp's tick shape: 8
  // pipelined PostPrice frames (two per product, one product per
  // mechanism), their responses, then the 8 Observe frames and theirs,
  // through a loopback TcpServer and Client. The event loop runs on its own
  // thread, so this counts every thread's allocations: once warm, neither
  // end of the wire may touch the heap.
  constexpr int kProducts = 4;
  constexpr int kTickQuotes = 2 * kProducts;
  constexpr size_t kRing = 256;
  constexpr int kWarmupTicks = 200;
  constexpr int kMeasuredTicks = 500;
  const char* const kMechanisms[kProducts] = {"pure", "uncertainty", "reserve",
                                              "reserve+uncertainty"};
  scenario::StreamFactory factory;
  broker::Broker broker;
  server::TcpServer tcp(&broker);
  ASSERT_TRUE(tcp.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tcp.port()).ok());
  std::vector<std::vector<MarketRound>> rings(kProducts);
  broker::ProductHandle handles[kProducts];
  for (int p = 0; p < kProducts; ++p) {
    scenario::ScenarioSpec spec;
    spec.name = std::string("alloc/wire/") + kMechanisms[p];
    spec.stream = scenario::StreamKind::kLinear;
    spec.mechanism = kMechanisms[p];
    spec.n = 8;
    spec.rounds = kRing;
    spec.delta = 0.01;
    spec.linear.num_owners = 120;
    spec.workload_seed = 41 + static_cast<uint64_t>(p);
    scenario::WorkloadInfo info = factory.Prepare(spec);
    ASSERT_TRUE(broker.OpenSession(spec.name, spec, info).ok());
    Rng rng(51 + static_cast<uint64_t>(p));
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    rings[p].resize(kRing);
    for (MarketRound& round : rings[p]) stream->Next(&rng, &round);
    ASSERT_TRUE(client.Resolve(spec.name, &handles[p]).ok());
  }

  size_t cursor = 0;
  auto drive = [&](int ticks) {
    for (int t = 0; t < ticks; ++t) {
      const MarketRound* rounds[kTickQuotes];
      for (int k = 0; k < kTickQuotes; ++k) {
        const int p = k % kProducts;
        rounds[k] = &rings[p][cursor++ % kRing];
        client.QueuePostPrice(handles[p], rounds[k]->features, rounds[k]->reserve);
      }
      ASSERT_TRUE(client.Flush().ok());
      uint64_t tickets[kTickQuotes];
      bool accepted[kTickQuotes];
      for (int k = 0; k < kTickQuotes; ++k) {
        server::Response resp;
        ASSERT_TRUE(client.ReadResponse(&resp).ok());
        ASSERT_TRUE(resp.status.ok());
        tickets[k] = resp.quote.ticket;
        accepted[k] =
            !resp.quote.certain_no_sale && resp.quote.price <= rounds[k]->value;
      }
      for (int k = 0; k < kTickQuotes; ++k) client.QueueObserve(tickets[k], accepted[k]);
      ASSERT_TRUE(client.Flush().ok());
      for (int k = 0; k < kTickQuotes; ++k) {
        server::Response resp;
        ASSERT_TRUE(client.ReadResponse(&resp).ok());
        ASSERT_TRUE(resp.status.ok());
      }
    }
  };

  drive(kWarmupTicks);
  const int64_t before = process_allocations.load(std::memory_order_relaxed);
  drive(kMeasuredTicks);
  const int64_t after = process_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << (after - before) << " allocations in " << kMeasuredTicks
                               << " steady-state serve-tcp ticks";
  client.Disconnect();
  tcp.Stop();
}

TEST(SteadyStateAllocations, BrokerTicketedRoundTrips) {
  // The serving surface must inherit the hot-path guarantee end to end:
  // product lookup, PostPrice (a batch of one: ticket issue, with the engine
  // writing the cut context into the ticket slot), and Observe (ticket
  // retire + cut) — all through the Broker front end, with several tickets
  // in flight so slot recycling is exercised. Ok statuses carry no message
  // and allocate nothing (DESIGN.md §9).
  scenario::StreamFactory factory;
  scenario::ScenarioSpec spec;
  spec.name = "alloc/broker/linear";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = 8;
  spec.rounds = kWarmupRounds + kMeasuredRounds;
  spec.delta = 0.01;
  spec.linear.num_owners = 120;
  spec.workload_seed = 11;
  scenario::WorkloadInfo info = factory.Prepare(spec);

  broker::Broker broker;
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, info).ok());
  Rng rng(21);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(broker.FindEngine(spec.name));

  constexpr int kWindow = 4;  // outstanding tickets per batch
  MarketRound rounds[kWindow];
  broker::Quote quotes[kWindow];
  auto drive = [&](int iterations) {
    for (int it = 0; it < iterations; ++it) {
      for (int i = 0; i < kWindow; ++i) {
        stream->Next(&rng, &rounds[i]);
        pdm::Status status = broker.PostPrice(
            {spec.name, rounds[i].features, rounds[i].reserve}, &quotes[i]);
        ASSERT_TRUE(status.ok());
      }
      for (int i = 0; i < kWindow; ++i) {
        bool accepted =
            !quotes[i].certain_no_sale && quotes[i].price <= rounds[i].value;
        ASSERT_TRUE(broker.Observe(quotes[i].ticket, accepted).ok());
      }
    }
  };

  drive(kWarmupRounds / kWindow);
  int64_t before = ThreadAllocationCount();
  drive(kMeasuredRounds / kWindow);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " steady-state broker round trips";
}

TEST(SteadyStateAllocations, BrokerHandlePathBatchedMixedProductRoundTrips) {
  // The PR 5 fast path end to end: snapshot-directory probe (no string
  // hashing), per-session lock, grouped batched PostPrices over a batch
  // that interleaves TWO products, and grouped batched Observes. All of it
  // — including the per-thread batch scratch and each session's ticket
  // table — must reach steady-state capacity and stop allocating.
  scenario::StreamFactory factory;
  broker::Broker broker;
  std::array<scenario::ScenarioSpec, 2> specs;
  std::array<broker::ProductHandle, 2> handles;
  std::array<std::unique_ptr<QueryStream>, 2> streams;
  std::array<Rng, 2> rngs{Rng(21), Rng(22)};
  const char* mechanisms[] = {"reserve+uncertainty", "reserve"};
  for (int p = 0; p < 2; ++p) {
    scenario::ScenarioSpec& spec = specs[p];
    spec.name = std::string("alloc/broker/handle") + std::to_string(p);
    spec.stream = scenario::StreamKind::kLinear;
    spec.mechanism = mechanisms[p];
    spec.n = 8;
    spec.rounds = kWarmupRounds + kMeasuredRounds;
    spec.delta = 0.01;
    spec.linear.num_owners = 120;
    spec.workload_seed = 31 + static_cast<uint64_t>(p);
    scenario::WorkloadInfo info = factory.Prepare(spec);
    ASSERT_TRUE(broker.OpenSession(spec.name, spec, info).ok());
    ASSERT_TRUE(broker.Resolve(spec.name, &handles[p]).ok());
    streams[p] = factory.CreateStream(spec, &rngs[p]);
    streams[p]->BindEngine(broker.FindEngine(spec.name));
  }

  constexpr int kWindow = 8;  // 4 tickets per product per batch, interleaved
  MarketRound rounds[kWindow];
  broker::HandleRequest requests[kWindow];
  broker::Quote quotes[kWindow];
  broker::FeedbackRequest feedback[kWindow];
  StatusCode codes[kWindow];
  auto drive = [&](int iterations) {
    for (int it = 0; it < iterations; ++it) {
      for (int i = 0; i < kWindow; ++i) {
        int p = i % 2;  // alternate products within the batch
        streams[p]->Next(&rngs[p], &rounds[i]);
        requests[i] = {handles[p], rounds[i].features, rounds[i].reserve};
      }
      ASSERT_TRUE(broker.PostPrices(std::span<const broker::HandleRequest>(requests),
                                    std::span<broker::Quote>(quotes))
                      .ok());
      for (int i = 0; i < kWindow; ++i) {
        feedback[i].ticket = quotes[i].ticket;
        feedback[i].accepted =
            !quotes[i].certain_no_sale && quotes[i].price <= rounds[i].value;
      }
      ASSERT_TRUE(broker
                      .Observes(std::span<const broker::FeedbackRequest>(feedback),
                                std::span<StatusCode>(codes))
                      .ok());
      for (StatusCode code : codes) ASSERT_EQ(code, StatusCode::kOk);
    }
  };

  drive(kWarmupRounds / kWindow);
  int64_t before = ThreadAllocationCount();
  drive(kMeasuredRounds / kWindow);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " steady-state handle-path broker round trips";
}

TEST(SteadyStateAllocations, BatchedEnginePanelQuotes) {
  // The batched quoting path at the engine layer (DESIGN.md §11): a full
  // panel of PostPriceBatch quotes plus their ObserveDetached feedback must
  // stop allocating once the engine's panel workspaces and the caller's cut
  // contexts reach steady-state capacity.
  NoisyLinearMarketConfig market;
  market.feature_dim = 8;
  market.num_owners = 120;
  market.value_noise_sigma = 0.003;
  Rng setup_rng(81);
  NoisyLinearQueryStream stream(market, &setup_rng);

  EllipsoidEngineConfig config;
  config.dim = market.feature_dim;
  config.horizon = kWarmupRounds + kMeasuredRounds;
  config.initial_radius = stream.RecommendedRadius();
  config.delta = 0.01;
  EllipsoidPricingEngine engine(config);
  ASSERT_TRUE(engine.SupportsBatchedQuotes());
  stream.BindEngine(&engine);

  constexpr int kBatch = 32;
  const int dim = market.feature_dim;
  MarketRound round;
  std::vector<double> panel(static_cast<size_t>(kBatch) * dim);
  double reserves[kBatch];
  double values[kBatch];
  PostedPrice posted[kBatch];
  std::vector<PendingCut> cuts(kBatch);
  std::vector<PendingCut*> cut_ptrs(kBatch);
  for (int i = 0; i < kBatch; ++i) cut_ptrs[i] = &cuts[static_cast<size_t>(i)];

  Rng rng(91);
  auto drive = [&](int iterations) {
    for (int it = 0; it < iterations; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        stream.Next(&rng, &round);
        std::copy(round.features.begin(), round.features.end(),
                  panel.begin() + static_cast<size_t>(i) * dim);
        reserves[i] = round.reserve;
        values[i] = round.value;
      }
      engine.PostPriceBatch(panel.data(), kBatch, reserves, posted, cut_ptrs.data());
      for (int i = 0; i < kBatch; ++i) {
        bool accepted = !posted[i].certain_no_sale && posted[i].price <= values[i];
        engine.ObserveDetached(cuts[static_cast<size_t>(i)], accepted);
      }
    }
  };

  drive(kWarmupRounds / kBatch);
  int64_t before = ThreadAllocationCount();
  drive(kMeasuredRounds / kBatch);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " steady-state batched engine rounds";
}

TEST(SteadyStateAllocations, BrokerHandlePathFullTileSameProductBatches) {
  // A full kQuoteTile same-product batch through the handle path: the
  // broker's gather/scatter scratch, the session's panel pack, the engine's
  // matrix–panel pass, and the batched feedback must all be allocation-free
  // in steady state.
  scenario::StreamFactory factory;
  broker::Broker broker;
  scenario::ScenarioSpec spec;
  spec.name = "alloc/broker/paneltile";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = 8;
  spec.rounds = kWarmupRounds + kMeasuredRounds;
  spec.delta = 0.01;
  spec.linear.num_owners = 120;
  spec.workload_seed = 41;
  scenario::WorkloadInfo info = factory.Prepare(spec);
  ASSERT_TRUE(broker.OpenSession(spec.name, spec, info).ok());
  broker::ProductHandle handle;
  ASSERT_TRUE(broker.Resolve(spec.name, &handle).ok());
  Rng rng(51);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(broker.FindEngine(spec.name));

  constexpr int kWindow = broker::PricingSession::kQuoteTile;
  MarketRound rounds[kWindow];
  broker::HandleRequest requests[kWindow];
  broker::Quote quotes[kWindow];
  broker::FeedbackRequest feedback[kWindow];
  StatusCode codes[kWindow];
  auto drive = [&](int iterations) {
    for (int it = 0; it < iterations; ++it) {
      for (int i = 0; i < kWindow; ++i) {
        stream->Next(&rng, &rounds[i]);
        requests[i] = {handle, rounds[i].features, rounds[i].reserve};
      }
      ASSERT_TRUE(broker.PostPrices(std::span<const broker::HandleRequest>(requests),
                                    std::span<broker::Quote>(quotes))
                      .ok());
      for (int i = 0; i < kWindow; ++i) {
        feedback[i].ticket = quotes[i].ticket;
        feedback[i].accepted =
            !quotes[i].certain_no_sale && quotes[i].price <= rounds[i].value;
      }
      ASSERT_TRUE(broker
                      .Observes(std::span<const broker::FeedbackRequest>(feedback),
                                std::span<StatusCode>(codes))
                      .ok());
      for (StatusCode code : codes) ASSERT_EQ(code, StatusCode::kOk);
    }
  };

  drive(kWarmupRounds / kWindow);
  int64_t before = ThreadAllocationCount();
  drive(kMeasuredRounds / kWindow);
  int64_t after = ThreadAllocationCount();
  EXPECT_EQ(after - before, 0)
      << (after - before) << " allocations in " << kMeasuredRounds
      << " steady-state full-tile batched broker round trips";
}

TEST(SlabArena, BumpAllocationWithinAChunkIsHeapFree) {
  SlabArena arena;  // 64 KiB chunks
  // Prime the first chunk (one aligned heap allocation + chunk bookkeeping).
  void* first = arena.Allocate(64);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(arena.chunk_count(), 1u);

  // Every further in-chunk allocation is a pure pointer bump: no heap.
  int64_t before = ThreadAllocationCount();
  for (int i = 0; i < 500; ++i) {
    void* p = arena.Allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineSize, 0u);
  }
  EXPECT_EQ(ThreadAllocationCount() - before, 0);
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_used(), 64u * 501);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());

  // An oversized request gets its own dedicated chunk instead of failing.
  void* big = arena.Allocate(256 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.chunk_count(), 2u);
}

TEST(ArenaPool, SteadyStateChurnRecyclesStorageWithoutHeapTraffic) {
  struct Payload {
    explicit Payload(int v) : value(v) {}
    int value;
    char pad[200];  // bigger than a free-list node; forces real block reuse
  };
  SlabArena arena;
  ArenaPool<Payload> pool(&arena);

  // High-water mark: 32 simultaneously live objects.
  std::vector<Payload*> live;
  for (int i = 0; i < 32; ++i) live.push_back(pool.Create(i));
  EXPECT_EQ(pool.live(), 32u);
  size_t reserved_at_peak = arena.bytes_reserved();
  for (Payload* p : live) pool.Destroy(p);
  live.clear();
  EXPECT_EQ(pool.live(), 0u);

  // Steady-state churn below the high-water mark: zero heap allocations,
  // zero arena growth — every Create pops the free list.
  int64_t before = ThreadAllocationCount();
  size_t used_before = arena.bytes_used();
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 32; ++i) {
      Payload* p = pool.Create(cycle * 32 + i);
      ASSERT_EQ(p->value, cycle * 32 + i);
      live.push_back(p);
    }
    for (Payload* p : live) pool.Destroy(p);
    live.clear();
  }
  EXPECT_EQ(ThreadAllocationCount() - before, 0);
  EXPECT_EQ(arena.bytes_used(), used_before);
  EXPECT_EQ(arena.bytes_reserved(), reserved_at_peak);
  EXPECT_EQ(pool.recycled(), 100u * 32);
  // LIFO recycling: the most recently destroyed block is handed out first
  // (hot in cache), and blocks stay cache-line-aligned across reuse.
  Payload* a = pool.Create(1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % kCacheLineSize, 0u);
  pool.Destroy(a);
  Payload* b = pool.Create(2);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  pool.Destroy(b);
}

TEST(SteadyStateAllocations, BrokerSessionPoolRecyclesAcrossOpenCloseChurn) {
  // Open/close churn against the broker: session objects come from the
  // arena pool and are recycled on close, so the per-cycle arena growth is
  // exactly the (tombstoned, never-reused — ticket-base uniqueness) slot
  // records and nothing else. The growth per cycle must therefore be
  // CONSTANT from the first full cycle on; if closed sessions leaked pool
  // blocks, each cycle would grow by an extra 8 sessions' worth.
  scenario::StreamFactory factory;
  scenario::ScenarioSpec spec;
  spec.name = "alloc/churn/base";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = "reserve";
  spec.n = 6;
  spec.rounds = 100;
  spec.linear.num_owners = 80;
  spec.workload_seed = 13;
  scenario::WorkloadInfo info = factory.Prepare(spec);

  broker::Broker broker;
  auto name_of = [](int i) { return "alloc/churn/p" + std::to_string(i); };
  auto run_cycle = [&]() {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(broker.OpenSession(name_of(i), spec, info).ok());
    }
    broker::BrokerStats stats = broker.Stats();
    EXPECT_EQ(stats.slab_live_slots, 8u);
    EXPECT_EQ(stats.open_sessions, 8u);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(broker.CloseSession(name_of(i)).ok());
    }
  };
  run_cycle();  // warm the session pool to its high-water mark
  size_t used_after_warmup = broker.Stats().arena_bytes_used;
  run_cycle();
  size_t per_cycle = broker.Stats().arena_bytes_used - used_after_warmup;
  for (int cycle = 0; cycle < 6; ++cycle) {
    size_t before = broker.Stats().arena_bytes_used;
    run_cycle();
    EXPECT_EQ(broker.Stats().arena_bytes_used - before, per_cycle)
        << "arena growth changed in cycle " << cycle;
  }
  broker::BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.slab_live_slots, 0u);
  EXPECT_EQ(stats.slab_tombstoned_slots, stats.slab_total_slots);
  EXPECT_EQ(stats.slab_total_slots, 8u * 8);
}

TEST(SteadyStateAllocations, RunMarketScratchReuse) {
  // RunMarket itself (with a caller-held scratch) allocates only O(1) per
  // call — tracker internals, not per round. Compare two horizon lengths:
  // the allocation count must not grow with the round count.
  NoisyLinearMarketConfig market;
  market.feature_dim = 6;
  market.num_owners = 80;

  auto allocations_for = [&](int64_t rounds_count) {
    Rng rng(71);
    NoisyLinearQueryStream stream(market, &rng);
    EllipsoidEngineConfig config;
    config.dim = market.feature_dim;
    config.horizon = rounds_count;
    config.initial_radius = stream.RecommendedRadius();
    EllipsoidPricingEngine engine(config);
    SimulationScratch scratch;
    // Warm the scratch so the measured call starts from steady state.
    SimulationOptions warm;
    warm.rounds = 100;
    RunMarket(&stream, &engine, warm, &rng, &scratch);

    SimulationOptions options;
    options.rounds = rounds_count;
    int64_t before = ThreadAllocationCount();
    RunMarket(&stream, &engine, options, &rng, &scratch);
    return ThreadAllocationCount() - before;
  };

  int64_t short_run = allocations_for(200);
  int64_t long_run = allocations_for(2000);
  EXPECT_EQ(short_run, long_run)
      << "RunMarket allocations grew with the horizon: " << short_run << " -> "
      << long_run;
}

}  // namespace
}  // namespace pdm
