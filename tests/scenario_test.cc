// The declarative scenario layer: registry coverage of every paper exhibit,
// spec round-trips through the stream/mechanism factories, glob selection,
// sweep expansion, and — the load-bearing guarantee — bit-identical
// agreement between an ExperimentDriver run and the legacy hand-wired
// construction the dedicated bench binaries used before the refactor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "features/airbnb_features.h"
#include "market/adversarial.h"
#include "market/airbnb_market.h"
#include "market/kernel_market.h"
#include "market/simulator.h"
#include "pricing/feature_maps.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"
#include "pricing/link_functions.h"
#include "rng/subgaussian.h"
#include "scenario/experiment.h"
#include "scenario/linear_workload.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_registry.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

namespace pdm::scenario {
namespace {

// ------------------------------------------------------------------ registry

TEST(ScenarioRegistry, EnumeratesEveryPaperExhibit) {
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();

  std::map<std::string, int> per_family;
  for (const ScenarioSpec& spec : registry.specs()) {
    per_family[spec.family] += 1;
    EXPECT_EQ(Validate(spec), "") << spec.name;
  }
  // 6 panels x 4 variants.
  EXPECT_EQ(per_family["fig4"], 24);
  // 4 variants (the risk-averse baseline rides along in the tracker).
  EXPECT_EQ(per_family["fig5a"], 4);
  // pure + three log-ratios.
  EXPECT_EQ(per_family["fig5b"], 4);
  // 2 hashed dims x {sparse honest, sparse oracle, dense}.
  EXPECT_EQ(per_family["fig5c"], 6);
  // 6 (n, T) configurations of the reserve variant.
  EXPECT_EQ(per_family["table1"], 6);
  // 5 dims x 4 variants.
  EXPECT_EQ(per_family["throughput"], 20);
  // T = 1e2..1e6.
  EXPECT_EQ(per_family["theorem3"], 5);
  // 5 seeds x 4 variants.
  EXPECT_EQ(per_family["coldstart"], 20);
  // delta sweep (5) + epsilon sweep (6).
  EXPECT_EQ(per_family["ablation"], 11);
  // landmark budgets {5, 10, 20, 40} + the misspecified run.
  EXPECT_EQ(per_family["kernel"], 5);
  // 7 doubling horizons x {safe, unsafe}.
  EXPECT_EQ(per_family["lemma8"], 14);
  EXPECT_EQ(registry.size(), 119u);

  // Spot-check the exact names the docs and CI reference.
  for (const char* name :
       {"fig4/b/reserve", "fig5a/pure", "fig5b/ratio=0.6", "fig5c/n=1024/dense",
        "table1/n=100", "throughput/reserve+uncertainty/n=50", "theorem3/T=1000000",
        "coldstart/s4/reserve", "ablation/delta/delta=0.02",
        "ablation/epsilon/epsilon=0.12", "kernel/m=40", "kernel/misspecified-linear",
        "lemma8/unsafe/T=3200"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("fig4/g/pure"), nullptr);
}

TEST(ScenarioRegistry, PinsThePapersScales) {
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();
  const ScenarioSpec* fig5a = registry.Find("fig5a/reserve");
  ASSERT_NE(fig5a, nullptr);
  EXPECT_EQ(fig5a->n, 100);
  EXPECT_EQ(fig5a->rounds, 100000);
  EXPECT_EQ(fig5a->delta, 0.01);
  EXPECT_EQ(fig5a->sim_seed, 99u);

  const ScenarioSpec* fig4f = registry.Find("fig4/f/pure");
  ASSERT_NE(fig4f, nullptr);
  EXPECT_EQ(fig4f->n, 100);
  EXPECT_EQ(fig4f->rounds, 100000);
  // The legacy bench seeded each panel's workload with seed + dim.
  EXPECT_EQ(fig4f->workload_seed, 101u);

  const ScenarioSpec* fig5b = registry.Find("fig5b/ratio=0.8");
  ASSERT_NE(fig5b, nullptr);
  EXPECT_EQ(fig5b->rounds, 74111);
  EXPECT_EQ(fig5b->airbnb.log_reserve_ratio, 0.8);
  EXPECT_EQ(fig5b->link, LinkKind::kExp);

  const ScenarioSpec* sparse1024 = registry.Find("fig5c/n=1024/sparse-honest");
  ASSERT_NE(sparse1024, nullptr);
  EXPECT_EQ(sparse1024->rounds, 20000);  // the O(n^2) default reduction
  const ScenarioSpec* dense1024 = registry.Find("fig5c/n=1024/dense");
  ASSERT_NE(dense1024, nullptr);
  EXPECT_EQ(dense1024->rounds, 100000);
}

TEST(ScenarioRegistry, MatchSelectsByGlobAndFamily) {
  const ScenarioRegistry& registry = ScenarioRegistry::PaperExhibits();
  EXPECT_EQ(registry.Match("fig4").size(), 24u);        // bare family name
  EXPECT_EQ(registry.Match("fig4/*").size(), 24u);      // name glob
  EXPECT_EQ(registry.Match("fig4/b/*").size(), 4u);     // one panel
  EXPECT_EQ(registry.Match("fig4/b/*,table1").size(), 10u);
  EXPECT_EQ(registry.Match("fig4,fig4/*").size(), 24u);  // deduped
  EXPECT_EQ(registry.Match("throughput/*/n=2").size(), 4u);
  EXPECT_EQ(registry.Match("throughput/*/n=2?").size(), 4u);  // n=20 only
  EXPECT_EQ(registry.Match("*").size(), registry.size());
  EXPECT_TRUE(registry.Match("does-not-exist").empty());
  EXPECT_TRUE(registry.Match("").empty());

  // Selection preserves registration order.
  std::vector<ScenarioSpec> panel = registry.Match("fig4/b/*");
  ASSERT_EQ(panel.size(), 4u);
  EXPECT_EQ(panel[0].mechanism, "pure");
  EXPECT_EQ(panel[3].mechanism, "reserve+uncertainty");
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "custom/run";
  registry.Add(spec);
  EXPECT_DEATH(registry.Add(spec), "");
}

TEST(Sweep, ExpandsOneAxisWithNamedPoints) {
  ScenarioSpec base;
  base.name = "grid";
  base.stream = StreamKind::kLinear;
  std::vector<ScenarioSpec> specs = Sweep(base, "n", {2, 5, 10, 20, 50});
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "grid/n=2");
  EXPECT_EQ(specs[0].n, 2);
  EXPECT_EQ(specs[4].name, "grid/n=50");
  EXPECT_EQ(specs[4].n, 50);

  std::vector<ScenarioSpec> deltas = Sweep(base, "delta", {0.005, 0.01});
  EXPECT_EQ(deltas[0].name, "grid/delta=0.005");
  EXPECT_EQ(deltas[0].delta, 0.005);

  EXPECT_DEATH(Sweep(base, "not-a-field", {1.0}), "");
}

// ------------------------------------------------------------------ mechanisms

TEST(MechanismRegistry, BuiltinNamesAndTraits) {
  const MechanismRegistry& registry = MechanismRegistry::Builtin();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"pure", "uncertainty", "reserve",
                                      "reserve+uncertainty", "reserve-unsafe",
                                      "risk-averse"}));
  EXPECT_FALSE(registry.Find("pure")->use_reserve);
  EXPECT_TRUE(registry.Find("uncertainty")->uncertainty);
  EXPECT_TRUE(registry.Find("reserve")->use_reserve);
  EXPECT_FALSE(registry.Find("reserve")->uncertainty);
  EXPECT_TRUE(registry.Find("reserve-unsafe")->allow_conservative_cuts);
  EXPECT_TRUE(registry.Find("risk-averse")->risk_averse_baseline);
  EXPECT_FALSE(registry.Contains("nope"));
}

TEST(MechanismRegistry, BuildsTheEngineFamilyTheSpecImplies) {
  ScenarioSpec spec;
  spec.mechanism = "reserve+uncertainty";
  spec.rounds = 1000;
  spec.delta = 0.01;
  WorkloadInfo info;
  info.engine_dim = 8;
  info.initial_radius = 4.0;
  std::unique_ptr<PricingEngine> engine = MechanismRegistry::Builtin().Build(spec, info);
  auto* ellipsoid = dynamic_cast<EllipsoidPricingEngine*>(engine.get());
  ASSERT_NE(ellipsoid, nullptr);
  EXPECT_EQ(ellipsoid->dim(), 8);
  EXPECT_EQ(ellipsoid->config().delta, 0.01);
  EXPECT_TRUE(ellipsoid->config().use_reserve);

  // The uncertainty flag gates delta: "reserve" ignores the spec's buffer.
  spec.mechanism = "reserve";
  engine = MechanismRegistry::Builtin().Build(spec, info);
  EXPECT_EQ(dynamic_cast<EllipsoidPricingEngine*>(engine.get())->config().delta, 0.0);

  // One-dimensional workloads route to the interval engine.
  info.engine_dim = 1;
  engine = MechanismRegistry::Builtin().Build(spec, info);
  EXPECT_NE(dynamic_cast<IntervalPricingEngine*>(engine.get()), nullptr);

  // Non-identity links wrap the base in the generalized adapter.
  info.engine_dim = 8;
  spec.link = LinkKind::kExp;
  engine = MechanismRegistry::Builtin().Build(spec, info);
  EXPECT_NE(dynamic_cast<GeneralizedPricingEngine*>(engine.get()), nullptr);

  spec.link = LinkKind::kIdentity;
  spec.mechanism = "unknown-mechanism";
  EXPECT_DEATH(MechanismRegistry::Builtin().Build(spec, info), "");
}

TEST(MechanismRegistry, CustomRegistration) {
  MechanismRegistry registry;
  MechanismTraits aggressive;
  aggressive.use_reserve = true;
  registry.Register("my-variant", aggressive);
  EXPECT_TRUE(registry.Contains("my-variant"));
  // Re-registering overrides in place.
  aggressive.uncertainty = true;
  registry.Register("my-variant", aggressive);
  EXPECT_TRUE(registry.Find("my-variant")->uncertainty);
}

// ------------------------------------------------------------------ factories

TEST(StreamFactory, LinearWorkloadIsCachedByKey) {
  StreamFactory factory;
  ScenarioSpec a;
  a.stream = StreamKind::kLinear;
  a.n = 4;
  a.rounds = 200;
  a.linear.num_owners = 50;
  a.workload_seed = 3;
  ScenarioSpec b = a;
  b.mechanism = "pure";  // mechanism must not affect the workload identity
  b.sim_seed = 123;

  factory.Prepare(a);
  const LinearWorkload* first = factory.FindLinearWorkload(a);
  factory.Prepare(b);
  EXPECT_EQ(factory.FindLinearWorkload(b), first);

  ScenarioSpec c = a;
  c.workload_seed = 4;
  factory.Prepare(c);
  EXPECT_NE(factory.FindLinearWorkload(c), first);
}

TEST(StreamFactory, SpecsRoundTripThroughTheFactories) {
  StreamFactory factory;

  // Linear: replay stream over the cached workload, engine over n dims.
  {
    ScenarioSpec spec;
    spec.name = "roundtrip/linear";
    spec.stream = StreamKind::kLinear;
    spec.mechanism = "reserve";
    spec.n = 6;
    spec.rounds = 300;
    spec.linear.num_owners = 40;
    WorkloadInfo info = factory.Prepare(spec);
    EXPECT_EQ(info.engine_dim, 6);
    EXPECT_GT(info.initial_radius, 0.0);
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    ASSERT_NE(stream, nullptr);
    MarketRound round = stream->Next(&rng);
    EXPECT_EQ(static_cast<int>(round.features.size()), 6);
    std::unique_ptr<PricingEngine> engine =
        MechanismRegistry::Builtin().Build(spec, info);
    EXPECT_EQ(engine->dim(), 6);
  }

  // Kernel: engine prices the landmark image; misspecified prices raw x.
  {
    ScenarioSpec spec;
    spec.name = "roundtrip/kernel";
    spec.stream = StreamKind::kKernel;
    spec.mechanism = "reserve";
    spec.n = 5;
    spec.kernel.input_dim = 3;
    spec.rounds = 100;
    WorkloadInfo info = factory.Prepare(spec);
    EXPECT_EQ(info.engine_dim, 5);
    EXPECT_NE(info.kernel_map, nullptr);

    ScenarioSpec raw = spec;
    raw.kernel.misspecified_linear = true;
    WorkloadInfo raw_info = factory.Prepare(raw);
    EXPECT_EQ(raw_info.engine_dim, 3);
    EXPECT_EQ(raw_info.kernel_map, nullptr);
  }

  // Adversarial: Lemma 8 geometry (R = 1) regardless of mechanism.
  {
    ScenarioSpec spec;
    spec.name = "roundtrip/adversarial";
    spec.stream = StreamKind::kAdversarial;
    spec.mechanism = "reserve-unsafe";
    spec.n = 2;
    spec.rounds = 100;
    WorkloadInfo info = factory.Prepare(spec);
    EXPECT_EQ(info.engine_dim, 2);
    EXPECT_EQ(info.initial_radius, 1.0);
    Rng rng(spec.sim_seed);
    EXPECT_NE(factory.CreateStream(spec, &rng), nullptr);
  }
}

/// Bitwise equality of two doubles (EXPECT_EQ would equate +0.0 and -0.0).
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

ScenarioSpec AirbnbSpec(double ratio) {
  ScenarioSpec spec;
  spec.name = "airbnb/ratio";
  spec.stream = StreamKind::kAirbnb;
  spec.mechanism = ratio > 0.0 ? "reserve" : "pure";
  spec.link = LinkKind::kExp;
  spec.n = AirbnbFeatureSpace::kDim;
  spec.rounds = 300;
  spec.airbnb.log_reserve_ratio = ratio;
  spec.workload_seed = 17;
  return spec;
}

std::vector<MarketRound> StreamRounds(const StreamFactory& factory, const ScenarioSpec& spec,
                                      int64_t count) {
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  std::vector<MarketRound> rounds(static_cast<size_t>(count));
  for (MarketRound& round : rounds) stream->Next(&rng, &round);
  return rounds;
}

TEST(StreamFactory, AirbnbRatiosShareOneFitAndReplayTheirOwnMarket) {
  // The reserve ratio only sets each round's reserve, so every ratio shares
  // one listings build and fit, and its stream must replay exactly the
  // market a direct build with that ratio produces.
  StreamFactory factory;
  const AirbnbMarket* shared = nullptr;
  for (double ratio : {0.0, 0.4, 0.8}) {
    const ScenarioSpec spec = AirbnbSpec(ratio);
    factory.Prepare(spec);
    if (shared == nullptr) shared = factory.FindAirbnbMarket(spec);
    EXPECT_EQ(factory.FindAirbnbMarket(spec), shared) << "ratio " << ratio;

    AirbnbMarketConfig config;
    config.num_listings = spec.rounds;
    config.log_reserve_ratio = ratio;
    config.train_fraction = spec.airbnb.train_fraction;
    Rng rng(spec.workload_seed);
    const AirbnbMarket direct = BuildAirbnbMarket(config, &rng);
    const std::vector<MarketRound> replayed = StreamRounds(factory, spec, spec.rounds);
    for (size_t t = 0; t < replayed.size(); ++t) {
      ASSERT_TRUE(SameBits(replayed[t].reserve, direct.rounds[t].reserve))
          << "ratio " << ratio << " round " << t;
      ASSERT_TRUE(SameBits(replayed[t].value, direct.rounds[t].value)) << "round " << t;
      ASSERT_EQ(replayed[t].features, direct.rounds[t].features) << "round " << t;
    }
  }
}

TEST(StreamFactory, AirbnbKeysTellApartDoublesThatDifferInAnyBit) {
  // Two ratios a hair apart are two markets: the second must not replay
  // the first one's reserves. Likewise for the train fraction.
  StreamFactory factory;
  const ScenarioSpec a = AirbnbSpec(0.6);
  const ScenarioSpec b = AirbnbSpec(0.6 + 1e-9);
  factory.Prepare(a);
  factory.Prepare(b);
  const std::vector<MarketRound> ra = StreamRounds(factory, a, 50);
  const std::vector<MarketRound> rb = StreamRounds(factory, b, 50);
  int differing = 0;
  for (size_t t = 0; t < ra.size(); ++t) differing += ra[t].reserve != rb[t].reserve;
  EXPECT_GT(differing, 0);

  ScenarioSpec c = a;
  c.airbnb.train_fraction = a.airbnb.train_fraction + 1e-9;
  factory.Prepare(c);
  EXPECT_NE(factory.FindAirbnbMarket(c), factory.FindAirbnbMarket(a));
}

TEST(StreamFactory, RejectsInvalidSpecs) {
  StreamFactory factory;
  ScenarioSpec spec;
  spec.name = "bad/mechanism";
  spec.mechanism = "definitely-not-registered";
  EXPECT_DEATH(factory.Prepare(spec), "");

  ScenarioSpec mismatched;
  mismatched.name = "bad/link";
  mismatched.stream = StreamKind::kAirbnb;
  mismatched.link = LinkKind::kIdentity;  // airbnb is log-linear
  mismatched.n = 55;
  EXPECT_DEATH(factory.Prepare(mismatched), "");
}

// ------------------------------------------------------- linear workload

TEST(LinearWorkload, MatchesTheSerialStreamRoundForRound) {
  struct Case {
    int dim;
    int owners;
    int64_t rounds;
  };
  // Round counts straddle the chunk size; the longer runs span several
  // chunks, so worker threads start.
  const int64_t chunk = kWorkloadChunkRounds;
  const Case cases[] = {
      {4, 50, 1},
      {4, 50, chunk - 1},
      {4, 50, chunk},
      {4, 50, chunk + 1},
      {6, 80, 3 * chunk + 5},
      {12, 12, 3 * chunk + 5},  // dim == owners: one owner per partition
      {1, 40, 3 * chunk + 5},   // dim == 1: the total compensation
  };
  for (const Case& c : cases) {
    const uint64_t seed = 7 + static_cast<uint64_t>(c.rounds);
    SCOPED_TRACE("dim=" + std::to_string(c.dim) + " owners=" + std::to_string(c.owners) +
                 " rounds=" + std::to_string(c.rounds));
    LinearWorkload workload = MakeLinearWorkload(c.dim, c.rounds, c.owners, seed);

    NoisyLinearMarketConfig config;
    config.feature_dim = c.dim;
    config.num_owners = c.owners;
    config.value_noise_sigma = 0.0;
    Rng rng(seed);
    NoisyLinearQueryStream stream(config, &rng);
    ASSERT_EQ(workload.theta, stream.theta());
    ASSERT_TRUE(SameBits(workload.recommended_radius, stream.RecommendedRadius()));
    ASSERT_EQ(static_cast<int64_t>(workload.rounds.size()), c.rounds);
    MarketRound expected;
    for (int64_t t = 0; t < c.rounds; ++t) {
      stream.Next(&rng, &expected);
      const MarketRound& actual = workload.rounds[static_cast<size_t>(t)];
      ASSERT_EQ(actual.features.size(), expected.features.size()) << "round " << t;
      ASSERT_EQ(std::memcmp(actual.features.data(), expected.features.data(),
                            actual.features.size() * sizeof(double)),
                0)
          << "round " << t;
      ASSERT_TRUE(SameBits(actual.reserve, expected.reserve)) << "round " << t;
      ASSERT_TRUE(SameBits(actual.value, expected.value)) << "round " << t;
    }
  }
}

/// FNV-1a over the bytes of every double a workload holds.
uint64_t WorkloadHash(const LinearWorkload& workload) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) hash = (hash ^ b) * 0x100000001b3ull;
  };
  for (double v : workload.theta) mix(v);
  mix(workload.recommended_radius);
  for (const MarketRound& round : workload.rounds) {
    for (double v : round.features) mix(v);
    mix(round.reserve);
    mix(round.value);
  }
  return hash;
}

TEST(LinearWorkload, SmallWorkloadMatchesItsGolden) {
  // Captured from the serial std::sort synthesis; any change to the draws,
  // the aggregation order or the normalization moves it. So can a libm that
  // rounds tanh/log differently: MatchesTheSerialStreamRoundForRound then
  // still tells whether synthesis itself is intact.
  EXPECT_EQ(WorkloadHash(MakeLinearWorkload(5, 200, 40, 3)), 0x7f7509488f6bc478ull);
}

TEST(Validate, ReportsTheFirstProblem) {
  ScenarioSpec spec;
  EXPECT_EQ(Validate(spec), "");
  spec.rounds = 0;
  EXPECT_NE(Validate(spec), "");
  spec.rounds = 100;
  spec.stream = StreamKind::kAdversarial;
  spec.n = 1;
  EXPECT_NE(Validate(spec), "");
  // Every sorted partition needs at least one owner.
  spec.stream = StreamKind::kLinear;
  spec.n = 20;
  spec.linear.num_owners = 10;
  EXPECT_NE(Validate(spec), "");
  spec.linear.num_owners = 20;
  EXPECT_EQ(Validate(spec), "");
}

// ------------------------------------------------------- legacy equivalence
//
// The hand-wired constructions below replicate, line for line, what the
// pre-refactor bench binaries did (bench_common.h's MakeLinearVariantEngine
// + NoisyReplayStream + Rng(sim_seed), and bench_kernel_pricing's inline
// wiring). The driver must reproduce them bit for bit.

struct LegacyVariant {
  const char* label;
  bool use_reserve;
  bool uncertainty;
};

constexpr LegacyVariant kLegacyVariants[] = {
    {"pure", false, false},
    {"uncertainty", false, true},
    {"reserve", true, false},
    {"reserve+uncertainty", true, true},
};

SimulationResult RunLegacyLinearVariant(const LinearWorkload& workload,
                                        const LegacyVariant& variant, int dim,
                                        int64_t rounds, double delta,
                                        int64_t series_stride, uint64_t sim_seed) {
  double engine_delta = variant.uncertainty ? delta : 0.0;
  std::unique_ptr<PricingEngine> engine;
  if (dim == 1) {
    IntervalEngineConfig config;
    config.theta_min = 0.0;
    config.theta_max = 2.0;
    config.horizon = rounds;
    config.delta = engine_delta;
    config.use_reserve = variant.use_reserve;
    engine = std::make_unique<IntervalPricingEngine>(config);
  } else {
    EllipsoidEngineConfig config;
    config.dim = dim;
    config.horizon = rounds;
    config.initial_radius = workload.recommended_radius;
    config.delta = engine_delta;
    config.use_reserve = variant.use_reserve;
    engine = std::make_unique<EllipsoidPricingEngine>(config);
  }
  double noise_sigma =
      variant.uncertainty ? SigmaForBuffer(delta, 2.0, rounds) : 0.0;
  NoisyReplayStream stream(&workload.rounds, noise_sigma);
  SimulationOptions options;
  options.rounds = rounds;
  options.series_stride = series_stride;
  Rng rng(sim_seed);
  return RunMarket(&stream, engine.get(), options, &rng);
}

void ExpectBitIdentical(const SimulationResult& actual, const SimulationResult& expected,
                        const std::string& label) {
  EXPECT_EQ(actual.tracker.rounds(), expected.tracker.rounds()) << label;
  EXPECT_EQ(actual.tracker.sales(), expected.tracker.sales()) << label;
  EXPECT_EQ(actual.tracker.cumulative_regret(), expected.tracker.cumulative_regret())
      << label;
  EXPECT_EQ(actual.tracker.cumulative_value(), expected.tracker.cumulative_value())
      << label;
  EXPECT_EQ(actual.tracker.regret_ratio(), expected.tracker.regret_ratio()) << label;
  EXPECT_EQ(actual.tracker.baseline_regret_ratio(),
            expected.tracker.baseline_regret_ratio())
      << label;
  EXPECT_EQ(actual.engine_counters.exploratory_rounds,
            expected.engine_counters.exploratory_rounds)
      << label;
  EXPECT_EQ(actual.engine_counters.cuts_applied, expected.engine_counters.cuts_applied)
      << label;
  ASSERT_EQ(actual.tracker.series().size(), expected.tracker.series().size()) << label;
  for (size_t i = 0; i < actual.tracker.series().size(); ++i) {
    EXPECT_EQ(actual.tracker.series()[i].cumulative_regret,
              expected.tracker.series()[i].cumulative_regret)
        << label << " series point " << i;
  }
}

TEST(ExperimentDriver, Fig5aGridMatchesLegacyWiringBitForBit) {
  const int dim = 8;
  const int64_t rounds = 1200;
  const int64_t owners = 120;
  const double delta = 0.01;

  std::vector<ScenarioSpec> specs = Fig5aScenarios(dim, rounds, owners, delta, 1);
  ASSERT_EQ(specs.size(), 4u);
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run(specs);

  LinearWorkload workload = MakeLinearWorkload(dim, rounds, owners, 1);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SimulationResult expected = RunLegacyLinearVariant(
        workload, kLegacyVariants[i], dim, rounds, delta, specs[i].series_stride, 99);
    ExpectBitIdentical(outcomes[i].result, expected, specs[i].name);
  }
}

TEST(ExperimentDriver, ThroughputScenarioMatchesLegacyWiringBitForBit) {
  std::vector<ScenarioSpec> specs = ThroughputScenarios(
      /*rounds=*/1500, /*workload_rounds=*/256, /*num_owners=*/64, /*delta=*/0.01,
      /*seed=*/1);
  // One spec per variant at n = 2 (the first four entries).
  specs.resize(4);
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run(specs);

  LinearWorkload workload = MakeLinearWorkload(2, 256, 64, 1);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SimulationResult expected =
        RunLegacyLinearVariant(workload, kLegacyVariants[i], 2, 1500, 0.01,
                               /*series_stride=*/0, /*sim_seed=*/1 + 2);
    ExpectBitIdentical(outcomes[i].result, expected, specs[i].name);
  }
}

TEST(ExperimentDriver, Table1ScenarioMatchesLegacyWiringBitForBit) {
  std::vector<ScenarioSpec> specs = Table1Scenarios(/*num_owners=*/80, /*full=*/false,
                                                    /*seed=*/1);
  // n = 20 at the smoke scale (rounds / 10).
  ScenarioSpec spec = specs[1];
  ASSERT_EQ(spec.n, 20);
  ASSERT_EQ(spec.rounds, 1000);
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run({spec});

  LinearWorkload workload = MakeLinearWorkload(20, 1000, 80, 1 + 20);
  SimulationResult expected = RunLegacyLinearVariant(
      workload, kLegacyVariants[2], 20, 1000, 0.0, /*series_stride=*/0, 99);
  ExpectBitIdentical(outcomes[0].result, expected, spec.name);
  // Table I consumes the per-round stats; pin those too.
  EXPECT_EQ(outcomes[0].result.tracker.value_stats().mean(),
            expected.tracker.value_stats().mean());
  EXPECT_EQ(outcomes[0].result.tracker.price_stats().stddev(),
            expected.tracker.price_stats().stddev());
}

TEST(ExperimentDriver, KernelScenarioMatchesLegacyWiringBitForBit) {
  std::vector<ScenarioSpec> specs = KernelScenarios(/*rounds=*/800, /*seed=*/9);
  ScenarioSpec spec = specs[1];  // kernel/m=10
  ASSERT_EQ(spec.n, 10);
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run({spec});

  // bench_kernel_pricing's RunKernelEngine, verbatim.
  KernelMarketConfig config;
  Rng rng(9);
  KernelQueryStream stream(config, &rng);
  EllipsoidEngineConfig base_config;
  base_config.dim = config.num_landmarks;
  base_config.horizon = 800;
  base_config.initial_radius = stream.RecommendedRadius();
  base_config.use_reserve = true;
  GeneralizedPricingEngine engine(
      std::make_unique<EllipsoidPricingEngine>(base_config),
      std::make_shared<IdentityLink>(),
      std::make_shared<KernelFeatureMap>(stream.feature_map()));
  SimulationOptions options;
  options.rounds = 800;
  SimulationResult expected = RunMarket(&stream, &engine, options, &rng);
  ExpectBitIdentical(outcomes[0].result, expected, spec.name);
}

TEST(ExperimentDriver, AdversarialScenarioMatchesLegacyWiringBitForBit) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : Lemma8Scenarios(/*max_horizon=*/200)) {
    specs.push_back(spec);
  }
  ASSERT_EQ(specs.size(), 6u);  // T in {50, 100, 200} x {safe, unsafe}
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run(specs);

  for (const ScenarioOutcome& outcome : outcomes) {
    // bench_lemma8_adversarial's RunAdversary, verbatim.
    AdversarialStreamConfig stream_config;
    stream_config.dim = 2;
    stream_config.horizon = outcome.spec.rounds;
    AdversarialQueryStream stream(stream_config);
    EllipsoidEngineConfig config;
    config.dim = 2;
    config.horizon = outcome.spec.rounds;
    config.initial_radius = 1.0;
    config.use_reserve = true;
    config.allow_conservative_cuts = outcome.spec.mechanism == "reserve-unsafe";
    EllipsoidPricingEngine engine(config);
    SimulationOptions options;
    options.rounds = outcome.spec.rounds;
    Rng rng(4);
    SimulationResult expected = RunMarket(&stream, &engine, options, &rng);
    ExpectBitIdentical(outcome.result, expected, outcome.spec.name);
  }
}

// --------------------------------------------------------------- the driver

TEST(ExperimentDriver, OutcomeIsIndependentOfThreadCount) {
  std::vector<ScenarioSpec> specs = Fig5aScenarios(6, 800, 60, 0.01, 5);
  std::vector<ScenarioSpec> more = Table1Scenarios(60, false, 5);
  specs.insert(specs.end(), more.begin(), more.begin() + 3);

  RunOptions serial;
  serial.num_threads = 1;
  std::vector<ScenarioOutcome> a = ExperimentDriver(serial).Run(specs);
  RunOptions wide;
  wide.num_threads = 8;
  std::vector<ScenarioOutcome> b = ExperimentDriver(wide).Run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectBitIdentical(a[i].result, b[i].result, specs[i].name);
  }
}

TEST(ExperimentDriver, MaxRoundsCapsHorizonAndWorkload) {
  ScenarioSpec spec;
  spec.name = "capped";
  spec.stream = StreamKind::kLinear;
  spec.n = 4;
  spec.rounds = 100000;
  spec.linear.workload_rounds = 50000;
  spec.linear.num_owners = 30;
  spec.series_stride = 60000;

  RunOptions options;
  options.max_rounds = 500;
  ExperimentDriver driver(options);
  ScenarioSpec capped = driver.Capped(spec);
  EXPECT_EQ(capped.rounds, 500);
  EXPECT_EQ(capped.linear.workload_rounds, 500);
  EXPECT_EQ(capped.series_stride, 0);  // stride beyond the horizon is dropped

  std::vector<ScenarioOutcome> outcomes = driver.Run({spec});
  EXPECT_EQ(outcomes[0].spec.rounds, 500);
  EXPECT_EQ(outcomes[0].result.tracker.rounds(), 500);
}

TEST(ExperimentDriver, RunJsonDocumentCarriesTheBatch) {
  std::vector<ScenarioSpec> specs = Fig5aScenarios(4, 300, 30, 0.01, 2);
  specs.resize(2);
  specs[0].series_stride = 100;
  ExperimentDriver driver;
  std::vector<ScenarioOutcome> outcomes = driver.Run(specs);

  RunMetadata meta;
  meta.generator = "scenario_test";
  meta.selection = "fig5a/*";
  meta.include_series = true;
  std::ostringstream os;
  WriteRunJson(os, meta, outcomes);
  std::string doc = os.str();

  EXPECT_NE(doc.find("\"schema\": \"pdm.run.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"generator\": \"scenario_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\": \"fig5a/pure\""), std::string::npos);
  EXPECT_NE(doc.find("\"stream\": \"linear\""), std::string::npos);
  // The pdm.bench_throughput.v1 compatibility keys must be present.
  for (const char* key : {"\"variant\"", "\"dim\"", "\"rounds\"", "\"wall_seconds\"",
                          "\"rounds_per_sec\"", "\"ns_per_round\"", "\"rss_bytes\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // The row's Prepare wall time follows the compatibility block.
  ASSERT_NE(doc.find("\"prepare_seconds\""), std::string::npos);
  EXPECT_GT(doc.find("\"prepare_seconds\""), doc.find("\"rss_bytes\""));
  EXPECT_GE(outcomes[0].prepare_seconds, 0.0);
  EXPECT_NE(doc.find("\"series\""), std::string::npos);
  // Balanced braces/brackets (the writer enforces this structurally; this
  // guards the call-site pairing in WriteRunJson).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

}  // namespace
}  // namespace pdm::scenario
