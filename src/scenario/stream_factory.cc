#include "scenario/stream_factory.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "features/airbnb_features.h"
#include "market/adversarial.h"
#include "market/kernel_market.h"
#include "rng/subgaussian.h"

namespace pdm::scenario {

namespace {

KernelMarketConfig KernelConfigFor(const ScenarioSpec& spec) {
  KernelMarketConfig config;
  config.input_dim = spec.kernel.input_dim;
  config.num_landmarks = spec.n;
  config.rbf_gamma = spec.kernel.rbf_gamma;
  config.reserve_fraction = spec.kernel.reserve_fraction;
  config.value_offset = spec.kernel.value_offset;
  return config;
}

int64_t EffectiveWorkloadRounds(const ScenarioSpec& spec) {
  return spec.linear.workload_rounds > 0 ? spec.linear.workload_rounds : spec.rounds;
}

/// A double as a cache-key field: %a keeps every bit, so values that differ
/// anywhere get different keys (std::to_string keeps 6 decimals).
std::string ExactKey(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

}  // namespace

std::string StreamFactory::LinearKey(const ScenarioSpec& spec) const {
  return "n=" + std::to_string(spec.n) +
         "/w=" + std::to_string(EffectiveWorkloadRounds(spec)) +
         "/owners=" + std::to_string(spec.linear.num_owners) +
         "/seed=" + std::to_string(spec.workload_seed);
}

std::string StreamFactory::AirbnbKey(const ScenarioSpec& spec) const {
  // No ratio: every ratio shares one listings build and fit.
  return "T=" + std::to_string(spec.rounds) +
         "/train=" + ExactKey(spec.airbnb.train_fraction) +
         "/seed=" + std::to_string(spec.workload_seed);
}

std::string StreamFactory::AvazuKey(const ScenarioSpec& spec) const {
  return "n=" + std::to_string(spec.n) +
         "/train=" + std::to_string(spec.avazu.train_samples) +
         "/eval=" + std::to_string(spec.avazu.eval_samples) +
         "/seed=" + std::to_string(spec.workload_seed);
}

double StreamFactory::LinearNoiseSigma(const ScenarioSpec& spec) const {
  if (spec.linear.noise_sigma >= 0.0) return spec.linear.noise_sigma;
  const MechanismTraits* traits = MechanismRegistry::Builtin().Find(spec.mechanism);
  if (traits != nullptr && traits->uncertainty && spec.delta > 0.0) {
    // The evaluation's inversion: fix the buffer δ, derive the Gaussian σ
    // that makes it tight for horizon T (rng/subgaussian.h, Eq. 5).
    return SigmaForBuffer(spec.delta, 2.0, spec.rounds);
  }
  return 0.0;
}

WorkloadInfo StreamFactory::Prepare(const ScenarioSpec& spec) {
  std::string problem = Validate(spec);
  if (!problem.empty()) {
    std::fprintf(stderr, "invalid scenario '%s': %s\n", spec.name.c_str(),
                 problem.c_str());
  }
  PDM_CHECK(problem.empty());

  WorkloadInfo info;
  switch (spec.stream) {
    case StreamKind::kLinear: {
      auto [it, inserted] = linear_cache_.try_emplace(LinearKey(spec));
      if (inserted) {
        it->second = MakeLinearWorkload(spec.n, EffectiveWorkloadRounds(spec),
                                        spec.linear.num_owners, spec.workload_seed);
      }
      info.engine_dim = spec.n;
      info.initial_radius = it->second.recommended_radius;
      break;
    }
    case StreamKind::kKernel: {
      // Shadow construction with the scenario's own seed: the worker's
      // CreateStream repeats exactly these draws, so radius and landmark map
      // here match the stream the engine will actually price.
      Rng rng(spec.sim_seed);
      KernelQueryStream shadow(KernelConfigFor(spec), &rng);
      if (spec.kernel.misspecified_linear) {
        info.engine_dim = spec.kernel.input_dim;
        info.initial_radius = 4.0 * shadow.RecommendedRadius();
      } else {
        info.engine_dim = spec.n;
        info.initial_radius = shadow.RecommendedRadius();
        info.kernel_map = shadow.feature_map();
      }
      break;
    }
    case StreamKind::kAirbnb: {
      auto [it, inserted] = airbnb_cache_.try_emplace(AirbnbKey(spec));
      if (inserted) {
        AirbnbMarketConfig config;
        config.num_listings = spec.rounds;
        config.log_reserve_ratio = 0.0;
        config.train_fraction = spec.airbnb.train_fraction;
        Rng rng(spec.workload_seed);
        it->second.market = BuildAirbnbMarket(config, &rng);
      }
      const AirbnbMarket& market = it->second.market;
      const double ratio = spec.airbnb.log_reserve_ratio;
      if (ratio > 0.0 && !it->second.reserves.contains(ratio)) {
        it->second.reserves.emplace(ratio, AirbnbReserves(market, ratio));
      }
      info.engine_dim = AirbnbFeatureSpace::kDim;
      if (spec.airbnb.oracle_prior_radius > 0.0) {
        info.initial_center = market.theta;
        info.initial_radius = spec.airbnb.oracle_prior_radius;
      } else {
        info.initial_center = market.recommended_center;
        info.initial_radius = market.recommended_radius;
      }
      break;
    }
    case StreamKind::kAvazu: {
      auto [it, inserted] = avazu_cache_.try_emplace(AvazuKey(spec));
      if (inserted) {
        Rng rng(spec.workload_seed);
        AvazuLikeConfig data_config;
        it->second.click_log = std::make_unique<AvazuLikeClickLog>(data_config, &rng);
        AvazuMarketConfig config;
        config.hashed_dim = spec.n;
        config.train_samples = spec.avazu.train_samples;
        config.eval_samples = spec.avazu.eval_samples;
        it->second.market = BuildAvazuMarket(config, *it->second.click_log, &rng);
      }
      const AvazuMarket& market = it->second.market;
      info.engine_dim =
          spec.avazu.dense ? static_cast<int>(market.support.size()) : spec.n;
      info.logistic_shift = market.bias;
      if (spec.avazu.oracle_prior_radius > 0.0) {
        info.initial_center = market.theta;
        info.initial_radius = spec.avazu.oracle_prior_radius;
      } else {
        info.initial_radius = market.recommended_radius;
      }
      break;
    }
    case StreamKind::kAdversarial: {
      info.engine_dim = spec.n;
      info.initial_radius = 1.0;  // Lemma 8's R = 1, S = 1
      break;
    }
  }
  return info;
}

std::unique_ptr<QueryStream> StreamFactory::CreateStream(const ScenarioSpec& spec,
                                                         Rng* rng) const {
  switch (spec.stream) {
    case StreamKind::kLinear: {
      const LinearWorkload* workload = FindLinearWorkload(spec);
      PDM_CHECK(workload != nullptr);  // Prepare(spec) must run first
      return std::make_unique<NoisyReplayStream>(&workload->rounds,
                                                 LinearNoiseSigma(spec));
    }
    case StreamKind::kKernel:
      return std::make_unique<KernelQueryStream>(KernelConfigFor(spec), rng);
    case StreamKind::kAirbnb: {
      auto it = airbnb_cache_.find(AirbnbKey(spec));
      PDM_CHECK(it != airbnb_cache_.end());  // Prepare(spec) must run first
      const std::vector<MarketRound>* rounds = &it->second.market.rounds;
      const double ratio = spec.airbnb.log_reserve_ratio;
      if (ratio > 0.0) {
        return std::make_unique<ReplayQueryStream>(rounds, &it->second.reserves.at(ratio));
      }
      return std::make_unique<ReplayQueryStream>(rounds);
    }
    case StreamKind::kAvazu: {
      auto it = avazu_cache_.find(AvazuKey(spec));
      PDM_CHECK(it != avazu_cache_.end());
      return std::make_unique<AvazuQueryStream>(it->second.click_log.get(),
                                                &it->second.market, spec.n,
                                                spec.avazu.dense);
    }
    case StreamKind::kAdversarial: {
      AdversarialStreamConfig config;
      config.dim = spec.n;
      config.horizon = spec.rounds;
      config.theta1 = spec.adversarial.theta1;
      config.theta2 = spec.adversarial.theta2;
      return std::make_unique<AdversarialQueryStream>(config);
    }
  }
  return nullptr;
}

const LinearWorkload* StreamFactory::FindLinearWorkload(const ScenarioSpec& spec) const {
  auto it = linear_cache_.find(LinearKey(spec));
  return it == linear_cache_.end() ? nullptr : &it->second;
}

const AirbnbMarket* StreamFactory::FindAirbnbMarket(const ScenarioSpec& spec) const {
  auto it = airbnb_cache_.find(AirbnbKey(spec));
  return it == airbnb_cache_.end() ? nullptr : &it->second.market;
}

const AvazuMarket* StreamFactory::FindAvazuMarket(const ScenarioSpec& spec) const {
  auto it = avazu_cache_.find(AvazuKey(spec));
  return it == avazu_cache_.end() ? nullptr : &it->second.market;
}

}  // namespace pdm::scenario
