#include "market/linear_market.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "features/aggregation.h"
#include "features/scaler.h"

namespace pdm {
namespace {

Vector DrawTheta(const NoisyLinearMarketConfig& config, Rng* rng) {
  // "We draw the weight vector θ* in a similar way to sample the query
  // parameters ... scale θ* such that its L2 norm is √(2n)."
  Vector theta = (config.family == QueryWeightFamily::kUniform)
                     ? rng->UniformVector(config.feature_dim, -1.0, 1.0)
                     : rng->GaussianVector(config.feature_dim);
  if (config.theta_nonnegative) {
    for (double& v : theta) v = std::fabs(v);
  }
  PDM_CHECK(config.theta_flat_blend >= 0.0 && config.theta_flat_blend <= 1.0);
  // At small n the value/reserve ratio is a weighted average of only a few θ
  // components, so the per-seed spread grows like 1/√n; the floor keeps
  // v ≥ q with high probability for every seed at every dimension.
  double blend = std::max(config.theta_flat_blend,
                          1.0 / std::sqrt(static_cast<double>(config.feature_dim)));
  for (double& v : theta) {
    v = blend + (1.0 - blend) * v;
  }
  RescaleToNorm(&theta, std::sqrt(2.0 * static_cast<double>(config.feature_dim)));
  return theta;
}

QueryGeneratorConfig MakeQueryConfig(const NoisyLinearMarketConfig& config) {
  QueryGeneratorConfig qc;
  qc.num_owners = config.num_owners;
  qc.family = config.family;
  return qc;
}

}  // namespace

NoisyLinearQueryStream::NoisyLinearQueryStream(const NoisyLinearMarketConfig& config,
                                               Rng* rng)
    : config_(config),
      ledger_(CompensationLedger::Random(config.num_owners, /*base_scale=*/1.0,
                                         /*base_rate=*/1.0, rng)),
      query_generator_(MakeQueryConfig(config)),
      theta_(DrawTheta(config, rng)) {
  PDM_CHECK(config_.feature_dim >= 1);
  PDM_CHECK(config_.num_owners >= config_.feature_dim);
  PDM_CHECK(config_.value_noise_sigma >= 0.0);
}

void NoisyLinearQueryStream::Next(Rng* rng, MarketRound* round) {
  DrawQuery(rng, &ws_.query);
  FillRound(ws_.query, &ws_, round);
  if (config_.value_noise_sigma > 0.0) {
    round->value += rng->NextGaussian(0.0, config_.value_noise_sigma);
  }
}

void NoisyLinearQueryStream::DrawQuery(Rng* rng, NoisyLinearQuery* query) const {
  query_generator_.Next(rng, query);
}

void NoisyLinearQueryStream::FillRound(const NoisyLinearQuery& query, Workspace* ws,
                                       MarketRound* round) const {
  ledger_.CompensationsInto(query, &ws->compensations);
  SortedPartitionFeaturesInto(ws->compensations, config_.feature_dim, &ws->sort_keys,
                              &round->features);
  L2NormalizeInPlace(&round->features);  // ‖x_t‖ = 1 ⇒ S = 1

  // q_t = Σᵢ x_{t,i} (total compensation, rescaled)
  round->reserve = Sum(round->features);
  round->value = Dot(round->features, theta_);
}

double NoisyLinearQueryStream::RecommendedRadius() const {
  return 2.0 * std::sqrt(static_cast<double>(config_.feature_dim));
}

}  // namespace pdm
