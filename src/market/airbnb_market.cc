#include "market/airbnb_market.h"

#include <cmath>

#include "common/check.h"
#include "learning/linear_regression.h"
#include "learning/metrics.h"

namespace pdm {
namespace {

/// Columns to standardize in the 55-dim engineered space: everything except
/// the bias column [0], which carries the intercept.
std::vector<int> StandardizedColumns() {
  std::vector<int> cols;
  for (int c = 1; c < AirbnbFeatureSpace::kDim; ++c) cols.push_back(c);
  return cols;
}

/// log q = ratio · log v: the reserve of a round with log market value z.
double ReserveAt(double z, double log_reserve_ratio) {
  return log_reserve_ratio > 0.0 ? std::exp(log_reserve_ratio * z) : 0.0;
}

}  // namespace

AirbnbMarket BuildAirbnbMarket(const AirbnbMarketConfig& config, Rng* rng) {
  PDM_CHECK(rng != nullptr);
  PDM_CHECK(config.num_listings > 10);
  PDM_CHECK(config.train_fraction > 0.0 && config.train_fraction < 1.0);

  AirbnbLikeConfig data_config;
  data_config.num_listings = config.num_listings;
  Table listings = GenerateAirbnbLikeListings(data_config, rng);

  AirbnbFeatureSpace space;
  space.Fit(listings);
  Matrix features = space.FeatureMatrix(listings);
  Vector targets = space.Targets(listings);

  int64_t train_rows = static_cast<int64_t>(
      config.train_fraction * static_cast<double>(listings.num_rows()));
  PDM_CHECK(train_rows >= AirbnbFeatureSpace::kDim);

  // Per-column standardization of the numeric/interaction columns, fitted on
  // the training split only (no leakage) and applied to the full stream.
  const std::vector<int> scaled_cols = StandardizedColumns();
  for (int c : scaled_cols) {
    double mean = 0.0;
    for (int64_t r = 0; r < train_rows; ++r) mean += features(static_cast<int>(r), c);
    mean /= static_cast<double>(train_rows);
    double var = 0.0;
    for (int64_t r = 0; r < train_rows; ++r) {
      double d = features(static_cast<int>(r), c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(train_rows);
    double stddev = std::sqrt(var);
    double inv = stddev > 0.0 ? 1.0 / stddev : 1.0;
    for (int64_t r = 0; r < listings.num_rows(); ++r) {
      double& cell = features(static_cast<int>(r), c);
      cell = (cell - mean) * inv;
    }
  }

  // OLS on the train split; a small ridge keeps the collinear one-hot blocks
  // (city + room + policy each sum to 1) well conditioned.
  Matrix train_x(static_cast<int>(train_rows), features.cols());
  Vector train_y(static_cast<size_t>(train_rows));
  for (int64_t r = 0; r < train_rows; ++r) {
    for (int c = 0; c < features.cols(); ++c) {
      train_x(static_cast<int>(r), c) = features(static_cast<int>(r), c);
    }
    train_y[static_cast<size_t>(r)] = targets[static_cast<size_t>(r)];
  }
  LinearRegression ols(LinearRegressionConfig{/*ridge=*/1e-6});
  PDM_CHECK(ols.Fit(train_x, train_y));

  AirbnbMarket market;
  market.theta = ols.weights();
  market.train_mse = ols.MeanSquaredError(train_x, train_y);

  int64_t test_rows = listings.num_rows() - train_rows;
  Matrix test_x(static_cast<int>(test_rows), features.cols());
  Vector test_y(static_cast<size_t>(test_rows));
  for (int64_t r = 0; r < test_rows; ++r) {
    for (int c = 0; c < features.cols(); ++c) {
      test_x(static_cast<int>(r), c) = features(static_cast<int>(train_rows + r), c);
    }
    test_y[static_cast<size_t>(r)] = targets[static_cast<size_t>(train_rows + r)];
  }
  market.test_mse = ols.MeanSquaredError(test_x, test_y);

  // Online rounds: the learned model is the ground truth (as in the paper,
  // which prices against the regression model it just fit).
  market.rounds.reserve(static_cast<size_t>(listings.num_rows()));
  for (int64_t r = 0; r < listings.num_rows(); ++r) {
    MarketRound round;
    round.features = features.Row(static_cast<int>(r));
    double z = Dot(market.theta, round.features);  // log market value
    round.value = std::exp(z);
    round.reserve = ReserveAt(z, config.log_reserve_ratio);
    market.feature_norm_bound =
        std::max(market.feature_norm_bound, Norm2(round.features));
    market.rounds.push_back(std::move(round));
  }
  // Broker prior: the average (log) price level is public market knowledge;
  // the coefficient structure is not.
  double mean_log_price = Sum(train_y) / static_cast<double>(train_rows);
  market.recommended_center = Zeros(AirbnbFeatureSpace::kDim);
  market.recommended_center[0] = mean_log_price;  // bias coordinate
  market.recommended_radius =
      std::sqrt(2.0) * Norm2(Sub(market.theta, market.recommended_center));
  return market;
}

std::vector<double> AirbnbReserves(const AirbnbMarket& market, double log_reserve_ratio) {
  std::vector<double> reserves;
  reserves.reserve(market.rounds.size());
  for (const MarketRound& round : market.rounds) {
    reserves.push_back(ReserveAt(Dot(market.theta, round.features), log_reserve_ratio));
  }
  return reserves;
}

ReplayQueryStream::ReplayQueryStream(const std::vector<MarketRound>* rounds)
    : rounds_(rounds) {
  PDM_CHECK(rounds_ != nullptr);
  PDM_CHECK(!rounds_->empty());
}

ReplayQueryStream::ReplayQueryStream(const std::vector<MarketRound>* rounds,
                                     const std::vector<double>* reserves)
    : ReplayQueryStream(rounds) {
  PDM_CHECK(reserves != nullptr && reserves->size() == rounds_->size());
  reserves_ = reserves;
}

void ReplayQueryStream::Next(Rng* rng, MarketRound* round) {
  (void)rng;
  // Copy-assign reuses the caller's feature storage: once the buffer has
  // grown to the workload's dimension, replay rounds allocate nothing.
  *round = (*rounds_)[cursor_];
  if (reserves_ != nullptr) round->reserve = (*reserves_)[cursor_];
  cursor_ = (cursor_ + 1) % rounds_->size();
}

}  // namespace pdm
