#ifndef PDM_MARKET_AIRBNB_MARKET_H_
#define PDM_MARKET_AIRBNB_MARKET_H_

#include <cstdint>
#include <vector>

#include "data/airbnb_like.h"
#include "features/airbnb_features.h"
#include "features/scaler.h"
#include "market/round.h"

/// \file
/// Application 2: accommodation rental under the log-linear model
/// (Section V-B).
///
/// Offline phase: generate Airbnb-like listings, engineer the 55-dim feature
/// space, standardize it, and fit OLS on an 80% train split with log prices
/// as targets — the learned coefficients "play the role of θ*" and the
/// 20% test MSE is reported (paper: 0.226). Online phase: stream the listings
/// as booking requests with market value v_t = exp(x_tᵀθ*) and reserve price
/// log q_t = ratio · log v_t ("we vary the ratio between the natural
/// logarithms of reserve price and market value").

namespace pdm {

struct AirbnbMarketConfig {
  /// Number of listings (the real dataset has 74,111 records).
  int64_t num_listings = 74111;
  /// log q_t / log v_t ∈ {0.4, 0.6, 0.8} in Fig. 5(b); ≤ 0 disables reserve.
  double log_reserve_ratio = 0.6;
  /// Train split fraction for OLS (paper: test set occupies 20%).
  double train_fraction = 0.8;
};

struct AirbnbMarket {
  /// Learned weights θ* over the standardized 55-dim space.
  Vector theta;
  double train_mse = 0.0;
  double test_mse = 0.0;
  /// Precomputed rounds in listing order (features standardized).
  std::vector<MarketRound> rounds;
  /// max‖x_t‖ over the rounds (the U bound of Theorem 2).
  double feature_norm_bound = 0.0;
  /// Suggested initial knowledge set: a ball centered on the broker's public
  /// prior (average log price on the bias coordinate, 0 elsewhere) with
  /// radius √2·‖θ* − center‖ — the same R/‖θ*‖ margin the paper uses for the
  /// noisy-linear-query application (R = 2√n vs ‖θ*‖ = √(2n)).
  Vector recommended_center;
  double recommended_radius = 0.0;
};

/// Builds the offline model and the online round sequence. Nothing is drawn
/// from `rng` after the fit, and `log_reserve_ratio` only sets each round's
/// reserve, so markets that differ only in the ratio share everything else
/// bit for bit (AirbnbReserves).
AirbnbMarket BuildAirbnbMarket(const AirbnbMarketConfig& config, Rng* rng);

/// Every round's reserve at `log_reserve_ratio`: exp(ratio · xᵀθ*), or 0 for
/// ratio ≤ 0 — exactly the `reserve` BuildAirbnbMarket gives each round of
/// the same market built with that ratio.
std::vector<double> AirbnbReserves(const AirbnbMarket& market, double log_reserve_ratio);

/// Replays a precomputed round list (Airbnb uses this; any recorded workload
/// can too). Wraps around if asked for more rounds than recorded.
class ReplayQueryStream : public QueryStream {
 public:
  explicit ReplayQueryStream(const std::vector<MarketRound>* rounds);

  /// Replays `rounds` with round t's reserve taken from (*reserves)[t]
  /// instead, so one recorded list serves every reserve ratio.
  ReplayQueryStream(const std::vector<MarketRound>* rounds,
                    const std::vector<double>* reserves);

  using QueryStream::Next;
  void Next(Rng* rng, MarketRound* round) override;

 private:
  const std::vector<MarketRound>* rounds_;
  const std::vector<double>* reserves_ = nullptr;
  size_t cursor_ = 0;
};

}  // namespace pdm

#endif  // PDM_MARKET_AIRBNB_MARKET_H_
