#ifndef PDM_PRICING_INTERVAL_ENGINE_H_
#define PDM_PRICING_INTERVAL_ENGINE_H_

#include <cstdint>
#include <string>

#include "pricing/pricing_engine.h"

/// \file
/// One-dimensional pricing engine (Section II-C's special case; Theorem 3).
///
/// For n = 1 the knowledge set is an interval K_t = [lo, hi] ∋ θ*, the
/// exploratory price performs bisection, and the worst-case regret is
/// O(log T) with ε = log₂(T)/T. The ellipsoid update formulas are singular at
/// n = 1 (factor n²/(n²−1)), so this engine exists as its own class rather
/// than a special case of EllipsoidPricingEngine.

namespace pdm {

struct IntervalEngineConfig {
  /// Initial knowledge interval [theta_min, theta_max] for θ*.
  double theta_min = 0.0;
  double theta_max = 1.0;
  /// Horizon T for the default threshold ε = log₂(T)/T (Theorem 3).
  int64_t horizon = 10000;
  /// Exploration threshold on p̄ − p̲; ≤ 0 selects the Theorem 3 default.
  double epsilon = -1.0;
  /// Uncertainty buffer δ.
  double delta = 0.0;
  /// Enforce the reserve constraint.
  bool use_reserve = true;
};

/// Theorem 3's threshold choice ε = log₂(T)/T, clamped to ≥ 4δ under
/// uncertainty.
double DefaultIntervalEpsilon(int64_t horizon, double delta);

class IntervalPricingEngine : public PricingEngine {
 public:
  explicit IntervalPricingEngine(const IntervalEngineConfig& config);

  int dim() const override { return 1; }
  ValueInterval EstimateValueInterval(const Vector& features) const override;
  const EngineCounters& counters() const override { return counters_; }
  std::string name() const override;

  /// Prices the panel query by query; each round's (x, price) pair is its
  /// cut context. Snapshots carry [lo, hi] plus counters.
  void PostPriceBatch(const double* panel, int k, const double* reserves,
                      PostedPrice* posted, PendingCut* const* cuts) override;
  void ObserveDetached(const PendingCut& cut, bool accepted) override;
  /// Kinds 1–3, never `wrapped_skip`.
  bool AcceptsCut(const PendingCut& cut) const override;
  bool SaveSnapshot(EngineSnapshot* out) const override;
  bool LoadSnapshot(const EngineSnapshot& snapshot) override;

  double theta_lower() const { return lo_; }
  double theta_upper() const { return hi_; }
  double epsilon() const { return epsilon_; }

 private:
  /// PendingCut::kind values (serialized with pending tickets).
  enum class PendingKind { kNone, kExploratory, kConservative, kSkip };

  // The 1-d knowledge set is two scalars, so this engine needs no vector
  // workspace: rounds are allocation-free by construction (covered by the
  // allocation regression test all the same).
  IntervalEngineConfig config_;
  double epsilon_;
  double lo_;
  double hi_;
  EngineCounters counters_;
};

}  // namespace pdm

#endif  // PDM_PRICING_INTERVAL_ENGINE_H_
