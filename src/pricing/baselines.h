#ifndef PDM_PRICING_BASELINES_H_
#define PDM_PRICING_BASELINES_H_

#include <string>

#include "pricing/pricing_engine.h"

/// \file
/// The baseline posted-price policy the evaluation compares against.

namespace pdm {

/// The paper's "risk-averse baseline ... which consistently posts the reserve
/// price in each round" (Section V-A). Always sells whenever a sale is
/// possible (q ≤ v) but forfeits the whole markup v − q as regret.
class ReservePriceBaseline : public PricingEngine {
 public:
  explicit ReservePriceBaseline(int dim) : dim_(dim) {}

  int dim() const override { return dim_; }
  ValueInterval EstimateValueInterval(const Vector& features) const override;
  const EngineCounters& counters() const override { return counters_; }
  std::string name() const override { return "risk-averse"; }

  /// Posts each query's reserve. The baseline never learns, so a cut
  /// context only marks its round as posted, and snapshots are the counters
  /// alone.
  void PostPriceBatch(const double* panel, int k, const double* reserves,
                      PostedPrice* posted, PendingCut* const* cuts) override;
  void ObserveDetached(const PendingCut& cut, bool accepted) override;
  /// Kind 1 only, never `wrapped_skip`.
  bool AcceptsCut(const PendingCut& cut) const override;
  bool SaveSnapshot(EngineSnapshot* out) const override;
  bool LoadSnapshot(const EngineSnapshot& snapshot) override;

 private:
  int dim_;
  EngineCounters counters_;
};

}  // namespace pdm

#endif  // PDM_PRICING_BASELINES_H_
