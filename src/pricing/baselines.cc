#include "pricing/baselines.h"

#include <limits>

#include "common/check.h"

namespace pdm {

void ReservePriceBaseline::PostPriceBatch(const double* panel, int k,
                                          const double* reserves, PostedPrice* posted,
                                          PendingCut* const* cuts) {
  PDM_CHECK(k >= 0);
  (void)panel;  // the reserve is the whole decision
  for (int j = 0; j < k; ++j) {
    ++counters_.rounds;
    ++counters_.conservative_rounds;
    posted[j] = PostedPrice{reserves[j], false, false};
    PendingCut* cut = cuts[j];
    cut->kind = 1;  // "posted, awaiting feedback" — no context beyond that
    cut->price = 0.0;
    cut->x = 0.0;
    cut->wrapped_skip = false;
  }
}

void ReservePriceBaseline::ObserveDetached(const PendingCut& cut, bool accepted) {
  PDM_CHECK(cut.kind != 0);
  (void)accepted;  // the baseline never learns
}

bool ReservePriceBaseline::AcceptsCut(const PendingCut& cut) const {
  return cut.kind == 1 && !cut.wrapped_skip;
}

ValueInterval ReservePriceBaseline::EstimateValueInterval(const Vector& features) const {
  (void)features;
  return ValueInterval{-std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity()};
}

bool ReservePriceBaseline::SaveSnapshot(EngineSnapshot* out) const {
  PDM_CHECK(out != nullptr);
  out->engine = "baseline";
  out->dim = dim_;
  out->epsilon = 0.0;
  out->delta = 0.0;
  out->center.clear();
  out->shape = Matrix(0, 0);
  out->cuts_since_symmetrize = 0;
  out->lo = 0.0;
  out->hi = 0.0;
  out->counters = counters_;
  return true;
}

bool ReservePriceBaseline::LoadSnapshot(const EngineSnapshot& snapshot) {
  if (snapshot.engine != "baseline") return false;
  if (snapshot.dim != dim_) return false;
  counters_ = snapshot.counters;
  return true;
}

}  // namespace pdm
