#include "pricing/interval_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "pricing/engine_state.h"

namespace pdm {

double DefaultIntervalEpsilon(int64_t horizon, double delta) {
  PDM_CHECK(horizon >= 2);
  // Theorem 3's choice, clamped to the refinable regime under uncertainty
  // (see DefaultEllipsoidEpsilon for why the clamp is required).
  double t = static_cast<double>(horizon);
  return std::max(std::log2(t) / t, 4.0 * delta);
}

IntervalPricingEngine::IntervalPricingEngine(const IntervalEngineConfig& config)
    : config_(config),
      epsilon_(config.epsilon > 0.0 ? config.epsilon
                                    : DefaultIntervalEpsilon(config.horizon, config.delta)),
      lo_(config.theta_min),
      hi_(config.theta_max) {
  PDM_CHECK(lo_ <= hi_);
  PDM_CHECK(config_.delta >= 0.0);
  PDM_CHECK(epsilon_ > 0.0);
}

void IntervalPricingEngine::PostPriceBatch(const double* panel, int k,
                                           const double* reserves, PostedPrice* posted,
                                           PendingCut* const* cuts) {
  PDM_CHECK(k >= 0);
  for (int j = 0; j < k; ++j) {
    ++counters_.rounds;
    const double x = panel[j];
    // Support of θ ↦ x·θ over [lo, hi]; a negative feature flips the ends.
    double lower = x >= 0.0 ? x * lo_ : x * hi_;
    double upper = x >= 0.0 ? x * hi_ : x * lo_;
    double mid = 0.5 * (lower + upper);
    double q = config_.use_reserve ? reserves[j] : -std::numeric_limits<double>::infinity();

    PostedPrice& out = posted[j];
    PendingKind kind;
    if (config_.use_reserve && q >= upper + config_.delta) {
      ++counters_.skipped_rounds;
      out.price = q;
      out.exploratory = false;
      out.certain_no_sale = true;
      kind = PendingKind::kSkip;
    } else if (upper - lower > epsilon_) {
      out.price = std::max(q, mid);
      out.exploratory = true;
      out.certain_no_sale = false;
      kind = PendingKind::kExploratory;
      ++counters_.exploratory_rounds;
    } else {
      out.price = std::max(q, lower - config_.delta);
      out.exploratory = false;
      out.certain_no_sale = false;
      kind = PendingKind::kConservative;
      ++counters_.conservative_rounds;
    }
    PendingCut* cut = cuts[j];
    cut->kind = static_cast<int>(kind);
    cut->price = out.price;
    cut->x = x;
    cut->wrapped_skip = false;
  }
}

void IntervalPricingEngine::ObserveDetached(const PendingCut& cut, bool accepted) {
  const PendingKind kind = static_cast<PendingKind>(cut.kind);
  PDM_CHECK(kind != PendingKind::kNone);
  if (kind != PendingKind::kExploratory) return;  // conservative/skip: no cut
  const double x = cut.x;
  if (x == 0.0) return;  // the price carried no information about θ*

  // Rejection ⇒ x·θ* ≥ v ... more precisely p ≥ v = x·θ* − δ_t ⇒
  // x·θ* ≤ p + δ; acceptance ⇒ x·θ* ≥ p − δ. Solve for θ* respecting the
  // sign of x.
  double new_lo = lo_;
  double new_hi = hi_;
  if (!accepted) {
    double bound = (cut.price + config_.delta) / x;
    if (x > 0.0) {
      new_hi = std::min(new_hi, bound);
    } else {
      new_lo = std::max(new_lo, bound);
    }
  } else {
    double bound = (cut.price - config_.delta) / x;
    if (x > 0.0) {
      new_lo = std::max(new_lo, bound);
    } else {
      new_hi = std::min(new_hi, bound);
    }
  }
  if (new_lo <= new_hi) {
    lo_ = new_lo;
    hi_ = new_hi;
    ++counters_.cuts_applied;
  } else {
    // A noise realisation outside ±δ produced contradictory feedback (the
    // ≤ 1/T probability event of Eq. 6); keep the previous interval.
    ++counters_.cuts_discarded;
  }
}

bool IntervalPricingEngine::AcceptsCut(const PendingCut& cut) const {
  return cut.kind >= static_cast<int>(PendingKind::kExploratory) &&
         cut.kind <= static_cast<int>(PendingKind::kSkip) && !cut.wrapped_skip;
}

bool IntervalPricingEngine::SaveSnapshot(EngineSnapshot* out) const {
  PDM_CHECK(out != nullptr);
  out->engine = "interval";
  out->dim = 1;
  out->epsilon = epsilon_;
  out->delta = config_.delta;
  out->center.clear();
  out->shape = Matrix(0, 0);
  out->cuts_since_symmetrize = 0;
  out->lo = lo_;
  out->hi = hi_;
  out->counters = counters_;
  return true;
}

bool IntervalPricingEngine::LoadSnapshot(const EngineSnapshot& snapshot) {
  if (snapshot.engine != "interval") return false;
  if (snapshot.dim != 1) return false;
  if (!(snapshot.lo <= snapshot.hi)) return false;
  lo_ = snapshot.lo;
  hi_ = snapshot.hi;
  epsilon_ = snapshot.epsilon;
  config_.delta = snapshot.delta;
  counters_ = snapshot.counters;
  return true;
}

ValueInterval IntervalPricingEngine::EstimateValueInterval(const Vector& features) const {
  PDM_CHECK(features.size() == 1);
  double x = features[0];
  double lower = x >= 0.0 ? x * lo_ : x * hi_;
  double upper = x >= 0.0 ? x * hi_ : x * lo_;
  return ValueInterval{lower, upper};
}

std::string IntervalPricingEngine::name() const {
  std::string base = config_.use_reserve ? "reserve-1d" : "pure-1d";
  if (config_.delta > 0.0) base += "+uncertainty";
  return base;
}

}  // namespace pdm
