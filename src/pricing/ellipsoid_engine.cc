#include "pricing/ellipsoid_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "pricing/engine_state.h"

namespace pdm {

double DefaultEllipsoidEpsilon(int dim, int64_t horizon, double delta) {
  PDM_CHECK(dim >= 1);
  PDM_CHECK(horizon >= 1);
  // Theorem 1's choice. The 4nδ clamp is not cosmetic: cut validity requires
  // α ≥ −1/n, and with buffer δ the exploratory cut position is −δ/half_width,
  // so all refinement freezes once the probed width reaches 2nδ. If ε < 2nδ
  // the engine would then post exploratory mid prices forever — half of them
  // rejected at the cost of the full market value. ε ≥ 4nδ keeps the
  // conservative switch strictly inside the refinable regime. (The paper's
  // evaluation text quotes ε = n²/T while running δ ≫ n/T; a faithful
  // implementation is only stable with the clamp, so we keep it.)
  double n = static_cast<double>(dim);
  double t = static_cast<double>(horizon);
  return std::max(n * n / t, 4.0 * n * delta);
}

namespace {

Ellipsoid MakeInitialEllipsoid(const EllipsoidEngineConfig& config) {
  double diag = config.initial_radius * config.initial_radius;
  if (config.initial_center.empty()) {
    return config.packed_shape ? Ellipsoid::PackedBall(config.dim, config.initial_radius)
                               : Ellipsoid::Ball(config.dim, config.initial_radius);
  }
  PDM_CHECK(static_cast<int>(config.initial_center.size()) == config.dim);
  if (config.packed_shape) {
    return Ellipsoid(config.initial_center,
                     PackedSymMatrix::ScaledIdentity(config.dim, diag));
  }
  return Ellipsoid(config.initial_center, Matrix::ScaledIdentity(config.dim, diag));
}

}  // namespace

EllipsoidPricingEngine::EllipsoidPricingEngine(const EllipsoidEngineConfig& config)
    : config_(config),
      epsilon_(config.epsilon > 0.0
                   ? config.epsilon
                   : DefaultEllipsoidEpsilon(config.dim, config.horizon, config.delta)),
      ellipsoid_(MakeInitialEllipsoid(config)) {
  PDM_CHECK(config_.dim >= 2);
  PDM_CHECK(config_.initial_radius > 0.0);
  PDM_CHECK(config_.delta >= 0.0);
  PDM_CHECK(epsilon_ > 0.0);
}

void EllipsoidPricingEngine::PostPriceBatch(const double* panel, int k,
                                            const double* reserves, PostedPrice* posted,
                                            PendingCut* const* cuts) {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && reserves != nullptr && posted != nullptr &&
            cuts != nullptr);
  // One matrix–panel pass for all k supports, each written straight into its
  // cut context; every quote below prices against this same frozen
  // knowledge set.
  support_out_.resize(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) support_out_[static_cast<size_t>(j)] = &cuts[j]->support;
  ellipsoid_.SupportBatch(panel, k, support_out_.data());

  for (int j = 0; j < k; ++j) {
    PendingCut* cut = cuts[j];
    const SupportInterval& support = cut->support;
    ++counters_.rounds;
    double q = config_.use_reserve ? reserves[j] : -std::numeric_limits<double>::infinity();

    PostedPrice& out = posted[j];
    PendingKind kind;
    if (config_.use_reserve && q >= support.upper + config_.delta) {
      // Lines 8–10 (Algorithm 2): q ≥ p̄ + δ ⇒ the posted price must exceed
      // the market value w.h.p.; no refinement is possible either.
      ++counters_.skipped_rounds;
      out.price = q;
      out.exploratory = false;
      out.certain_no_sale = true;
      kind = PendingKind::kSkip;
    } else if (support.upper - support.lower > epsilon_) {
      // Exploratory price: max(q, (p̲+p̄)/2) (Line 13).
      out.price = std::max(q, support.midpoint);
      out.exploratory = true;
      out.certain_no_sale = false;
      kind = PendingKind::kExploratory;
      ++counters_.exploratory_rounds;
    } else {
      // Conservative price: max(q, p̲ − δ) (Line 27; δ = 0 recovers Line 23
      // of Algorithm 1).
      out.price = std::max(q, support.lower - config_.delta);
      out.exploratory = false;
      out.certain_no_sale = false;
      kind = PendingKind::kConservative;
      ++counters_.conservative_rounds;
    }
    cut->kind = static_cast<int>(kind);
    cut->price = out.price;
    cut->x = 0.0;
    cut->wrapped_skip = false;
  }
}

void EllipsoidPricingEngine::ObserveDetached(const PendingCut& cut, bool accepted) {
  const PendingKind kind = static_cast<PendingKind>(cut.kind);
  PDM_CHECK(kind != PendingKind::kNone);
  bool may_cut =
      kind == PendingKind::kExploratory ||
      (kind == PendingKind::kConservative && config_.allow_conservative_cuts);
  if (!may_cut) return;
  const SupportInterval& support = cut.support;
  if (support.half_width <= 0.0) return;  // degenerate probe direction

  double n = static_cast<double>(config_.dim);
  double mid = support.midpoint;
  double half_width = support.half_width;
  if (!accepted) {
    // Rejection ⇒ p ≥ v ≥ xᵀθ* − δ: cut below the effective price p + δ
    // (Lines 14–19). α = (mid − (p + δ)) / √(xᵀAx).
    double alpha = (mid - (cut.price + config_.delta)) / half_width;
    if (alpha >= -1.0 / n && alpha < 1.0) {
      ellipsoid_.CutKeepBelow(support, alpha);
      ++counters_.cuts_applied;
    } else {
      ++counters_.cuts_discarded;
    }
  } else {
    // Acceptance ⇒ p ≤ v ≤ xᵀθ* + δ: cut above the effective price p − δ
    // (Lines 20–25). Validity window −α ∈ [−1/n, 1).
    double alpha = (mid - (cut.price - config_.delta)) / half_width;
    if (-alpha >= -1.0 / n && -alpha < 1.0) {
      ellipsoid_.CutKeepAbove(support, alpha);
      ++counters_.cuts_applied;
    } else {
      ++counters_.cuts_discarded;
    }
  }
}

bool EllipsoidPricingEngine::AcceptsCut(const PendingCut& cut) const {
  const bool issued_kind = cut.kind >= static_cast<int>(PendingKind::kExploratory) &&
                           cut.kind <= static_cast<int>(PendingKind::kSkip);
  return issued_kind && !cut.wrapped_skip &&
         (!(cut.support.half_width > 0.0) ||
          static_cast<int>(cut.support.direction.size()) == config_.dim);
}

bool EllipsoidPricingEngine::SaveSnapshot(EngineSnapshot* out) const {
  PDM_CHECK(out != nullptr);
  out->engine = "ellipsoid";
  out->dim = config_.dim;
  out->epsilon = epsilon_;
  out->delta = config_.delta;
  out->center = ellipsoid_.center();
  // DenseShape: a plain copy in dense mode, an exact symmetric mirror in
  // packed mode — either way the snapshot byte format stays one dense
  // matrix, and a packed engine re-encodes byte-exactly (DESIGN.md §12).
  out->shape = ellipsoid_.DenseShape();
  out->cuts_since_symmetrize = ellipsoid_.cuts_since_symmetrize();
  out->lo = 0.0;
  out->hi = 0.0;
  out->counters = counters_;
  return true;
}

bool EllipsoidPricingEngine::LoadSnapshot(const EngineSnapshot& snapshot) {
  if (snapshot.engine != "ellipsoid") return false;
  if (snapshot.dim != config_.dim) return false;
  if (static_cast<int>(snapshot.center.size()) != config_.dim) return false;
  if (snapshot.shape.rows() != config_.dim || snapshot.shape.cols() != config_.dim) {
    return false;
  }
  if (snapshot.cuts_since_symmetrize < 0 || snapshot.cuts_since_symmetrize >= 32) {
    return false;
  }
  ellipsoid_ = Ellipsoid::FromSnapshotState(snapshot.center, snapshot.shape,
                                            snapshot.cuts_since_symmetrize,
                                            config_.packed_shape);
  epsilon_ = snapshot.epsilon;
  config_.delta = snapshot.delta;
  counters_ = snapshot.counters;
  return true;
}

ValueInterval EllipsoidPricingEngine::EstimateValueInterval(const Vector& features) const {
  // Allocation-free equivalent of Support(): the bounds need only the
  // midpoint and the quadratic form, not the support direction. Adaptive
  // streams (market/adversarial.h) call this every round.
  double mid = Dot(features, ellipsoid_.center());
  double quad = ellipsoid_.ShapeQuadraticForm(features);
  double half = (quad > 0.0 && std::isfinite(quad)) ? std::sqrt(quad) : 0.0;
  return ValueInterval{mid - half, mid + half};
}

std::string EllipsoidPricingEngine::name() const {
  std::string base = config_.use_reserve ? "reserve" : "pure";
  if (config_.delta > 0.0) base += "+uncertainty";
  return base;
}

}  // namespace pdm
