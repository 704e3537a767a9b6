#include "ellipsoid/ellipsoid.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"

namespace pdm {

Ellipsoid::Ellipsoid(Vector center, Matrix shape)
    : center_(std::move(center)), shape_(std::move(shape)) {
  PDM_CHECK(shape_.rows() == shape_.cols());
  PDM_CHECK(static_cast<int>(center_.size()) == shape_.rows());
  PDM_CHECK(dim() >= 2);
}

Ellipsoid::Ellipsoid(Vector center, PackedSymMatrix shape)
    : center_(std::move(center)),
      shape_(0, 0),
      packed_shape_(std::move(shape)),
      packed_mode_(true) {
  PDM_CHECK(static_cast<int>(center_.size()) == packed_shape_.dim());
  PDM_CHECK(dim() >= 2);
}

Ellipsoid Ellipsoid::FromSnapshotState(Vector center, Matrix shape,
                                       int cuts_since_symmetrize, bool packed) {
  PDM_CHECK(cuts_since_symmetrize >= 0 && cuts_since_symmetrize < 32);
  if (packed) {
    // Exact re-pack: the upper triangle of the serialized dense shape is the
    // packed state that produced it (DenseShape mirrors, never averages).
    Ellipsoid out(std::move(center), PackedSymMatrix::FromDense(shape));
    out.cuts_since_symmetrize_ = cuts_since_symmetrize;
    return out;
  }
  Ellipsoid out(std::move(center), std::move(shape));
  out.cuts_since_symmetrize_ = cuts_since_symmetrize;
  return out;
}

Ellipsoid Ellipsoid::Ball(int dim, double radius) {
  PDM_CHECK(dim >= 2);
  PDM_CHECK(radius > 0.0);
  return Ellipsoid(Zeros(dim), Matrix::ScaledIdentity(dim, radius * radius));
}

Ellipsoid Ellipsoid::PackedBall(int dim, double radius) {
  PDM_CHECK(dim >= 2);
  PDM_CHECK(radius > 0.0);
  return Ellipsoid(Zeros(dim), PackedSymMatrix::ScaledIdentity(dim, radius * radius));
}

Matrix Ellipsoid::DenseShape() const {
  ApplyPendingCut();
  return packed_mode_ ? packed_shape_.ToDense() : shape_;
}

double Ellipsoid::ShapeQuadraticForm(const Vector& x) const {
  ApplyPendingCut();
  return packed_mode_ ? packed_shape_.QuadraticForm(x) : shape_.QuadraticForm(x);
}

SupportInterval Ellipsoid::Support(const Vector& x) const {
  SupportInterval out;
  Support(x, &out);
  return out;
}

void Ellipsoid::Support(const Vector& x, SupportInterval* out) const {
  PDM_CHECK(static_cast<int>(x.size()) == dim());
  PDM_DCHECK(&x != &out->direction);
  SupportBatch(x.data(), 1, &out);
}

void Ellipsoid::SupportBatch(const double* panel, int k,
                             SupportInterval* const* out) const {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && out != nullptr);
  const size_t n = static_cast<size_t>(dim());
  if (k == 1) {
    // A lone query needs no workspace: its A·x lands straight in the
    // caller's direction buffer, whose capacity is reused across rounds.
    out[0]->direction.resize(n);
    ShapeTimesPanel(panel, 1, out[0]->direction.data());
    FinishSupport(panel, out[0]);
    return;
  }
  // One matrix–panel pass computes every query's A·x_j; resize never shrinks
  // capacity, so the workspace reaches a steady high-water mark and stops
  // allocating.
  batch_panel_ws_.resize(static_cast<size_t>(k) * n);
  ShapeTimesPanel(panel, k, batch_panel_ws_.data());
  for (int j = 0; j < k; ++j) {
    const double* ax = batch_panel_ws_.data() + static_cast<size_t>(j) * n;
    // assign reuses the caller's buffer capacity, so recycled intervals stay
    // allocation-free.
    out[j]->direction.assign(ax, ax + n);
    FinishSupport(panel + static_cast<size_t>(j) * n, out[j]);
  }
}

void Ellipsoid::ShapeTimesPanel(const double* panel, int k, double* y) const {
  // Per query the panel kernels reduce in exactly the mat-vec order, so a
  // column of a k-query pass is bit-identical to the k = 1 pass; the fused
  // dense pass stores and reads exactly what the update alone would leave.
  if (packed_mode_) {
    ApplyPendingCut();
    packed_shape_.MatPanelInto(panel, k, y);
  } else if (cut_pending_) {
    cut_pending_ = false;
    shape_.ScaleRankOneThenMatPanelInto(pending_factor_, pending_coef_, pending_ax_, panel,
                                        k, y);
  } else {
    shape_.MatPanelInto(panel, k, y);
  }
}

void Ellipsoid::ApplyPendingCut() const {
  if (!cut_pending_) return;
  cut_pending_ = false;
  if (packed_mode_) {
    packed_shape_.FusedScaleRankOne(pending_factor_, pending_coef_, pending_ax_);
  } else {
    shape_.FusedScaleRankOne(pending_factor_, pending_coef_, pending_ax_);
  }
}

void Ellipsoid::FinishSupport(const double* x, SupportInterval* out) const {
  const size_t n = static_cast<size_t>(dim());
  double quad = 0.0;
  DotPair(x, center_.data(), out->direction.data(), n, &out->midpoint, &quad);
  if (quad <= 0.0 || !std::isfinite(quad)) {
    // Collapsed (or numerically indefinite) direction: the probe width is
    // treated as zero, which routes the engine to the conservative price.
    out->lower = out->upper = out->midpoint;
    out->half_width = 0.0;
    out->direction.clear();  // keeps capacity; "empty when half_width = 0"
    return;
  }
  out->half_width = std::sqrt(quad);
  out->lower = out->midpoint - out->half_width;
  out->upper = out->midpoint + out->half_width;
  // direction keeps the raw A·x; the cuts fold in the 1/half_width scaling.
}

double Ellipsoid::CutAlpha(const Vector& x, double cut_value) const {
  SupportInterval s = Support(x);
  PDM_CHECK(s.half_width > 0.0);
  return (s.midpoint - cut_value) / s.half_width;
}

void Ellipsoid::Cut(const Vector& ax, double half_width, double alpha, double sign) {
  // sign = +1: keep {xᵀθ ≤ cut}; sign = −1: keep {xᵀθ ≥ cut}. The formulas
  // below are Algorithm 1 Lines 17 (rejection) and 21 (acceptance); the
  // acceptance case is the mirror image obtained by α → −α, b → −b.
  int n = dim();
  PDM_CHECK(n >= 2);
  PDM_CHECK(static_cast<int>(ax.size()) == n);
  PDM_CHECK(half_width > 0.0);
  double a = sign * alpha;  // position measured toward the kept side
  // The Löwner–John formulas are the minimal enclosing ellipsoid only for
  // a ∈ [−1/n, 1); below −1/n the minimal enclosure is E itself and the
  // formula would produce a *non*-enclosing ellipsoid. a = −1/n is the
  // identity update.
  PDM_CHECK(a >= -1.0 / static_cast<double>(n) - 1e-12 && a < 1.0);

  double nd = static_cast<double>(n);
  double factor = nd * nd * (1.0 - a * a) / (nd * nd - 1.0);
  double coef = 2.0 * (1.0 + nd * a) / ((nd + 1.0) * (1.0 + a));
  double step = (1.0 + nd * a) / (nd + 1.0);

  // With b = ax/half_width: A ← factor · (A − coef · b·bᵀ) becomes
  // factor · (A − (coef/half_width²) · ax·axᵀ), and c ← c − sign·step·b
  // becomes c − (sign·step/half_width)·ax — the normalized direction is
  // never materialized. The shape update waits for the next pass over A.
  ApplyPendingCut();
  pending_factor_ = factor;
  pending_coef_ = coef / (half_width * half_width);
  pending_ax_.assign(ax.begin(), ax.end());
  cut_pending_ = true;
  if (++cuts_since_symmetrize_ >= 32) {
    // Symmetrize must see this cut's update, so it cannot wait. Packed
    // storage is symmetric by construction — nothing to re-average — but
    // keeps the same schedule, so snapshots stay mode-agnostic and the
    // dense/packed control flow never diverges.
    ApplyPendingCut();
    if (!packed_mode_) shape_.Symmetrize();
    cuts_since_symmetrize_ = 0;
  }
  AxpyInPlace(-sign * step / half_width, ax, &center_);
}

void Ellipsoid::CutKeepBelow(const Vector& x, double alpha) {
  SupportInterval support = Support(x);
  PDM_CHECK(support.half_width > 0.0);
  Cut(support.direction, support.half_width, alpha, +1.0);
}

void Ellipsoid::CutKeepAbove(const Vector& x, double alpha) {
  SupportInterval support = Support(x);
  PDM_CHECK(support.half_width > 0.0);
  Cut(support.direction, support.half_width, alpha, -1.0);
}

void Ellipsoid::CutKeepBelow(const SupportInterval& support, double alpha) {
  PDM_CHECK(support.half_width > 0.0);
  Cut(support.direction, support.half_width, alpha, +1.0);
}

void Ellipsoid::CutKeepAbove(const SupportInterval& support, double alpha) {
  PDM_CHECK(support.half_width > 0.0);
  Cut(support.direction, support.half_width, alpha, -1.0);
}

bool Ellipsoid::Contains(const Vector& theta, double tol) const {
  PDM_CHECK(static_cast<int>(theta.size()) == dim());
  Vector diff = Sub(theta, center_);
  // Diagnostics are O(n³) already; packed mode materializes a dense copy.
  Matrix dense = DenseShape();
  Matrix l(0, 0);
  if (!CholeskyFactor(dense, &l)) return false;
  Vector y = CholeskySolve(l, diff);
  return Dot(diff, y) <= 1.0 + tol;
}

double Ellipsoid::LogVolumeUnnormalized() const {
  Matrix dense = DenseShape();
  Matrix l(0, 0);
  PDM_CHECK(CholeskyFactor(dense, &l));
  return 0.5 * CholeskyLogDet(l);
}

double Ellipsoid::SmallestShapeEigenvalue() const {
  return SmallestEigenvalue(DenseShape());
}

Vector Ellipsoid::AxisWidths() const {
  EigenSymResult eig = JacobiEigenSymmetric(DenseShape());
  Vector widths(eig.eigenvalues.size());
  for (size_t i = 0; i < widths.size(); ++i) {
    widths[i] = 2.0 * std::sqrt(std::max(0.0, eig.eigenvalues[i]));
  }
  return widths;
}

bool Ellipsoid::LooksHealthy() const {
  for (double v : center_) {
    if (!std::isfinite(v)) return false;
  }
  ApplyPendingCut();
  if (packed_mode_) {
    // Asymmetry is structurally zero; check finiteness of the whole packed
    // triangle and positivity of the diagonal.
    for (int r = 0; r < packed_shape_.dim(); ++r) {
      if (packed_shape_.At(r, r) <= 0.0 || !std::isfinite(packed_shape_.At(r, r))) {
        return false;
      }
      for (int c = r + 1; c < packed_shape_.dim(); ++c) {
        if (!std::isfinite(packed_shape_.At(r, c))) return false;
      }
    }
    return true;
  }
  // Every entry, as in packed mode: a NaN or ±Inf off the diagonal would
  // slip through MaxAsymmetry, whose std::max drops a NaN difference.
  for (int r = 0; r < shape_.rows(); ++r) {
    if (shape_(r, r) <= 0.0) return false;
    for (int c = 0; c < shape_.cols(); ++c) {
      if (!std::isfinite(shape_(r, c))) return false;
    }
  }
  double scale = std::max(1.0, shape_.FrobeniusNorm());
  return shape_.MaxAsymmetry() <= 1e-8 * scale;
}

}  // namespace pdm
