#ifndef PDM_ELLIPSOID_ELLIPSOID_H_
#define PDM_ELLIPSOID_ELLIPSOID_H_

#include "linalg/matrix.h"
#include "linalg/packed_sym_matrix.h"
#include "linalg/vector_ops.h"

/// \file
/// Löwner–John ellipsoid knowledge set (Definition 1 of the paper).
///
/// E = { θ ∈ Rⁿ : (θ − c)ᵀ A⁻¹ (θ − c) ≤ 1 } with center c and positive
/// definite shape A. The pricing engine maintains the broker's knowledge of
/// the weight vector θ* as such an ellipsoid and refines it with cuts whose
/// position is the signed distance α of the cutting hyperplane
/// {θ : xᵀθ = cut_value} from the center, measured in the ‖·‖_{A⁻¹} norm:
///
///     α = (xᵀc − cut_value) / √(xᵀAx).
///
/// α = 0 is a central cut, α > 0 a deep cut (keeps less than half), and
/// α < 0 a shallow cut (keeps more than half). The update formulas are the
/// Grötschel–Lovász–Schrijver rank-1 modifications quoted in Algorithm 1
/// (Lines 17 and 21). They are singular at n = 1 (factor n²/(n²−1)), which is
/// why the one-dimensional engine uses an interval instead.
///
/// A cut moves the center at once but leaves its O(n²) shape update pending
/// for the next SupportBatch. In dense mode that pass applies it to each row
/// of A as it loads the row, so an exploratory round sweeps the shape once
/// instead of twice (DESIGN.md §11); packed mode applies it just before.
/// Every other reader of A applies the pending cut first, and the fused pass
/// is bit-identical to the two passes, so no reader can tell.
///
/// Thread safety: a const reader may apply the pending cut, and SupportBatch
/// reuses a workspace, so one thread at a time per Ellipsoid, const calls
/// included. Engines own their ellipsoids, and the broker holds the
/// session's slot lock around every call into its engine.

namespace pdm {

/// Support interval of the linear functional θ ↦ xᵀθ over the ellipsoid.
struct SupportInterval {
  /// min over E (the paper's p̲ = xᵀ(c − b)).
  double lower = 0.0;
  /// max over E (the paper's p̄ = xᵀ(c + b)).
  double upper = 0.0;
  /// √(xᵀAx); upper − lower = 2·√(xᵀAx) is the probed width of E along x.
  double half_width = 0.0;
  /// Midpoint xᵀc, the exploratory price candidate.
  double midpoint = 0.0;
  /// The raw support mat-vec A·x (empty when half_width = 0). The paper's
  /// normalized direction is b = direction/half_width; the Cut overloads fold
  /// the 1/half_width into their coefficients, which saves an O(n) scaling
  /// pass on every round. Cut overloads reuse this buffer to avoid
  /// recomputing the O(n²) mat-vec.
  Vector direction;
};

class Ellipsoid {
 public:
  /// Constructs from a center and an SPD shape matrix (dimension ≥ 2).
  Ellipsoid(Vector center, Matrix shape);

  /// Packed-storage mode (DESIGN.md §12): the shape matrix lives as its
  /// upper triangle only — n(n+1)/2 doubles instead of n², halving the
  /// dominant per-product state at serving scale. Semantically the same
  /// knowledge set; numerically a *documented-tolerance* twin of the dense
  /// mode (the packed mat-vec reduces in a different order, and packed
  /// storage — symmetric by construction — has no asymmetry drift for the
  /// 32-cut re-symmetrization to average away). Within packed mode every
  /// operation keeps the repo's determinism contracts: SupportBatch is
  /// bit-identical per query to Support, and save → restore resumes
  /// bit-identically.
  Ellipsoid(Vector center, PackedSymMatrix shape);

  /// Origin-centered ball of the given radius: A = R²·I (Algorithm 1 input).
  static Ellipsoid Ball(int dim, double radius);

  /// Packed-storage ball (see the packed constructor).
  static Ellipsoid PackedBall(int dim, double radius);

  int dim() const { return static_cast<int>(center_.size()); }
  const Vector& center() const { return center_; }
  /// Dense-mode shape accessor; misuse in packed mode is a programming
  /// error (PDM_CHECK). Mode-agnostic callers use DenseShape(). Applies the
  /// pending cut first; the reference is valid until the next cut.
  const Matrix& shape() const {
    PDM_CHECK(!packed_mode_);
    ApplyPendingCut();
    return shape_;
  }
  /// True when the shape matrix is stored packed.
  bool packed() const { return packed_mode_; }
  /// Packed-mode shape accessor (PDM_CHECKs in dense mode); applies the
  /// pending cut first, like shape().
  const PackedSymMatrix& packed_shape() const {
    PDM_CHECK(packed_mode_);
    ApplyPendingCut();
    return packed_shape_;
  }
  /// True while the last cut's shape update waits for the next pass over A
  /// (diagnostic; no reader can observe the difference).
  bool has_pending_cut() const { return cut_pending_; }
  /// The shape matrix as a dense copy in either mode. In packed mode the
  /// mirror is exact (both triangles are the same stored doubles), so
  /// packed → dense → packed round trips bit-identically — the property the
  /// snapshot codec leans on (`pdm.snap` stores shapes dense; a packed
  /// engine re-encodes byte-exactly, DESIGN.md §12).
  Matrix DenseShape() const;
  /// xᵀ·A·x without materializing A·x, in either storage mode
  /// (allocation-free; the EstimateValueInterval path).
  double ShapeQuadraticForm(const Vector& x) const;

  /// Computes [p̲, p̄] along x (Lines 5–7 of Algorithm 1). If the quadratic
  /// form underflows to ≤ 0 (a numerically collapsed direction), the interval
  /// degenerates to the midpoint with half_width 0.
  SupportInterval Support(const Vector& x) const;

  /// Hot-path overload writing into a caller-owned interval whose `direction`
  /// buffer is reused across rounds: steady-state calls perform no heap
  /// allocation. `x` must not alias `out->direction`. A batch of one
  /// (SupportBatch), so bit-identical to the by-value overload.
  void Support(const Vector& x, SupportInterval* out) const;

  /// Batched support: `panel` packs k query vectors query-major (query j at
  /// panel + j·dim()), `*out[j]` receives exactly what
  /// Support(x_j, out[j]) would produce — BIT-IDENTICAL per query,
  /// because the matrix–panel pass keeps each query's reduction order equal
  /// to the mat-vec pass (Matrix::MatPanelInto) and every query then runs the
  /// same midpoint/quadratic-form code. One streamed O(k·n²) pass over A
  /// replaces k cold O(n²) passes (DESIGN.md §11); in dense mode the same
  /// pass first applies a pending cut to each row it loads
  /// (Matrix::ScaleRankOneThenMatPanelInto). At k = 1, A·x is written
  /// straight into `out[0]->direction`; larger panels go through an A·X
  /// workspace that is a mutable member reused across calls (steady-state
  /// calls allocate nothing once the out[j]->direction buffers reach capacity),
  /// which also means concurrent SupportBatch calls on one Ellipsoid are NOT
  /// safe — the broker serializes per-session access, and engines own their
  /// ellipsoids exclusively. Each query has its own target pointer, so a
  /// caller can aim the queries at scattered destinations (an engine's cut
  /// contexts).
  void SupportBatch(const double* panel, int k, SupportInterval* const* out) const;

  /// Signed cut position α for hyperplane {θ : xᵀθ = cut_value}.
  double CutAlpha(const Vector& x, double cut_value) const;

  /// Replaces E by the Löwner–John ellipsoid of E ∩ {θ : xᵀθ ≤ xᵀc − α·√(xᵀAx)},
  /// i.e. keeps the *lower* halfspace; this is the rejection branch of the
  /// posted-price feedback (price too high ⇒ θ* lies below the cut).
  /// Requires α ∈ (−1/n, 1) for a volume-reducing, well-defined update; the
  /// caller enforces the paper's validity window. The shape update is left
  /// pending (see the file comment); a cut applies the one before it first,
  /// and every 32nd cut applies its own at once, because the drift-control
  /// Symmetrize must run between that update and the next read.
  void CutKeepBelow(const Vector& x, double alpha);

  /// Keeps the *upper* halfspace E ∩ {θ : xᵀθ ≥ ...}: the acceptance branch.
  /// Requires −α ∈ (−1/n, 1) (paper's Line 22 window).
  void CutKeepAbove(const Vector& x, double alpha);

  /// Hot-path overloads reusing a Support() result computed for the same x
  /// on the *current* ellipsoid (saves one O(n²) mat-vec per round).
  void CutKeepBelow(const SupportInterval& support, double alpha);
  void CutKeepAbove(const SupportInterval& support, double alpha);

  /// True iff θ lies inside the (slightly inflated by tol) ellipsoid. Solves
  /// A·y = (θ−c) with Cholesky — O(n³), diagnostics/tests only.
  bool Contains(const Vector& theta, double tol = 1e-9) const;

  /// log(volume) − log(V_n) = ½·log det A (Eq. 3 without the unit-ball
  /// constant, which cancels in every ratio the analysis uses).
  double LogVolumeUnnormalized() const;

  /// Smallest eigenvalue of A (Jacobi; diagnostics/tests only).
  double SmallestShapeEigenvalue() const;

  /// Widths 2√γᵢ(A) of all axes, descending (Definition 1 discussion).
  Vector AxisWidths() const;

  /// Numerical health checks: every entry finite, positive diagonal, and in
  /// dense mode symmetric within 1e-8 of the Frobenius norm (or of 1).
  bool LooksHealthy() const;

  /// Cuts applied since the last drift-control re-symmetrization. Part of
  /// the serialized engine state: restoring it keeps a resumed cut sequence
  /// bit-identical to an uninterrupted one (the re-symmetrization would
  /// otherwise fire at different cut counts and perturb low-order bits).
  int cuts_since_symmetrize() const { return cuts_since_symmetrize_; }

  /// Rebuilds an ellipsoid from serialized state (broker session snapshots,
  /// DESIGN.md §9). `cuts_since_symmetrize` must be in [0, 32). With
  /// `packed` the dense snapshot shape is re-packed to its upper triangle
  /// (exact — see DenseShape); the snapshot byte format itself is
  /// storage-mode-agnostic.
  static Ellipsoid FromSnapshotState(Vector center, Matrix shape,
                                     int cuts_since_symmetrize,
                                     bool packed = false);

 private:
  /// y ← A·X for a query-major panel of k vectors, in either storage mode,
  /// applying the pending cut on the way: dense mode in the same pass over
  /// A, packed mode as the packed update followed by the packed panel pass.
  void ShapeTimesPanel(const double* panel, int k, double* y) const;

  /// Applies the pending cut's shape update, if any, as a pass of its own.
  void ApplyPendingCut() const;

  /// The per-query tail of SupportBatch: with A·x already in
  /// `out->direction`, fills the midpoint, half-width and bounds (or the
  /// degenerate zero-width interval).
  void FinishSupport(const double* x, SupportInterval* out) const;

  /// Shared implementation: `sign` +1 keeps below (rejection), −1 keeps
  /// above (acceptance). `ax` is the raw support mat-vec A·x and
  /// `half_width` = √(xᵀAx); the normalized direction b = ax/half_width is
  /// never materialized — its scaling folds into the update coefficients.
  void Cut(const Vector& ax, double half_width, double alpha, double sign);

  Vector center_;
  /// Dense storage (empty 0×0 in packed mode). Mutable, like packed_shape_,
  /// because const readers apply the pending cut before they read.
  mutable Matrix shape_;
  /// Packed storage (empty in dense mode). Exactly one of shape_ /
  /// packed_shape_ is populated, selected by packed_mode_.
  mutable PackedSymMatrix packed_shape_;
  bool packed_mode_ = false;
  /// The pending cut: A ← pending_factor_·(A − pending_coef_·ax·axᵀ) with
  /// ax = pending_ax_, not yet applied to the stored shape. At most one.
  mutable bool cut_pending_ = false;
  double pending_factor_ = 0.0;
  double pending_coef_ = 0.0;
  /// The pending cut's raw A·x, copied (8n bytes, grow-only): the caller's
  /// SupportInterval may be the very target of the support pass that
  /// applies the cut.
  Vector pending_ax_;
  /// Cuts since the last explicit symmetrization (floating-point drift in
  /// the fused update is ~1 ulp per cut; re-symmetrizing every few dozen
  /// cuts keeps it far below tolerance without paying O(n²) every round).
  /// Packed mode has no drift to control, but the counter advances (and
  /// resets) on the same schedule so serialized state stays mode-agnostic.
  int cuts_since_symmetrize_ = 0;
  /// SupportBatch's A·X target panel, reused across calls (grow-only) so the
  /// batched hot path stays allocation-free in steady state. Mutable scratch,
  /// not logical state — see the SupportBatch thread-safety note.
  mutable Vector batch_panel_ws_;
};

}  // namespace pdm

#endif  // PDM_ELLIPSOID_ELLIPSOID_H_
