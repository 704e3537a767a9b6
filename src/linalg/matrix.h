#ifndef PDM_LINALG_MATRIX_H_
#define PDM_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

/// \file
/// Dense row-major matrix. The ellipsoid engine stores the shape matrix A
/// here; the hot operations are MatVec and the symmetric rank-1 update of the
/// Löwner–John cut formulas, both O(n²) with contiguous inner loops, and one
/// pass that runs the update and then the mat-vec (DESIGN.md §11).
///
/// Storage starts on a 64-byte cache line: the rows live at an offset into
/// a padded std::vector, at most 48 bytes past its start (operator new
/// aligns to 16 bytes on glibc), and a copy derives its own offset. Where a
/// shape starts within a line moved the support mat-vec by ≈ 30 % at
/// n ≥ 100; pinning it takes the allocator's luck out of every measurement.

namespace pdm {

class Matrix {
 public:
  /// Creates a rows×cols matrix of zeros.
  Matrix(int rows, int cols);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  /// A moved-from matrix is 0×0.
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;

  /// The n×n identity scaled by `diag`.
  static Matrix ScaledIdentity(int n, double diag);

  /// Builds a matrix from nested initializer-style data (row major); all rows
  /// must have equal length. Intended for tests.
  static Matrix FromRows(const std::vector<Vector>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    PDM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data()[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    PDM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data()[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw row-major storage (rows()*cols() doubles), 64-byte aligned.
  double* data() { return storage_.data() + offset_; }
  const double* data() const { return storage_.data() + offset_; }

  /// y = A·x.
  Vector MatVec(const Vector& x) const;

  /// y ← A·x into a caller-owned buffer (resized to rows(); steady-state
  /// reuse performs no allocation). `x` must not alias `*y`. This is the
  /// per-round hot kernel of the ellipsoid support computation.
  void MatVecInto(const Vector& x, Vector* y) const;

  /// Y ← A·X for a packed panel of k query vectors: one streamed pass over A
  /// instead of k mat-vec passes. `panel` is query-major — query j occupies
  /// panel[j·cols() .. j·cols()+cols()) — and `y` is filled query-major the
  /// same way: y[j·rows() + r] = (A·x_j)[r], so y must hold k·rows() doubles.
  /// Per query the inner reduction uses exactly MatVecInto's association
  /// order, so each output column is BIT-IDENTICAL to a standalone MatVecInto
  /// call on that query; the kernel only interleaves the independent per-query
  /// dependency chains (register-blocked 4 queries wide) so each A row is
  /// loaded once per block instead of once per query. `panel` must not alias
  /// `y`. This is the batched-quote hot kernel (DESIGN.md §11).
  void MatPanelInto(const double* panel, int k, double* y) const;

  /// y = Aᵀ·x.
  Vector MatTVec(const Vector& x) const;

  /// y ← Aᵀ·x with the MatVecInto reuse/aliasing contract.
  void MatTVecInto(const Vector& x, Vector* y) const;

  /// Quadratic form xᵀ·A·x (square matrices only).
  double QuadraticForm(const Vector& x) const;

  /// A ← A + s·b·bᵀ (square matrices only). This is the rank-1 modification
  /// pattern of the ellipsoid cut update (Lines 17/21 of Algorithm 1).
  void AddRankOne(double s, const Vector& b);

  /// A ← factor·(A − coef·b·bᵀ) in a single pass — the fused Löwner–John cut
  /// update. It is ScaleRankOneThenMatPanelInto with no queries.
  void FusedScaleRankOne(double factor, double coef, const Vector& b);

  /// A ← factor·(A − coef·b·bᵀ), then Y ← A·X as MatPanelInto, in one pass
  /// over A (square matrices only): the first sweep over A updates each row
  /// as it loads it, stores it, and dots the updated row with its queries.
  /// The updated A and every output column are BIT-IDENTICAL to
  /// FusedScaleRankOne followed by MatPanelInto. This is the support pass
  /// that applies an ellipsoid's pending cut (DESIGN.md §11). k = 0 is
  /// FusedScaleRankOne. `b` must not alias A, `panel` or `y`.
  void ScaleRankOneThenMatPanelInto(double factor, double coef, const Vector& b,
                                    const double* panel, int k, double* y);

  /// A ← s·A.
  void Scale(double s);

  /// A ← (A + Aᵀ)/2 (square matrices only), pair by pair: each off-diagonal
  /// pair becomes ½·(a_rc + a_cr). The pairs are visited in 16×16 tiles so
  /// the walk down the lower triangle stays within a few cache sets; each
  /// pair reads only its own two entries, so the order changes no bit. The
  /// ellipsoid applies it every 32 cuts to stop asymmetry drift.
  void Symmetrize();

  /// Largest |A_ij − A_ji| (diagnostic).
  double MaxAsymmetry() const;

  /// Sum of diagonal entries (square matrices only).
  double Trace() const;

  /// C = A·B.
  Matrix MatMul(const Matrix& other) const;

  /// Aᵀ as a new matrix.
  Matrix Transposed() const;

  /// Entrywise Frobenius norm.
  double FrobeniusNorm() const;

  /// Copies row r into a Vector.
  Vector Row(int r) const;

 private:
  /// Sizes storage_ for rows_·cols_ zeros and sets offset_ so data() starts
  /// on a 64-byte line.
  void Allocate();

  int rows_;
  int cols_;
  /// data() is storage_.data() + offset_ (in doubles).
  size_t offset_ = 0;
  std::vector<double> storage_;
};

}  // namespace pdm

#endif  // PDM_LINALG_MATRIX_H_
