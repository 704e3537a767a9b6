#include "linalg/matrix.h"

#include <cmath>

#include "common/arch.h"
#include "linalg/lanes.h"

namespace pdm {
namespace {

/// One row·vector dot with a reassociated 4-accumulator stride-4 reduction
/// (see vector_ops.cc's DotKernel for the rationale): lane l = c mod 4 sums
/// on its own, the lanes combine as (a0 + a1) + (a2 + a3), and the cols mod 4
/// tail adds in order. The mat-vec runs it on the rows left over after its
/// last block; RowBlock and the panel kernel run the same op sequence for
/// four reductions at once, so "bit-identical per row" is structural.
[[gnu::always_inline]] inline double RowDot(const double* __restrict row,
                                            const double* __restrict x, int cols) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int c = 0;
  for (; c + 4 <= cols; c += 4) {
    acc[0] += row[c] * x[c];
    acc[1] += row[c + 1] * x[c + 1];
    acc[2] += row[c + 2] * x[c + 2];
    acc[3] += row[c + 3] * x[c + 3];
  }
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; c < cols; ++c) total += row[c] * x[c];
  return total;
}

/// Rows per mat-vec pass. One row's reduction is a single add chain, so a
/// lone RowDot waits on add latency; four rows give four independent chains
/// that share each load of x. Eight measured slower end to end.
constexpr int kBlockRows = 4;
static_assert(kBlockRows == 4, "CombineFour combines blocks of four rows");

/// y[0..kBlockRows) ← RowDot of the kBlockRows rows starting at `block`, in
/// one pass over the columns. Each row keeps its own Lanes, so each y[i] is
/// RowDot's op sequence exactly: lanes, combine, then the tail in order.
template <int kWidth>
[[gnu::always_inline]] inline void RowBlock(const double* __restrict block, int cols,
                                            const double* __restrict x,
                                            double* __restrict y) {
  using L = linalg_internal::Lanes<kWidth>;
  L acc[kBlockRows];
  for (L& a : acc) a = L::Zero();
  int c = 0;
  for (; c + 4 <= cols; c += 4) {
    const L xc = L::Load(x + c);
    for (int i = 0; i < kBlockRows; ++i) {
      acc[i].AddProduct(L::Load(block + static_cast<size_t>(i) * cols + c), xc);
    }
  }
  linalg_internal::CombineFour(acc, y);
  for (int i = 0; i < kBlockRows; ++i) {
    const double* __restrict row = block + static_cast<size_t>(i) * cols;
    for (int t = c; t < cols; ++t) y[i] += row[t] * x[t];
  }
}

/// Row-major mat-vec in blocks of kBlockRows rows; the rows left over run
/// RowDot itself. `x` must not alias `y`. A row's four lanes sit in one
/// 32-byte register on x86-64-v3 and in two 16-byte registers on the
/// baseline (linalg/lanes.h).
template <int kWidth>
[[gnu::always_inline]] inline void MatVecRows(const double* __restrict data, int rows,
                                              int cols, const double* __restrict x,
                                              double* __restrict y) {
  int r = 0;
  for (; r + kBlockRows <= rows; r += kBlockRows) {
    RowBlock<kWidth>(data + static_cast<size_t>(r) * cols, cols, x, y + r);
  }
  for (; r < rows; ++r) y[r] = RowDot(data + static_cast<size_t>(r) * cols, x, cols);
}

/// Matrix–panel kernel: Y ← A·X for a query-major packed panel of k vectors,
/// blocked 4 queries wide so each A row is loaded once for four queries —
/// one pass over A per block instead of one per query, which keeps the row
/// in L1 (and, once A outgrows L1, turns k memory sweeps into k/4). Within a
/// block the four queries' dots over one row run as four Lanes chains that
/// share each load of the row, combined and tailed exactly like RowDot, so
/// every output column is bit-identical to a standalone mat-vec pass by
/// construction. Remainder queries (k mod 4) run the blocked mat-vec, so a
/// panel of one is the mat-vec itself (MatVecInto).
template <int kWidth>
[[gnu::always_inline]] inline void MatPanelRows(const double* __restrict data, int rows,
                                                int cols, const double* __restrict panel,
                                                int k, double* __restrict y) {
  using L = linalg_internal::Lanes<kWidth>;
  int j = 0;
  for (; j + 4 <= k; j += 4) {
    const double* __restrict x[4];
    for (int q = 0; q < 4; ++q) x[q] = panel + static_cast<size_t>(j + q) * cols;
    for (int r = 0; r < rows; ++r) {
      const double* __restrict row = data + static_cast<size_t>(r) * cols;
      L acc[4];
      for (L& a : acc) a = L::Zero();
      int c = 0;
      for (; c + 4 <= cols; c += 4) {
        const L a = L::Load(row + c);
        for (int q = 0; q < 4; ++q) acc[q].AddProduct(a, L::Load(x[q] + c));
      }
      double dots[4];
      linalg_internal::CombineFour(acc, dots);
      for (int q = 0; q < 4; ++q) {
        for (int t = c; t < cols; ++t) dots[q] += row[t] * x[q][t];
        y[static_cast<size_t>(j + q) * rows + r] = dots[q];
      }
    }
  }
  for (; j < k; ++j) {
    MatVecRows<kWidth>(data, rows, cols, panel + static_cast<size_t>(j) * cols,
                       y + static_cast<size_t>(j) * rows);
  }
}

// One definition per dispatch target (common/arch.h). The identity across
// panel sizes additionally requires that the compiler not contract mul+add
// into FMA differently per call site, so this layer builds with
// -ffp-contract=off (CMakeLists.txt).
#if PDM_TARGET_VERSIONS
PDM_TARGET_V3
void MatPanelKernel(const double* __restrict data, int rows, int cols,
                    const double* __restrict panel, int k, double* __restrict y) {
  MatPanelRows<4>(data, rows, cols, panel, k, y);
}
#endif

PDM_TARGET_BASELINE
void MatPanelKernel(const double* __restrict data, int rows, int cols,
                    const double* __restrict panel, int k, double* __restrict y) {
  MatPanelRows<2>(data, rows, cols, panel, k, y);
}

/// A ← factor·(A − coef·b·bᵀ), elementwise — the fused Löwner–John update.
PDM_TARGET_CLONES
void FusedScaleRankOneKernel(double* __restrict data, int n, double factor,
                             double coef, const double* __restrict b) {
  for (int r = 0; r < n; ++r) {
    double* __restrict row = data + static_cast<size_t>(r) * n;
    double cr = coef * b[r];
    for (int c = 0; c < n; ++c) {
      row[c] = factor * (row[c] - cr * b[c]);
    }
  }
}

}  // namespace

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  PDM_CHECK(rows >= 0 && cols >= 0);
  data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0);
}

Matrix Matrix::ScaledIdentity(int n, double diag) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = diag;
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  PDM_CHECK(!rows.empty());
  int r = static_cast<int>(rows.size());
  int c = static_cast<int>(rows[0].size());
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    PDM_CHECK(static_cast<int>(rows[static_cast<size_t>(i)].size()) == c);
    for (int j = 0; j < c; ++j) {
      m(i, j) = rows[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
  }
  return m;
}

Vector Matrix::MatVec(const Vector& x) const {
  Vector y;
  MatVecInto(x, &y);
  return y;
}

void Matrix::MatVecInto(const Vector& x, Vector* y) const {
  PDM_CHECK(static_cast<int>(x.size()) == cols_);
  PDM_DCHECK(&x != y);
  y->resize(static_cast<size_t>(rows_));
  MatPanelKernel(data_.data(), rows_, cols_, x.data(), 1, y->data());
}

void Matrix::MatPanelInto(const double* panel, int k, double* y) const {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && y != nullptr);
  MatPanelKernel(data_.data(), rows_, cols_, panel, k, y);
}

Vector Matrix::MatTVec(const Vector& x) const {
  Vector y;
  MatTVecInto(x, &y);
  return y;
}

void Matrix::MatTVecInto(const Vector& x, Vector* y) const {
  PDM_CHECK(static_cast<int>(x.size()) == rows_);
  PDM_DCHECK(&x != y);
  y->assign(static_cast<size_t>(cols_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = data_.data() + static_cast<size_t>(r) * cols_;
    double xr = x[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) (*y)[static_cast<size_t>(c)] += row[c] * xr;
  }
}

double Matrix::QuadraticForm(const Vector& x) const {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(x.size()) == cols_);
  double acc = 0.0;
  for (int r = 0; r < rows_; ++r) {
    const double* row = data_.data() + static_cast<size_t>(r) * cols_;
    double partial = 0.0;
    for (int c = 0; c < cols_; ++c) partial += row[c] * x[static_cast<size_t>(c)];
    acc += partial * x[static_cast<size_t>(r)];
  }
  return acc;
}

void Matrix::FusedScaleRankOne(double factor, double coef, const Vector& b) {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(b.size()) == cols_);
  FusedScaleRankOneKernel(data_.data(), rows_, factor, coef, b.data());
}

void Matrix::AddRankOne(double s, const Vector& b) {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(b.size()) == cols_);
  for (int r = 0; r < rows_; ++r) {
    double* row = data_.data() + static_cast<size_t>(r) * cols_;
    double sr = s * b[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) row[c] += sr * b[static_cast<size_t>(c)];
  }
}

void Matrix::Scale(double s) {
  for (double& x : data_) x *= s;
}

void Matrix::Symmetrize() {
  PDM_CHECK(rows_ == cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

double Matrix::MaxAsymmetry() const {
  PDM_CHECK(rows_ == cols_);
  double worst = 0.0;
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      worst = std::max(worst, std::fabs((*this)(r, c) - (*this)(c, r)));
    }
  }
  return worst;
}

double Matrix::Trace() const {
  PDM_CHECK(rows_ == cols_);
  double acc = 0.0;
  for (int i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  PDM_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int k = 0; k < cols_; ++k) {
      double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + static_cast<size_t>(k) * other.cols_;
      double* orow = out.data_.data() + static_cast<size_t>(i) * out.cols_;
      for (int j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

Vector Matrix::Row(int r) const {
  PDM_CHECK(r >= 0 && r < rows_);
  Vector out(static_cast<size_t>(cols_));
  for (int c = 0; c < cols_; ++c) out[static_cast<size_t>(c)] = (*this)(r, c);
  return out;
}

}  // namespace pdm
