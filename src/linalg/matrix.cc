#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

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

/// The rank-one update A ← factor·(A − coef·b·bᵀ) a panel pass applies to
/// each row of A just before it reads the row: the pending Löwner–John cut
/// (DESIGN.md §11). Entry (r, c) becomes factor·(a − (coef·b[r])·b[c]) —
/// multiply, multiply, subtract, multiply, the op sequence of the update run
/// as a pass of its own — so the updated A is bit-identical either way, and
/// the dots that follow read exactly the stored values.
struct RankOneUpdate {
  double factor;
  double coef;
  const double* __restrict b;
};

/// Row `row` (index r of A) under the update, in place, from column `c` on.
template <int kWidth>
[[gnu::always_inline]] inline void UpdateRowFrom(double* __restrict row, int c, int cols,
                                                 double cr, const RankOneUpdate& u) {
  using L = linalg_internal::Lanes<kWidth>;
  for (; c + 4 <= cols; c += 4) {
    L a = L::Load(row + c);
    a.ScaleRankOne(u.factor, cr, L::Load(u.b + c));
    a.Store(row + c);
  }
  for (; c < cols; ++c) row[c] = u.factor * (row[c] - cr * u.b[c]);
}

/// y[0..kBlockRows) ← RowDot of the kBlockRows rows starting at `block` (row
/// index r0 of A), in one pass over the columns. Each row keeps its own
/// Lanes, so each y[i] is RowDot's op sequence exactly: lanes, combine, then
/// the tail in order. With kUpdate each loaded group of four entries is
/// updated and stored first, and the dot reads the updated values.
template <int kWidth, bool kUpdate>
[[gnu::always_inline]] inline void RowBlock(double* __restrict block, int r0, int cols,
                                            const double* __restrict x,
                                            double* __restrict y, const RankOneUpdate& u) {
  using L = linalg_internal::Lanes<kWidth>;
  [[maybe_unused]] double cr[kBlockRows];
  if constexpr (kUpdate) {
    for (int i = 0; i < kBlockRows; ++i) cr[i] = u.coef * u.b[r0 + i];
  }
  L acc[kBlockRows];
  for (L& a : acc) a = L::Zero();
  int c = 0;
  for (; c + 4 <= cols; c += 4) {
    const L xc = L::Load(x + c);
    [[maybe_unused]] L bc;
    if constexpr (kUpdate) bc = L::Load(u.b + c);
    for (int i = 0; i < kBlockRows; ++i) {
      double* __restrict at = block + static_cast<size_t>(i) * cols + c;
      L a = L::Load(at);
      if constexpr (kUpdate) {
        a.ScaleRankOne(u.factor, cr[i], bc);
        a.Store(at);
      }
      acc[i].AddProduct(a, xc);
    }
  }
  linalg_internal::CombineFour(acc, y);
  for (int i = 0; i < kBlockRows; ++i) {
    double* __restrict row = block + static_cast<size_t>(i) * cols;
    if constexpr (kUpdate) UpdateRowFrom<kWidth>(row, c, cols, cr[i], u);
    for (int t = c; t < cols; ++t) y[i] += row[t] * x[t];
  }
}

/// Row-major mat-vec in blocks of kBlockRows rows; the rows left over run
/// RowDot itself (after their update, with kUpdate). `x` must not alias `y`.
/// A row's four lanes sit in one 32-byte register on x86-64-v3 and in two
/// 16-byte registers on the baseline (linalg/lanes.h).
template <int kWidth, bool kUpdate>
[[gnu::always_inline]] inline void MatVecRows(double* __restrict data, int rows, int cols,
                                              const double* __restrict x,
                                              double* __restrict y, const RankOneUpdate& u) {
  int r = 0;
  for (; r + kBlockRows <= rows; r += kBlockRows) {
    RowBlock<kWidth, kUpdate>(data + static_cast<size_t>(r) * cols, r, cols, x, y + r, u);
  }
  for (; r < rows; ++r) {
    double* __restrict row = data + static_cast<size_t>(r) * cols;
    if constexpr (kUpdate) UpdateRowFrom<kWidth>(row, 0, cols, u.coef * u.b[r], u);
    y[r] = RowDot(row, x, cols);
  }
}

/// Four queries x[0..3] over every row of A: y_q ← A·x_q, query q's output
/// at y + q·rows. The four dots over one row run as four Lanes chains that
/// share each load of the row, combined and tailed exactly like RowDot.
/// With kUpdate each row is updated as it is loaded, as in RowBlock.
template <int kWidth, bool kUpdate>
[[gnu::always_inline]] inline void QueryBlock(double* __restrict data, int rows, int cols,
                                              const double* __restrict const* x,
                                              double* __restrict y, const RankOneUpdate& u) {
  using L = linalg_internal::Lanes<kWidth>;
  for (int r = 0; r < rows; ++r) {
    double* __restrict row = data + static_cast<size_t>(r) * cols;
    double cr = 0.0;
    if constexpr (kUpdate) cr = u.coef * u.b[r];
    L acc[4];
    for (L& a : acc) a = L::Zero();
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      L a = L::Load(row + c);
      if constexpr (kUpdate) {
        a.ScaleRankOne(u.factor, cr, L::Load(u.b + c));
        a.Store(row + c);
      }
      for (int q = 0; q < 4; ++q) acc[q].AddProduct(a, L::Load(x[q] + c));
    }
    if constexpr (kUpdate) UpdateRowFrom<kWidth>(row, c, cols, cr, u);
    double dots[4];
    linalg_internal::CombineFour(acc, dots);
    for (int q = 0; q < 4; ++q) {
      for (int t = c; t < cols; ++t) dots[q] += row[t] * x[q][t];
      y[static_cast<size_t>(q) * rows + r] = dots[q];
    }
  }
}

/// Matrix–panel kernel: Y ← A·X for a query-major packed panel of k vectors,
/// blocked 4 queries wide so each A row is loaded once for four queries —
/// one pass over A per block instead of one per query, which keeps the row
/// in L1 (and, once A outgrows L1, turns k memory sweeps into k/4). Every
/// output column is bit-identical to a standalone mat-vec pass by
/// construction. Remainder queries (k mod 4) run the blocked mat-vec, so a
/// panel of one is the mat-vec itself (MatVecInto).
///
/// With `u.b` non-null the kernel first applies the rank-one update to A,
/// inside its first pass over A: the first query block, or the first
/// remainder query, updates each row as it loads it, and later passes read
/// the updated A. With k = 0 that first pass is the update alone. Either way
/// A and every output equal the update run as a pass of its own followed by
/// the panel product, bit for bit.
template <int kWidth>
[[gnu::always_inline]] inline void MatPanelRows(double* __restrict data, int rows, int cols,
                                                const double* __restrict panel, int k,
                                                double* __restrict y, const RankOneUpdate& u) {
  if (u.b != nullptr && k == 0) {
    for (int r = 0; r < rows; ++r) {
      UpdateRowFrom<kWidth>(data + static_cast<size_t>(r) * cols, 0, cols, u.coef * u.b[r],
                            u);
    }
    return;
  }
  bool update = u.b != nullptr;  // carried by the first pass over A only
  int j = 0;
  for (; j + 4 <= k; j += 4) {
    const double* __restrict x[4];
    for (int q = 0; q < 4; ++q) x[q] = panel + static_cast<size_t>(j + q) * cols;
    double* __restrict yj = y + static_cast<size_t>(j) * rows;
    if (update) {
      QueryBlock<kWidth, true>(data, rows, cols, x, yj, u);
    } else {
      QueryBlock<kWidth, false>(data, rows, cols, x, yj, u);
    }
    update = false;
  }
  for (; j < k; ++j) {
    const double* __restrict x = panel + static_cast<size_t>(j) * cols;
    double* __restrict yj = y + static_cast<size_t>(j) * rows;
    if (update) {
      MatVecRows<kWidth, true>(data, rows, cols, x, yj, u);
    } else {
      MatVecRows<kWidth, false>(data, rows, cols, x, yj, u);
    }
    update = false;
  }
}

// One definition per dispatch target (common/arch.h). The identity across
// panel sizes, and between the fused and the two-pass update, additionally
// requires that the compiler not contract mul+add into FMA differently per
// call site, so this layer builds with -ffp-contract=off (CMakeLists.txt).
#if PDM_TARGET_VERSIONS
PDM_TARGET_V3
void MatPanelKernel(double* __restrict data, int rows, int cols,
                    const double* __restrict panel, int k, double* __restrict y,
                    RankOneUpdate update) {
  MatPanelRows<4>(data, rows, cols, panel, k, y, update);
}
#endif

PDM_TARGET_BASELINE
void MatPanelKernel(double* __restrict data, int rows, int cols,
                    const double* __restrict panel, int k, double* __restrict y,
                    RankOneUpdate update) {
  MatPanelRows<2>(data, rows, cols, panel, k, y, update);
}

/// The panel product with no update. The kernel writes A only when it
/// carries one, so a const matrix's storage passes through a const_cast.
void MatPanelOnly(const double* data, int rows, int cols, const double* panel, int k,
                  double* y) {
  MatPanelKernel(const_cast<double*>(data), rows, cols, panel, k, y,
                 RankOneUpdate{0.0, 0.0, nullptr});
}

constexpr size_t kLineBytes = 64;
/// Doubles of padding that always leave room to reach a line boundary:
/// operator new returns __STDCPP_DEFAULT_NEW_ALIGNMENT__-aligned storage.
constexpr size_t kPadDoubles = (kLineBytes - __STDCPP_DEFAULT_NEW_ALIGNMENT__) / sizeof(double);

}  // namespace

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  PDM_CHECK(rows >= 0 && cols >= 0);
  Allocate();
}

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  Allocate();
  std::copy(other.data(), other.data() + static_cast<size_t>(rows_) * cols_, data());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  const size_t size = static_cast<size_t>(other.rows_) * other.cols_;
  const bool same_size = size == static_cast<size_t>(rows_) * cols_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  if (!same_size) Allocate();
  std::copy(other.data(), other.data() + size, data());
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      offset_(std::exchange(other.offset_, 0)),
      storage_(std::move(other.storage_)) {}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  offset_ = std::exchange(other.offset_, 0);
  storage_ = std::move(other.storage_);
  other.storage_.clear();
  return *this;
}

void Matrix::Allocate() {
  const size_t size = static_cast<size_t>(rows_) * static_cast<size_t>(cols_);
  offset_ = 0;
  if (size == 0) {
    storage_.clear();
    return;
  }
  storage_.assign(size + kPadDoubles, 0.0);
  const size_t past_line = reinterpret_cast<uintptr_t>(storage_.data()) % kLineBytes;
  offset_ = (kLineBytes - past_line) % kLineBytes / sizeof(double);
  PDM_CHECK(offset_ <= kPadDoubles);
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
  MatPanelOnly(data(), rows_, cols_, x.data(), 1, y->data());
}

void Matrix::MatPanelInto(const double* panel, int k, double* y) const {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && y != nullptr);
  MatPanelOnly(data(), rows_, cols_, panel, k, y);
}

void Matrix::ScaleRankOneThenMatPanelInto(double factor, double coef, const Vector& b,
                                          const double* panel, int k, double* y) {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(b.size()) == cols_);
  PDM_CHECK(k >= 0);
  PDM_CHECK(k == 0 || (panel != nullptr && y != nullptr));
  MatPanelKernel(data(), rows_, cols_, panel, k, y, RankOneUpdate{factor, coef, b.data()});
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
    const double* row = data() + static_cast<size_t>(r) * cols_;
    double xr = x[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) (*y)[static_cast<size_t>(c)] += row[c] * xr;
  }
}

double Matrix::QuadraticForm(const Vector& x) const {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(x.size()) == cols_);
  double acc = 0.0;
  for (int r = 0; r < rows_; ++r) {
    const double* row = data() + static_cast<size_t>(r) * cols_;
    double partial = 0.0;
    for (int c = 0; c < cols_; ++c) partial += row[c] * x[static_cast<size_t>(c)];
    acc += partial * x[static_cast<size_t>(r)];
  }
  return acc;
}

void Matrix::FusedScaleRankOne(double factor, double coef, const Vector& b) {
  ScaleRankOneThenMatPanelInto(factor, coef, b, nullptr, 0, nullptr);
}

void Matrix::AddRankOne(double s, const Vector& b) {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(b.size()) == cols_);
  for (int r = 0; r < rows_; ++r) {
    double* row = data() + static_cast<size_t>(r) * cols_;
    double sr = s * b[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) row[c] += sr * b[static_cast<size_t>(c)];
  }
}

void Matrix::Scale(double s) {
  double* a = data();
  const size_t size = static_cast<size_t>(rows_) * cols_;
  for (size_t i = 0; i < size; ++i) a[i] *= s;
}

void Matrix::Symmetrize() {
  PDM_CHECK(rows_ == cols_);
  // A plain row-by-row walk strides down column r of the lower triangle,
  // n·8 bytes a step: at n = 128 every step lands in the same few L1 sets
  // and the column is evicted before the next row reuses its lines.
  constexpr int kTile = 16;
  const int n = rows_;
  double* a = data();
  for (int r0 = 0; r0 < n; r0 += kTile) {
    const int r1 = std::min(n, r0 + kTile);
    for (int c0 = r0; c0 < n; c0 += kTile) {
      const int c1 = std::min(n, c0 + kTile);
      for (int r = r0; r < r1; ++r) {
        double* upper = a + static_cast<size_t>(r) * n;
        for (int c = std::max(c0, r + 1); c < c1; ++c) {
          double* lower = a + static_cast<size_t>(c) * n + r;
          const double avg = 0.5 * (upper[c] + *lower);
          upper[c] = avg;
          *lower = avg;
        }
      }
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
      const double* brow = other.data() + static_cast<size_t>(k) * other.cols_;
      double* orow = out.data() + static_cast<size_t>(i) * out.cols_;
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
  const double* a = data();
  const size_t size = static_cast<size_t>(rows_) * cols_;
  for (size_t i = 0; i < size; ++i) acc += a[i] * a[i];
  return std::sqrt(acc);
}

Vector Matrix::Row(int r) const {
  PDM_CHECK(r >= 0 && r < rows_);
  Vector out(static_cast<size_t>(cols_));
  for (int c = 0; c < cols_; ++c) out[static_cast<size_t>(c)] = (*this)(r, c);
  return out;
}

}  // namespace pdm
