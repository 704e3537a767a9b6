#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/packed_sym_matrix.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- vectors

TEST(VectorOps, ZerosOnesBasis) {
  EXPECT_EQ(Zeros(3), (Vector{0, 0, 0}));
  EXPECT_EQ(Ones(2), (Vector{1, 1}));
  EXPECT_EQ(BasisVector(3, 1), (Vector{0, 1, 0}));
}

TEST(VectorOps, DotAndNorms) {
  Vector a{1, 2, 3};
  Vector b{4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(Norm2(a), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(NormInf(b), 6.0);
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
}

TEST(VectorOps, ScaleAxpyAddSub) {
  Vector a{1, 2};
  ScaleInPlace(&a, 2.0);
  EXPECT_EQ(a, (Vector{2, 4}));
  Vector y{1, 1};
  AxpyInPlace(3.0, a, &y);
  EXPECT_EQ(y, (Vector{7, 13}));
  EXPECT_EQ(Add(a, y), (Vector{9, 17}));
  EXPECT_EQ(Sub(y, a), (Vector{5, 9}));
  EXPECT_EQ(Scaled(a, 0.5), (Vector{1, 2}));
}

TEST(VectorOps, RescaleToNorm) {
  Vector a{3, 4};
  double old_norm = RescaleToNorm(&a, 10.0);
  EXPECT_DOUBLE_EQ(old_norm, 5.0);
  EXPECT_NEAR(Norm2(a), 10.0, 1e-12);
  Vector zero{0, 0};
  EXPECT_DOUBLE_EQ(RescaleToNorm(&zero, 5.0), 0.0);
  EXPECT_EQ(zero, (Vector{0, 0}));
}

// ---------------------------------------------------------------- matrices

TEST(Matrix, IdentityAndAccess) {
  Matrix id = Matrix::ScaledIdentity(3, 2.5);
  EXPECT_DOUBLE_EQ(id(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Trace(), 7.5);
}

TEST(Matrix, FromRowsAndRow) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.Row(1), (Vector{3, 4}));
}

TEST(Matrix, MatVec) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.MatVec({1, 1}), (Vector{3, 7}));
  EXPECT_EQ(m.MatTVec({1, 1}), (Vector{4, 6}));
}

TEST(Matrix, QuadraticForm) {
  Matrix m = Matrix::FromRows({{2, 1}, {1, 3}});
  // [1 2]·A·[1 2]ᵀ = 2 + 2 + 2 + 12 = 18.
  EXPECT_DOUBLE_EQ(m.QuadraticForm({1, 2}), 18.0);
}

TEST(Matrix, AddRankOne) {
  Matrix m(2, 2);
  m.AddRankOne(2.0, {1, 3});
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 18.0);
}

TEST(Matrix, SymmetrizeAndAsymmetry) {
  Matrix m(2, 2);
  m(0, 1) = 1.0;
  m(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(m.MaxAsymmetry(), 2.0);
  m.Symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.MaxAsymmetry(), 0.0);
}

TEST(Matrix, MatMulAndTranspose) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  Matrix at = a.Transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(Matrix, ScaleInPlace) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.Scale(10.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 40.0);
}

TEST(Matrix, FusedScaleRankOneMatchesTwoStep) {
  // The fused hot-path update must equal AddRankOne followed by Scale.
  Matrix fused = Matrix::FromRows({{4, 1, 0}, {1, 3, 1}, {0, 1, 5}});
  Matrix two_step = fused;
  Vector b{0.5, -1.0, 2.0};
  double factor = 1.31;
  double coef = 0.42;
  fused.FusedScaleRankOne(factor, coef, b);
  two_step.AddRankOne(-coef, b);
  two_step.Scale(factor);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(fused(r, c), two_step(r, c), 1e-12) << r << "," << c;
    }
  }
}

TEST(Matrix, FusedScaleRankOnePreservesSymmetryToUlps) {
  Matrix m = Matrix::ScaledIdentity(8, 3.0);
  Vector b{0.1, 0.2, -0.3, 0.4, -0.5, 0.6, 0.7, -0.8};
  for (int k = 0; k < 1000; ++k) {
    m.FusedScaleRankOne(1.001, 0.01, b);
  }
  EXPECT_LT(m.MaxAsymmetry(), 1e-9 * std::max(1.0, m.FrobeniusNorm()));
}

// ---------------------------------------------------------------- sparse

TEST(SparseVector, AppendAndDot) {
  SparseVector sv;
  sv.Append(1, 2.0);
  sv.Append(4, -1.0);
  EXPECT_EQ(sv.nnz(), 2);
  Vector dense{1, 10, 100, 1000, 10000};
  EXPECT_DOUBLE_EQ(sv.Dot(dense), 20.0 - 10000.0);
  EXPECT_DOUBLE_EQ(sv.SquaredNorm(), 5.0);
}

TEST(SparseVector, ToDense) {
  SparseVector sv;
  sv.Append(0, 1.5);
  sv.Append(3, 2.5);
  EXPECT_EQ(sv.ToDense(4), (Vector{1.5, 0, 0, 2.5}));
}

// ------------------------------------- in-place / by-value equivalence

TEST(VectorOpsInPlace, IntoVariantsMatchByValueBitwise) {
  Rng rng(101);
  for (int n : {1, 3, 4, 7, 16, 33}) {
    Vector a = rng.GaussianVector(n);
    Vector b = rng.GaussianVector(n);
    // Deliberately dirty, wrongly-sized reused buffer.
    Vector out(static_cast<size_t>(n) + 5, -7.0);
    AddInto(a, b, &out);
    EXPECT_EQ(out, Add(a, b)) << "n=" << n;
    SubInto(a, b, &out);
    EXPECT_EQ(out, Sub(a, b)) << "n=" << n;
    ScaledInto(a, 1.75, &out);
    EXPECT_EQ(out, Scaled(a, 1.75)) << "n=" << n;
  }
}

TEST(VectorOpsInPlace, IntoVariantsAllowAliasing) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{0.5, -1.5, 4.0};
  Vector expected = Add(a, b);
  AddInto(a, b, &a);  // out aliases a
  EXPECT_EQ(a, expected);
}

TEST(MatrixInPlace, MatVecIntoMatchesByValueBitwise) {
  Rng rng(202);
  for (int n : {2, 5, 8, 13, 20}) {
    Matrix m(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) m(r, c) = rng.NextGaussian();
    }
    Vector x = rng.GaussianVector(n);
    Vector y(3, 99.0);  // dirty reused buffer
    m.MatVecInto(x, &y);
    EXPECT_EQ(y, m.MatVec(x)) << "n=" << n;
    m.MatTVecInto(x, &y);
    EXPECT_EQ(y, m.MatTVec(x)) << "n=" << n;
  }
}

TEST(MatrixPanel, MatPanelIntoMatchesMatVecBitwise) {
  // The batched kernel must produce each query's result bit-identical to a
  // standalone MatVecInto pass — the register-blocking may only interleave
  // the independent per-query reduction chains, never reassociate within
  // one. Dims cover non-multiples of 4 (scalar-tail coverage) and k covers
  // the blocked path, the remainder path, and their mix.
  Rng rng(404);
  for (int n : {2, 3, 5, 8, 13, 20, 50}) {
    Matrix m(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) m(r, c) = rng.NextGaussian();
    }
    for (int k : {1, 2, 4, 7, 32}) {
      Vector panel(static_cast<size_t>(k) * n);
      for (double& v : panel) v = rng.NextGaussian();
      Vector y(static_cast<size_t>(k) * n, 99.0);  // dirty reused buffer
      m.MatPanelInto(panel.data(), k, y.data());
      Vector x(static_cast<size_t>(n));
      Vector expected;
      for (int j = 0; j < k; ++j) {
        x.assign(panel.begin() + static_cast<size_t>(j) * n,
                 panel.begin() + static_cast<size_t>(j + 1) * n);
        m.MatVecInto(x, &expected);
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(y[static_cast<size_t>(j) * n + r], expected[static_cast<size_t>(r)])
              << "n=" << n << " k=" << k << " j=" << j << " r=" << r;
        }
      }
    }
  }
}

// ------------------------------------------------- reference reduction pins
//
// The kernels above may only change how many reductions run at once, never
// the op sequence of one. These tests pin them to a plain scalar reference of
// that sequence: lane l = i mod 4 sums the products at i ≡ l on its own, the
// lanes combine as (l0 + l1) + (l2 + l3), and the n mod 4 tail adds in order.
// Comparing a kernel with another path of the same build cannot catch a
// blocking that reassociates every row the same way; a reference can. The
// Release build runs the x86-64-v3 kernels here and the sanitizer builds the
// baseline ones (common/arch.h), so both are pinned. This file is compiled
// for the baseline target, which has no FMA, so the reference's mul and add
// stay separate too.

double ReferenceDot(const double* a, const double* b, int n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) lane[l] += a[i + l] * b[i + l];
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

// Every row remainder mod the kernel's row block and every column tail mod 4
// runs, on square and rectangular shapes.
std::vector<int> PinnedExtents() {
  std::vector<int> extents;
  for (int d = 1; d <= 19; ++d) extents.push_back(d);
  for (int d : {20, 32, 55, 100, 128}) extents.push_back(d);
  return extents;
}

// Entries spread over several binades, so a reassociated sum rounds
// differently with high probability.
double SpreadEntry(Rng* rng) {
  return rng->NextGaussian() * std::ldexp(1.0, static_cast<int>(rng->NextUint64(17)) - 8);
}

TEST(ReferencePins, MatVecIntoMatchesScalarReferenceBitwise) {
  Rng rng(606);
  for (int rows : PinnedExtents()) {
    for (int cols : PinnedExtents()) {
      Matrix m(rows, cols);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) m(r, c) = SpreadEntry(&rng);
      }
      Vector x(static_cast<size_t>(cols));
      for (double& v : x) v = SpreadEntry(&rng);
      Vector y;
      m.MatVecInto(x, &y);
      for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(y[static_cast<size_t>(r)],
                  ReferenceDot(m.data() + static_cast<size_t>(r) * cols, x.data(), cols))
            << rows << "x" << cols << " row " << r;
      }
    }
  }
}

TEST(ReferencePins, MatPanelIntoMatchesScalarReferenceBitwise) {
  constexpr int kMaxQueries = 9;  // two 4-query blocks plus every remainder
  Rng rng(707);
  for (int rows : PinnedExtents()) {
    for (int cols : PinnedExtents()) {
      Matrix m(rows, cols);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) m(r, c) = SpreadEntry(&rng);
      }
      Vector panel(static_cast<size_t>(kMaxQueries) * cols);
      for (double& v : panel) v = SpreadEntry(&rng);
      Vector expected(static_cast<size_t>(kMaxQueries) * rows);
      for (int j = 0; j < kMaxQueries; ++j) {
        for (int r = 0; r < rows; ++r) {
          expected[static_cast<size_t>(j) * rows + r] =
              ReferenceDot(m.data() + static_cast<size_t>(r) * cols,
                           panel.data() + static_cast<size_t>(j) * cols, cols);
        }
      }
      for (int k = 1; k <= kMaxQueries; ++k) {
        Vector y(static_cast<size_t>(k) * rows, 99.0);
        m.MatPanelInto(panel.data(), k, y.data());
        for (size_t i = 0; i < y.size(); ++i) {
          ASSERT_EQ(y[i], expected[i]) << rows << "x" << cols << " k=" << k << " query "
                                       << i / rows << " row " << i % rows;
        }
      }
    }
  }
}

TEST(ReferencePins, DotPairMatchesScalarReferenceAndDotBitwise) {
  // The support pass's midpoint x·c and quadratic form x·(Ax) run as one
  // DotPair (Ellipsoid::FinishSupport); each half must stay Dot's sequence.
  Rng rng(808);
  for (int n : PinnedExtents()) {
    Vector x(static_cast<size_t>(n)), a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
    for (Vector* v : {&x, &a, &b}) {
      for (double& e : *v) e = SpreadEntry(&rng);
    }
    double xa = 0.0, xb = 0.0;
    DotPair(x.data(), a.data(), b.data(), x.size(), &xa, &xb);
    EXPECT_EQ(xa, ReferenceDot(x.data(), a.data(), n)) << "n=" << n;
    EXPECT_EQ(xb, ReferenceDot(x.data(), b.data(), n)) << "n=" << n;
    EXPECT_EQ(xa, Dot(x, a)) << "n=" << n;
    EXPECT_EQ(xb, Dot(x, b)) << "n=" << n;
  }
}

// The fused pass: the rank-one cut update carried by the first sweep of the
// panel product. Reference: the update as a pass of its own, entry
// factor·(a − (coef·b_r)·b_c), then every product in RowDot order.
TEST(ReferencePins, ScaleRankOneThenMatPanelMatchesTwoPassReferenceBitwise) {
  constexpr int kMaxQueries = 9;
  Rng rng(909);
  for (int n : PinnedExtents()) {
    Matrix start(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) start(r, c) = SpreadEntry(&rng);
    }
    Vector b(static_cast<size_t>(n));
    for (double& v : b) v = SpreadEntry(&rng);
    const double factor = 1.0 + rng.NextUniform(-0.25, 0.25);
    const double coef = rng.NextUniform(0.01, 2.0);
    Matrix updated = start;
    for (int r = 0; r < n; ++r) {
      const double cr = coef * b[static_cast<size_t>(r)];
      for (int c = 0; c < n; ++c) {
        updated(r, c) = factor * (updated(r, c) - cr * b[static_cast<size_t>(c)]);
      }
    }
    Vector panel(static_cast<size_t>(kMaxQueries) * n);
    for (double& v : panel) v = SpreadEntry(&rng);
    for (int k = 0; k <= kMaxQueries; ++k) {
      Matrix m = start;
      Vector y(static_cast<size_t>(k) * n, 99.0);
      m.ScaleRankOneThenMatPanelInto(factor, coef, b, panel.data(), k, y.data());
      for (int i = 0; i < n * n; ++i) {
        ASSERT_EQ(m.data()[i], updated.data()[i])
            << "n=" << n << " k=" << k << " entry " << i / n << "," << i % n;
      }
      for (int j = 0; j < k; ++j) {
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(y[static_cast<size_t>(j) * n + r],
                    ReferenceDot(updated.data() + static_cast<size_t>(r) * n,
                                 panel.data() + static_cast<size_t>(j) * n, n))
              << "n=" << n << " k=" << k << " query " << j << " row " << r;
        }
      }
    }
    Matrix flushed = start;  // FusedScaleRankOne is the zero-query pass
    flushed.FusedScaleRankOne(factor, coef, b);
    for (int i = 0; i < n * n; ++i) ASSERT_EQ(flushed.data()[i], updated.data()[i]) << n;
  }
}

TEST(ReferencePins, TiledSymmetrizeMatchesPairwiseLoopBitwise) {
  // Sizes on both sides of the 16-wide tile, and off its multiples.
  Rng rng(1010);
  for (int n : {1, 2, 3, 15, 16, 17, 31, 33, 47, 55, 100, 128, 129}) {
    Matrix m(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) m(r, c) = SpreadEntry(&rng);
    }
    Matrix expected = m;
    for (int r = 0; r < n; ++r) {
      for (int c = r + 1; c < n; ++c) {
        const double avg = 0.5 * (expected(r, c) + expected(c, r));
        expected(r, c) = avg;
        expected(c, r) = avg;
      }
    }
    m.Symmetrize();
    for (int i = 0; i < n * n; ++i) {
      ASSERT_EQ(m.data()[i], expected.data()[i]) << "n=" << n << " entry " << i;
    }
  }
}

TEST(Matrix, StorageStartsOnACacheLineThroughCopiesAndMoves) {
  const auto on_line = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.data()) % 64 == 0;
  };
  std::vector<Matrix> kept;  // keeps allocations live so the heap moves on
  for (int n : {2, 3, 5, 20, 32, 55, 100, 128}) {
    Matrix m = Matrix::ScaledIdentity(n, 2.0);
    m(0, n - 1) = 3.0;
    ASSERT_TRUE(on_line(m)) << n;
    Matrix copy = m;
    ASSERT_TRUE(on_line(copy)) << n;
    ASSERT_EQ(copy(0, n - 1), 3.0);
    ASSERT_EQ(copy(n - 1, n - 1), 2.0);
    Matrix assigned(n + 1, n);
    assigned = m;
    ASSERT_TRUE(on_line(assigned)) << n;
    ASSERT_EQ(assigned.rows(), n);
    ASSERT_EQ(assigned(0, n - 1), 3.0);
    Matrix moved = std::move(copy);
    ASSERT_TRUE(on_line(moved)) << n;
    ASSERT_EQ(moved(0, n - 1), 3.0);
    EXPECT_EQ(copy.rows(), 0);  // NOLINT(bugprone-use-after-move): 0×0 by contract
    kept.push_back(std::move(m));
    kept.push_back(std::move(assigned));
    kept.push_back(std::move(moved));
  }
  for (const Matrix& m : kept) EXPECT_TRUE(on_line(m));
}

TEST(MatrixPanel, ZeroQueriesIsANoOp) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.MatPanelInto(nullptr, 0, nullptr);  // k = 0 must not touch the pointers
}

TEST(VectorOps, RawDotMatchesVectorDotBitwise) {
  Rng rng(505);
  for (int n : {1, 3, 4, 7, 20, 50}) {
    Vector a = rng.GaussianVector(n);
    Vector b = rng.GaussianVector(n);
    ASSERT_EQ(Dot(a.data(), b.data(), a.size()), Dot(a, b)) << "n=" << n;
  }
}

TEST(MatrixInPlace, ReusedBufferStableAcrossCalls) {
  // Second call into the same buffer must not depend on the first's content.
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Vector y;
  m.MatVecInto({1, 1}, &y);
  EXPECT_EQ(y, (Vector{3, 7}));
  m.MatVecInto({2, 0}, &y);
  EXPECT_EQ(y, (Vector{2, 6}));
}

// ---------------------------------------------------------------- packed

// Random symmetric dense matrix plus its packed twin.
Matrix RandomSymmetric(int n, Rng* rng) {
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      double v = rng->NextGaussian();
      m(r, c) = v;
      m(c, r) = v;
    }
  }
  return m;
}

TEST(PackedSymMatrix, IndexMappingAndAccessors) {
  PackedSymMatrix p(3);
  EXPECT_EQ(p.dim(), 3);
  EXPECT_EQ(p.packed_size(), static_cast<size_t>(6));
  p.At(0, 2) = 5.0;
  EXPECT_DOUBLE_EQ(p.At(2, 0), 5.0);  // either triangle maps to one slot
  p.At(1, 1) = -2.0;
  EXPECT_DOUBLE_EQ(p.At(1, 1), -2.0);
  PackedSymMatrix id = PackedSymMatrix::ScaledIdentity(3, 2.5);
  EXPECT_DOUBLE_EQ(id.At(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Trace(), 7.5);
}

TEST(PackedSymMatrix, DenseRoundTripIsBitExact) {
  Rng rng(606);
  for (int n : {2, 3, 5, 8, 13, 20}) {
    Matrix dense = RandomSymmetric(n, &rng);
    PackedSymMatrix packed = PackedSymMatrix::FromDense(dense);
    Matrix back = packed.ToDense();
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        ASSERT_EQ(back(r, c), dense(r, c)) << "n=" << n << " " << r << "," << c;
      }
    }
    // Pack → dense → pack must reproduce the stored doubles exactly: the
    // property the snapshot codec leans on (shapes serialize dense).
    PackedSymMatrix again = PackedSymMatrix::FromDense(back);
    for (size_t i = 0; i < packed.packed_size(); ++i) {
      ASSERT_EQ(again.data()[i], packed.data()[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PackedSymMatrix, MatVecMatchesDenseWithinTolerance) {
  // The packed mat-vec accumulates in a different order than the dense
  // row-dot kernel, so the contract is tolerance, not bits (the header
  // documents this). Tolerance is relative to the result magnitude.
  Rng rng(707);
  for (int n : {2, 3, 5, 8, 13, 20, 50}) {
    Matrix dense = RandomSymmetric(n, &rng);
    PackedSymMatrix packed = PackedSymMatrix::FromDense(dense);
    Vector x = rng.GaussianVector(n);
    Vector yp(1, 99.0);
    Vector yd(1, 99.0);
    packed.MatVecInto(x, &yp);
    dense.MatVecInto(x, &yd);
    ASSERT_EQ(yp.size(), static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      double scale = std::max(1.0, std::abs(yd[static_cast<size_t>(r)]));
      ASSERT_NEAR(yp[static_cast<size_t>(r)], yd[static_cast<size_t>(r)], 1e-12 * scale)
          << "n=" << n << " r=" << r;
    }
    double qp = packed.QuadraticForm(x);
    double qd = dense.QuadraticForm(x);
    ASSERT_NEAR(qp, qd, 1e-12 * std::max(1.0, std::abs(qd))) << "n=" << n;
  }
}

TEST(PackedSymMatrix, MatPanelMatchesMatVecBitwise) {
  // Same contract as the dense panel kernel: batching may interleave the
  // independent per-query chains but never reassociate within one, so each
  // query is bit-identical to a standalone packed mat-vec. Dims and k cover
  // the 4-wide blocked path, the remainder path, and their mix.
  Rng rng(808);
  for (int n : {2, 3, 5, 8, 13, 20, 50}) {
    PackedSymMatrix packed = PackedSymMatrix::FromDense(RandomSymmetric(n, &rng));
    for (int k : {1, 2, 4, 7, 32}) {
      Vector panel(static_cast<size_t>(k) * n);
      for (double& v : panel) v = rng.NextGaussian();
      Vector y(static_cast<size_t>(k) * n, 99.0);  // dirty reused buffer
      packed.MatPanelInto(panel.data(), k, y.data());
      Vector x(static_cast<size_t>(n));
      Vector expected;
      for (int j = 0; j < k; ++j) {
        x.assign(panel.begin() + static_cast<size_t>(j) * n,
                 panel.begin() + static_cast<size_t>(j + 1) * n);
        packed.MatVecInto(x, &expected);
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(y[static_cast<size_t>(j) * n + r], expected[static_cast<size_t>(r)])
              << "n=" << n << " k=" << k << " j=" << j << " r=" << r;
        }
      }
    }
  }
}

TEST(PackedSymMatrix, ZeroQueriesIsANoOp) {
  PackedSymMatrix p = PackedSymMatrix::ScaledIdentity(2, 1.0);
  p.MatPanelInto(nullptr, 0, nullptr);  // k = 0 must not touch the pointers
}

TEST(PackedSymMatrix, FusedScaleRankOneMatchesDenseUpperTriangleBitwise) {
  // The packed cut update applies factor·(a_rc − (coef·b_r)·b_c) per stored
  // entry — the same expression, in the same order, as the dense kernel's
  // upper triangle. That makes a packed cut sequence bit-identical to a
  // dense one until the dense side's first 32-cut re-symmetrization.
  Rng rng(909);
  for (int n : {2, 3, 5, 8, 13, 20}) {
    Matrix dense = RandomSymmetric(n, &rng);
    // Shift to strong diagonal dominance so repeated cuts stay tame.
    for (int r = 0; r < n; ++r) dense(r, r) += 4.0 * n;
    PackedSymMatrix packed = PackedSymMatrix::FromDense(dense);
    for (int cut = 0; cut < 31; ++cut) {  // stay below the symmetrize window
      Vector b = rng.GaussianVector(n);
      double factor = 1.0 + 0.01 * rng.NextDouble();
      double coef = 0.05 * rng.NextDouble();
      dense.FusedScaleRankOne(factor, coef, b);
      packed.FusedScaleRankOne(factor, coef, b);
      for (int r = 0; r < n; ++r) {
        for (int c = r; c < n; ++c) {
          ASSERT_EQ(packed.At(r, c), dense(r, c))
              << "n=" << n << " cut=" << cut << " " << r << "," << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pdm
