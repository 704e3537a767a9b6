#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ellipsoid/ellipsoid.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace pdm {
namespace {

TEST(Ellipsoid, BallBasics) {
  Ellipsoid e = Ellipsoid::Ball(3, 2.0);
  EXPECT_EQ(e.dim(), 3);
  EXPECT_EQ(e.center(), Zeros(3));
  EXPECT_DOUBLE_EQ(e.shape()(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(e.shape()(0, 1), 0.0);
  EXPECT_TRUE(e.LooksHealthy());
}

TEST(Ellipsoid, SupportOfBallAlongAxis) {
  Ellipsoid e = Ellipsoid::Ball(2, 3.0);
  SupportInterval s = e.Support(BasisVector(2, 0));
  EXPECT_DOUBLE_EQ(s.lower, -3.0);
  EXPECT_DOUBLE_EQ(s.upper, 3.0);
  EXPECT_DOUBLE_EQ(s.midpoint, 0.0);
  EXPECT_DOUBLE_EQ(s.half_width, 3.0);
}

TEST(Ellipsoid, SupportScalesWithFeatureNorm) {
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  // Support of θ ↦ xᵀθ over unit ball is ±‖x‖.
  Vector x{3.0, 4.0};
  SupportInterval s = e.Support(x);
  EXPECT_NEAR(s.upper, 5.0, 1e-12);
  EXPECT_NEAR(s.lower, -5.0, 1e-12);
}

TEST(Ellipsoid, SupportWithOffCenter) {
  Ellipsoid e(Vector{1.0, 2.0}, Matrix::ScaledIdentity(2, 1.0));
  SupportInterval s = e.Support(BasisVector(2, 1));
  EXPECT_DOUBLE_EQ(s.midpoint, 2.0);
  EXPECT_DOUBLE_EQ(s.lower, 1.0);
  EXPECT_DOUBLE_EQ(s.upper, 3.0);
}

TEST(Ellipsoid, CutAlphaSignConvention) {
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  Vector x = BasisVector(2, 0);
  // Cut below the midpoint (cut value < mid) has positive α (deep toward the
  // kept lower side... the α convention is (mid − cut)/width).
  EXPECT_GT(e.CutAlpha(x, -0.5), 0.0);
  EXPECT_LT(e.CutAlpha(x, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.CutAlpha(x, 0.0), 0.0);
}

TEST(Ellipsoid, CentralCutKeepBelowMatchesKnownLownerJohn) {
  // Löwner–John ellipsoid of the half unit ball {θ₁ ≤ 0} in R²: center
  // (−1/3, 0), semi-axes 2/3 (along e₁) and 2/√3 (along e₂).
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  e.CutKeepBelow(BasisVector(2, 0), 0.0);
  EXPECT_NEAR(e.center()[0], -1.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.center()[1], 0.0, 1e-12);
  EXPECT_NEAR(e.shape()(0, 0), 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(e.shape()(1, 1), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.shape()(0, 1), 0.0, 1e-12);
  EXPECT_TRUE(e.LooksHealthy());
}

TEST(Ellipsoid, CentralCutKeepAboveIsMirrorImage) {
  Ellipsoid below = Ellipsoid::Ball(2, 1.0);
  Ellipsoid above = Ellipsoid::Ball(2, 1.0);
  below.CutKeepBelow(BasisVector(2, 0), 0.0);
  above.CutKeepAbove(BasisVector(2, 0), 0.0);
  EXPECT_NEAR(above.center()[0], -below.center()[0], 1e-12);
  EXPECT_NEAR(above.shape()(0, 0), below.shape()(0, 0), 1e-12);
  EXPECT_NEAR(above.shape()(1, 1), below.shape()(1, 1), 1e-12);
}

TEST(Ellipsoid, CutKeepsTheCorrectSide) {
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  Vector x = BasisVector(2, 0);
  e.CutKeepBelow(x, 0.0);
  // Points clearly on the kept side remain; excluded side points leave.
  EXPECT_TRUE(e.Contains(Vector{-0.5, 0.0}));
  EXPECT_FALSE(e.Contains(Vector{0.9, 0.0}));
}

TEST(Ellipsoid, DeepCutShrinksMoreThanCentral) {
  Ellipsoid central = Ellipsoid::Ball(3, 1.0);
  Ellipsoid deep = Ellipsoid::Ball(3, 1.0);
  Vector x = BasisVector(3, 0);
  central.CutKeepBelow(x, 0.0);
  deep.CutKeepBelow(x, 0.3);  // deep cut: keeps less than half
  EXPECT_LT(deep.LogVolumeUnnormalized(), central.LogVolumeUnnormalized());
}

TEST(Ellipsoid, ShallowCutWithinWindowShrinksAndEncloses) {
  // α ∈ (−1/n, 0): a shallow cut keeps more than half of E. The update is
  // still the Löwner–John ellipsoid of the kept region — smaller in volume
  // than E and enclosing every kept point.
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  double before = e.LogVolumeUnnormalized();
  // Keep {θ₁ ≤ 0.3}: cut value 0.3 means α = −0.3 (shallow, > −1/2).
  e.CutKeepBelow(BasisVector(2, 0), -0.3);
  EXPECT_LT(e.LogVolumeUnnormalized(), before);
  // Points inside the kept region stay inside.
  EXPECT_TRUE(e.Contains(Vector{0.25, 0.9}));
  EXPECT_TRUE(e.Contains(Vector{-0.9, 0.0}));
}

TEST(Ellipsoid, BoundaryAlphaIsIdentityUpdate) {
  // a = −1/n: factor 1, coefficient 0 — the update is a no-op, matching the
  // fact that the minimal enclosing ellipsoid of a ≤ −1/n cut is E itself.
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  e.CutKeepBelow(BasisVector(2, 0), -0.5);
  EXPECT_NEAR(e.shape()(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e.shape()(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(e.center()[0], 0.0, 1e-12);
}

TEST(Ellipsoid, VolumeOfBall) {
  // LogVolumeUnnormalized = ½ log det(R²·I) = n·log R.
  Ellipsoid e = Ellipsoid::Ball(4, 2.0);
  EXPECT_NEAR(e.LogVolumeUnnormalized(), 4.0 * std::log(2.0), 1e-12);
}

TEST(Ellipsoid, ContainsBoundaryAndOutside) {
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  EXPECT_TRUE(e.Contains(Vector{1.0, 0.0}));       // boundary
  EXPECT_TRUE(e.Contains(Vector{0.6, 0.6}));       // inside
  EXPECT_FALSE(e.Contains(Vector{0.8, 0.8}));      // outside
}

TEST(Ellipsoid, SmallestShapeEigenvalueOfBall) {
  Ellipsoid e = Ellipsoid::Ball(3, 2.0);
  EXPECT_NEAR(e.SmallestShapeEigenvalue(), 4.0, 1e-10);
}

TEST(Ellipsoid, AxisWidthsDescending) {
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  e.CutKeepBelow(BasisVector(2, 0), 0.0);
  Vector widths = e.AxisWidths();
  ASSERT_EQ(widths.size(), 2u);
  EXPECT_NEAR(widths[0], 2.0 * 2.0 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(widths[1], 2.0 * 2.0 / 3.0, 1e-9);
  EXPECT_GE(widths[0], widths[1]);
}

TEST(Ellipsoid, SupportDirectionIsRawShapeImage) {
  // direction = A·x; the b of Algorithm 1 Line 5 is direction/half_width
  // (the cut overloads fold the normalization into their coefficients).
  Ellipsoid e = Ellipsoid::Ball(3, 2.0);
  Vector x{1.0, 2.0, 2.0};  // ‖x‖ = 3
  SupportInterval s = e.Support(x);
  ASSERT_EQ(s.direction.size(), 3u);
  // For A = 4I: A·x = 4x and half_width = √(4·9) = 6, so b = (2/3)·x.
  EXPECT_NEAR(s.direction[0], 4.0, 1e-12);
  EXPECT_NEAR(s.direction[1], 8.0, 1e-12);
  EXPECT_NEAR(s.direction[2], 8.0, 1e-12);
  EXPECT_NEAR(s.half_width, 6.0, 1e-12);
  EXPECT_NEAR(s.direction[0] / s.half_width, 2.0 / 3.0, 1e-12);
}

TEST(Ellipsoid, CachedDirectionCutMatchesFreshCut) {
  Rng rng(77);
  Ellipsoid by_vector = Ellipsoid::Ball(4, 1.5);
  Ellipsoid by_support = Ellipsoid::Ball(4, 1.5);
  for (int k = 0; k < 25; ++k) {
    Vector x = rng.GaussianVector(4);
    RescaleToNorm(&x, 1.0);
    // Keep |α| < 1/n = 0.25 so both branches stay in their validity windows.
    double alpha = rng.NextUniform(-0.2, 0.2);
    SupportInterval support = by_support.Support(x);
    if (support.half_width <= 0.0) continue;
    if (k % 2 == 0) {
      by_vector.CutKeepBelow(x, alpha);
      by_support.CutKeepBelow(support, alpha);
    } else {
      by_vector.CutKeepAbove(x, alpha);
      by_support.CutKeepAbove(support, alpha);
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_NEAR(by_vector.center()[static_cast<size_t>(i)],
                  by_support.center()[static_cast<size_t>(i)], 1e-12);
      for (int j = 0; j < 4; ++j) {
        ASSERT_NEAR(by_vector.shape()(i, j), by_support.shape()(i, j), 1e-12);
      }
    }
  }
}

TEST(EllipsoidDeathTest, RejectsCutBeyondValidityWindow) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Ellipsoid e = Ellipsoid::Ball(2, 1.0);
  // a < −1/n: the formula would produce a non-enclosing ellipsoid.
  EXPECT_DEATH(e.CutKeepBelow(BasisVector(2, 0), -0.9), "PDM_CHECK");
  // a ≥ 1: the kept region would be empty.
  EXPECT_DEATH(e.CutKeepBelow(BasisVector(2, 0), 1.0), "PDM_CHECK");
}

TEST(EllipsoidDeathTest, RejectsDimensionOne) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The GLS formulas are singular at n = 1; IntervalPricingEngine is the
  // supported path.
  EXPECT_DEATH(Ellipsoid::Ball(1, 1.0), "PDM_CHECK");
}

TEST(Ellipsoid, SupportOutParamMatchesByValueBitwise) {
  // The fill-in overload must be bit-identical to the by-value one, with the
  // direction buffer reused (and dirtied) across rounds and across cuts.
  Rng rng(303);
  Ellipsoid e = Ellipsoid::Ball(5, 2.0);
  SupportInterval reused;
  reused.direction.assign(11, -42.0);  // dirty + oversized on purpose
  for (int k = 0; k < 30; ++k) {
    Vector x = rng.GaussianVector(5);
    SupportInterval fresh = e.Support(x);
    e.Support(x, &reused);
    ASSERT_EQ(fresh.lower, reused.lower);
    ASSERT_EQ(fresh.upper, reused.upper);
    ASSERT_EQ(fresh.half_width, reused.half_width);
    ASSERT_EQ(fresh.midpoint, reused.midpoint);
    ASSERT_EQ(fresh.direction, reused.direction);
    if (reused.half_width > 0.0) {
      // Mutate the ellipsoid so later iterations probe different geometry.
      e.CutKeepBelow(reused, 0.05);
    }
  }
}

TEST(Ellipsoid, SupportBatchMatchesSequentialSupportBitwise) {
  // SupportBatch over a query-major panel must equal K sequential Support
  // calls bit for bit — the DESIGN.md §11 contract that lets the batched
  // serving path replace the scalar one without changing a single quote.
  // Cuts between rounds make later panels probe non-trivial geometry.
  Rng rng(606);
  for (int d : {2, 3, 20, 50}) {
    Ellipsoid e = Ellipsoid::Ball(d, 2.0);
    for (int k : {1, 2, 7, 32}) {
      Vector panel(static_cast<size_t>(k) * d);
      for (double& v : panel) v = rng.NextGaussian();
      std::vector<SupportInterval> batched(static_cast<size_t>(k));
      std::vector<SupportInterval*> targets;
      for (SupportInterval& s : batched) {
        s.direction.assign(7, -42.0);  // dirty
        targets.push_back(&s);
      }
      e.SupportBatch(panel.data(), k, targets.data());
      Vector x(static_cast<size_t>(d));
      SupportInterval expected;
      for (int j = 0; j < k; ++j) {
        x.assign(panel.begin() + static_cast<size_t>(j) * d,
                 panel.begin() + static_cast<size_t>(j + 1) * d);
        e.Support(x, &expected);
        const SupportInterval& got = batched[static_cast<size_t>(j)];
        ASSERT_EQ(expected.lower, got.lower) << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.upper, got.upper) << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.half_width, got.half_width)
            << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.midpoint, got.midpoint)
            << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.direction, got.direction)
            << "d=" << d << " k=" << k << " j=" << j;
      }
      // Refine the ellipsoid so the next k probes a different knowledge set.
      if (batched[0].half_width > 0.0) {
        e.CutKeepBelow(batched[0], 0.05);
      }
    }
  }
}

TEST(Ellipsoid, SupportBatchClearsDirectionOnDegenerateColumn) {
  // A collapsed direction inside a panel must degenerate exactly like the
  // scalar path: zero width, empty direction — while its neighbours in the
  // same panel stay untouched.
  Matrix a = Matrix::ScaledIdentity(2, 1.0);
  a(1, 1) = 0.0;
  Ellipsoid e(Zeros(2), a);
  Vector panel{1.0, 0.0,   // healthy column (probes the live axis)
               0.0, 1.0};  // degenerate column (probes the collapsed axis)
  std::vector<SupportInterval> out(2);
  out[1].direction.assign(4, 3.0);  // stale content from a previous round
  SupportInterval* const targets[] = {&out[0], &out[1]};
  e.SupportBatch(panel.data(), 2, targets);
  EXPECT_GT(out[0].half_width, 0.0);
  EXPECT_DOUBLE_EQ(out[1].half_width, 0.0);
  EXPECT_TRUE(out[1].direction.empty());
  SupportInterval scalar = e.Support(Vector{0.0, 1.0});
  EXPECT_EQ(scalar.lower, out[1].lower);
  EXPECT_EQ(scalar.upper, out[1].upper);
}

TEST(Ellipsoid, SupportOutParamClearsDirectionOnDegenerate) {
  Matrix a = Matrix::ScaledIdentity(2, 1.0);
  a(1, 1) = 0.0;
  Ellipsoid e(Zeros(2), a);
  SupportInterval reused;
  reused.direction.assign(4, 3.0);  // stale content from a previous round
  e.Support(BasisVector(2, 1), &reused);
  EXPECT_DOUBLE_EQ(reused.half_width, 0.0);
  EXPECT_TRUE(reused.direction.empty());
}

TEST(Ellipsoid, DegenerateDirectionYieldsZeroWidth) {
  // Shape with a numerically zero direction: Support reports zero width
  // instead of NaN.
  Matrix a = Matrix::ScaledIdentity(2, 1.0);
  a(1, 1) = 0.0;
  Ellipsoid e(Zeros(2), a);
  SupportInterval s = e.Support(BasisVector(2, 1));
  EXPECT_DOUBLE_EQ(s.half_width, 0.0);
  EXPECT_DOUBLE_EQ(s.lower, s.upper);
}

// ---------------------------------------------------------------- packed

TEST(EllipsoidPacked, BallBasicsAndAccessorGuards) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Ellipsoid e = Ellipsoid::PackedBall(3, 2.0);
  EXPECT_TRUE(e.packed());
  EXPECT_EQ(e.dim(), 3);
  EXPECT_DOUBLE_EQ(e.packed_shape().At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(e.DenseShape()(0, 1), 0.0);
  EXPECT_TRUE(e.LooksHealthy());
  EXPECT_DEATH(e.shape(), "PDM_CHECK");
  Ellipsoid dense = Ellipsoid::Ball(3, 2.0);
  EXPECT_FALSE(dense.packed());
  EXPECT_DEATH(dense.packed_shape(), "PDM_CHECK");
}

TEST(EllipsoidPacked, CutSequenceMatchesDenseUntilFirstSymmetrize) {
  // Within the dense mode's 32-cut symmetrization window the packed cut is
  // per-entry bit-identical to the dense one (the packed fused kernel runs
  // the dense kernel's upper-triangle expression in the same order), and
  // Support's quadratic form reduces over the same geometry at documented
  // tolerance. Past the first symmetrize the trajectories may diverge in
  // low-order bits — which is exactly why packed mode is opt-in.
  Rng rng(1111);
  for (int d : {2, 5, 20}) {
    Ellipsoid dense = Ellipsoid::Ball(d, 2.0);
    Ellipsoid packed = Ellipsoid::PackedBall(d, 2.0);
    for (int k = 0; k < 31; ++k) {
      Vector x = rng.GaussianVector(d);
      RescaleToNorm(&x, 1.0);
      SupportInterval sd = dense.Support(x);
      SupportInterval sp = packed.Support(x);
      ASSERT_NEAR(sp.half_width, sd.half_width,
                  1e-12 * std::max(1.0, sd.half_width));
      ASSERT_NEAR(sp.midpoint, sd.midpoint, 1e-12);
      if (sd.half_width <= 0.0 || sp.half_width <= 0.0) continue;
      double alpha = rng.NextUniform(-0.2, 0.2) / d;
      if (k % 2 == 0) {
        dense.CutKeepBelow(sd, alpha);
        packed.CutKeepBelow(sp, alpha);
      } else {
        dense.CutKeepAbove(sd, alpha);
        packed.CutKeepAbove(sp, alpha);
      }
      ASSERT_EQ(dense.cuts_since_symmetrize(), packed.cuts_since_symmetrize());
      for (int r = 0; r < d; ++r) {
        ASSERT_NEAR(packed.center()[static_cast<size_t>(r)],
                    dense.center()[static_cast<size_t>(r)], 1e-12)
            << "d=" << d << " k=" << k;
        for (int c = r; c < d; ++c) {
          ASSERT_NEAR(packed.packed_shape().At(r, c), dense.shape()(r, c),
                      1e-12 * std::max(1.0, std::abs(dense.shape()(r, c))))
              << "d=" << d << " k=" << k << " " << r << "," << c;
        }
      }
    }
  }
}

TEST(EllipsoidPacked, SupportBatchMatchesSequentialSupportBitwise) {
  // The §11 per-query bit-identity contract holds within packed mode too.
  Rng rng(1212);
  for (int d : {2, 3, 20, 50}) {
    Ellipsoid e = Ellipsoid::PackedBall(d, 2.0);
    for (int k : {1, 2, 7, 32}) {
      Vector panel(static_cast<size_t>(k) * d);
      for (double& v : panel) v = rng.NextGaussian();
      std::vector<SupportInterval> batched(static_cast<size_t>(k));
      std::vector<SupportInterval*> targets;
      for (SupportInterval& s : batched) {
        s.direction.assign(7, -42.0);  // dirty
        targets.push_back(&s);
      }
      e.SupportBatch(panel.data(), k, targets.data());
      Vector x(static_cast<size_t>(d));
      SupportInterval expected;
      for (int j = 0; j < k; ++j) {
        x.assign(panel.begin() + static_cast<size_t>(j) * d,
                 panel.begin() + static_cast<size_t>(j + 1) * d);
        e.Support(x, &expected);
        const SupportInterval& got = batched[static_cast<size_t>(j)];
        ASSERT_EQ(expected.lower, got.lower) << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.upper, got.upper) << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.half_width, got.half_width)
            << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.midpoint, got.midpoint)
            << "d=" << d << " k=" << k << " j=" << j;
        ASSERT_EQ(expected.direction, got.direction)
            << "d=" << d << " k=" << k << " j=" << j;
      }
      if (batched[0].half_width > 0.0) {
        e.CutKeepBelow(batched[0], 0.05);
      }
    }
  }
}

TEST(EllipsoidPacked, SnapshotRoundTripIsBitExact) {
  // Packed → dense snapshot → packed must resume bit-identically, including
  // the symmetrization phase; that is the property cold-tier eviction
  // (DESIGN.md §12) leans on.
  Rng rng(1313);
  Ellipsoid e = Ellipsoid::PackedBall(6, 1.5);
  for (int k = 0; k < 40; ++k) {  // crosses a 32-cut counter reset
    Vector x = rng.GaussianVector(6);
    RescaleToNorm(&x, 1.0);
    SupportInterval s = e.Support(x);
    if (s.half_width <= 0.0) continue;
    e.CutKeepBelow(s, 0.02);
  }
  Matrix snap_shape = e.DenseShape();
  Vector snap_center = e.center();
  Ellipsoid restored = Ellipsoid::FromSnapshotState(
      snap_center, snap_shape, e.cuts_since_symmetrize(), /*packed=*/true);
  EXPECT_TRUE(restored.packed());
  ASSERT_EQ(restored.cuts_since_symmetrize(), e.cuts_since_symmetrize());
  for (int r = 0; r < 6; ++r) {
    ASSERT_EQ(restored.center()[static_cast<size_t>(r)], e.center()[static_cast<size_t>(r)]);
    for (int c = r; c < 6; ++c) {
      ASSERT_EQ(restored.packed_shape().At(r, c), e.packed_shape().At(r, c));
    }
  }
  // And the re-encoded snapshot is byte-exact.
  Matrix again = restored.DenseShape();
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      ASSERT_EQ(again(r, c), snap_shape(r, c));
    }
  }
  // Future cuts evolve both copies identically (same packed arithmetic).
  Vector x = rng.GaussianVector(6);
  RescaleToNorm(&x, 1.0);
  Ellipsoid twin = e;
  SupportInterval sa = twin.Support(x);
  SupportInterval sb = restored.Support(x);
  ASSERT_EQ(sa.half_width, sb.half_width);
  if (sa.half_width > 0.0) {
    twin.CutKeepBelow(sa, 0.02);
    restored.CutKeepBelow(sb, 0.02);
    for (int r = 0; r < 6; ++r) {
      for (int c = r; c < 6; ++c) {
        ASSERT_EQ(twin.packed_shape().At(r, c), restored.packed_shape().At(r, c));
      }
    }
  }
}

// ---------------------------------------------------------- deferred cuts
//
// A cut leaves its shape update pending until the next pass over A. These
// tests drive a deferred ellipsoid beside an eager twin, flushed after
// every cut, and require every reader to return the same bits from both.

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameDoubles(const double* a, const double* b, size_t n, const std::string& what) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameBits(a[i], b[i])) << what << " [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void ExpectSameShape(const Ellipsoid& a, const Ellipsoid& b, const std::string& what) {
  const Matrix da = a.DenseShape();
  const Matrix db = b.DenseShape();
  ExpectSameDoubles(da.data(), db.data(), static_cast<size_t>(da.rows()) * da.cols(), what);
  ExpectSameDoubles(a.center().data(), b.center().data(), a.center().size(), what + " center");
}

void ExpectSameInterval(const SupportInterval& a, const SupportInterval& b,
                        const std::string& what) {
  ASSERT_TRUE(SameBits(a.lower, b.lower)) << what;
  ASSERT_TRUE(SameBits(a.upper, b.upper)) << what;
  ASSERT_TRUE(SameBits(a.half_width, b.half_width)) << what;
  ASSERT_TRUE(SameBits(a.midpoint, b.midpoint)) << what;
  ASSERT_EQ(a.direction.size(), b.direction.size()) << what;
  ExpectSameDoubles(a.direction.data(), b.direction.data(), a.direction.size(), what);
}

/// An α inside the window of the chosen side (CutKeepBelow: α ∈ [−1/n, 1);
/// CutKeepAbove: −α in it), shallow or moderately deep.
double DrawAlpha(Rng* rng, int n, bool keep_below) {
  const double a = rng->NextUniform(-0.5 / n, 0.3);
  return keep_below ? a : -a;
}

void Cut(Ellipsoid* e, const SupportInterval& s, double alpha, bool keep_below) {
  if (keep_below) {
    e->CutKeepBelow(s, alpha);
  } else {
    e->CutKeepAbove(s, alpha);
  }
}

/// Every reader of A, each on its own copy of `deferred` (a reader applies
/// the pending cut, so one copy would show the cut pending to the first
/// reader only), against the eager twin.
void ExpectEveryReaderMatches(const Ellipsoid& deferred, const Ellipsoid& eager, Rng* rng,
                              const std::string& where) {
  ASSERT_FALSE(eager.has_pending_cut()) << where;
  const int n = eager.dim();
  const size_t dim = static_cast<size_t>(n);
  {
    Ellipsoid probe = deferred;
    ExpectSameShape(probe, eager, where + " DenseShape");
  }
  {
    Ellipsoid probe = deferred;
    if (eager.packed()) {
      const PackedSymMatrix& a = probe.packed_shape();
      const PackedSymMatrix& b = eager.packed_shape();
      ExpectSameDoubles(a.data(), b.data(), a.packed_size(), where + " packed_shape()");
    } else {
      const Matrix& a = probe.shape();
      const Matrix& b = eager.shape();
      ExpectSameDoubles(a.data(), b.data(), dim * dim, where + " shape()");
    }
  }
  const Vector x = rng->GaussianVector(n);
  {
    Ellipsoid probe = deferred;
    ASSERT_TRUE(SameBits(probe.ShapeQuadraticForm(x), eager.ShapeQuadraticForm(x))) << where;
  }
  {
    Ellipsoid probe = deferred;
    Vector theta = eager.center();
    for (double& v : theta) v += 0.05 * rng->NextGaussian();
    ASSERT_EQ(probe.Contains(theta), eager.Contains(theta)) << where;
  }
  {
    Ellipsoid probe = deferred;
    ASSERT_TRUE(SameBits(probe.LogVolumeUnnormalized(), eager.LogVolumeUnnormalized()))
        << where;
  }
  {
    Ellipsoid probe = deferred;
    const Vector a = probe.AxisWidths();
    const Vector b = eager.AxisWidths();
    ExpectSameDoubles(a.data(), b.data(), dim, where + " AxisWidths");
  }
  {
    Ellipsoid probe = deferred;
    ASSERT_TRUE(SameBits(probe.SmallestShapeEigenvalue(), eager.SmallestShapeEigenvalue()))
        << where;
  }
  {
    Ellipsoid probe = deferred;
    ASSERT_EQ(probe.LooksHealthy(), eager.LooksHealthy()) << where;
  }
  {
    // A second cut on the pending one, with no support pass between.
    Ellipsoid probe = deferred;
    Ellipsoid twin = eager;
    SupportInterval s = twin.Support(x);
    if (s.half_width > 0.0) {
      const bool below = rng->NextUint64(2) == 0;
      const double alpha = DrawAlpha(rng, n, below);
      Cut(&probe, s, alpha, below);
      Cut(&twin, s, alpha, below);
      ExpectSameShape(probe, twin, where + " second cut");
    }
  }
  for (int k : {1, 2, 5, 9}) {
    Ellipsoid probe = deferred;
    Vector panel(static_cast<size_t>(k) * dim);
    for (double& v : panel) v = rng->NextGaussian();
    std::vector<SupportInterval> got(static_cast<size_t>(k)), want(static_cast<size_t>(k));
    std::vector<SupportInterval*> got_out, want_out;
    for (int j = 0; j < k; ++j) {
      got_out.push_back(&got[static_cast<size_t>(j)]);
      want_out.push_back(&want[static_cast<size_t>(j)]);
    }
    probe.SupportBatch(panel.data(), k, got_out.data());
    eager.SupportBatch(panel.data(), k, want_out.data());
    for (int j = 0; j < k; ++j) {
      ExpectSameInterval(got[static_cast<size_t>(j)], want[static_cast<size_t>(j)],
                         where + " SupportBatch k=" + std::to_string(k) + " j=" +
                             std::to_string(j));
    }
    ExpectSameShape(probe, eager, where + " after SupportBatch");
  }
}

TEST(EllipsoidDeferredCut, EveryReaderMatchesAnEagerTwinBitwise) {
  Rng rng(2626);
  for (bool packed : {false, true}) {
    for (int n : {2, 5, 13}) {
      Ellipsoid deferred = packed ? Ellipsoid::PackedBall(n, 2.0) : Ellipsoid::Ball(n, 2.0);
      Ellipsoid eager = deferred;
      int pending_seen = 0;
      for (int step = 0; step < 70; ++step) {  // crosses the 32nd and 64th cuts
        const std::string where = std::string(packed ? "packed" : "dense") +
                                  " n=" + std::to_string(n) + " step " +
                                  std::to_string(step);
        // The round's support pass: a panel of 1, 2, 5 or 9 whose first query
        // is the cut direction, so both the one-query and the query-block
        // fused passes run.
        constexpr int kPanels[] = {1, 2, 5, 9};
        const int k = kPanels[rng.NextUint64(4)];
        Vector panel(static_cast<size_t>(k) * n);
        for (double& v : panel) v = rng.NextGaussian();
        std::vector<SupportInterval> ds(static_cast<size_t>(k)), es(static_cast<size_t>(k));
        std::vector<SupportInterval*> d_out, e_out;
        for (int j = 0; j < k; ++j) {
          d_out.push_back(&ds[static_cast<size_t>(j)]);
          e_out.push_back(&es[static_cast<size_t>(j)]);
        }
        deferred.SupportBatch(panel.data(), k, d_out.data());
        eager.SupportBatch(panel.data(), k, e_out.data());
        for (size_t j = 0; j < ds.size(); ++j) {
          ASSERT_NO_FATAL_FAILURE(ExpectSameInterval(ds[j], es[j], where + " round support"));
        }
        ASSERT_FALSE(deferred.has_pending_cut()) << where;
        if (ds[0].half_width <= 0.0) continue;
        const bool below = rng.NextUint64(2) == 0;
        const double alpha = DrawAlpha(&rng, n, below);
        Cut(&deferred, ds[0], alpha, below);
        Cut(&eager, es[0], alpha, below);
        ASSERT_EQ(deferred.cuts_since_symmetrize(), eager.cuts_since_symmetrize()) << where;
        // Pending after every cut but the one that re-symmetrizes.
        ASSERT_EQ(deferred.has_pending_cut(), deferred.cuts_since_symmetrize() != 0) << where;
        pending_seen += deferred.has_pending_cut() ? 1 : 0;
        ASSERT_TRUE(eager.LooksHealthy()) << where;  // applies eager's cut now
        ASSERT_NO_FATAL_FAILURE(ExpectEveryReaderMatches(deferred, eager, &rng, where));
        ASSERT_TRUE(deferred.has_pending_cut() || deferred.cuts_since_symmetrize() == 0)
            << where << ": the readers ran on copies";
      }
      EXPECT_GT(pending_seen, 60) << (packed ? "packed" : "dense") << " n=" << n;
    }
  }
}

TEST(EllipsoidDeferredCut, ThirtySecondCutAppliesAtOnceAndSymmetrizes) {
  Rng rng(2727);
  Ellipsoid e = Ellipsoid::Ball(6, 1.5);
  for (int cut = 1; cut <= 32; ++cut) {
    SupportInterval s = e.Support(rng.GaussianVector(6));
    ASSERT_GT(s.half_width, 0.0);
    e.CutKeepBelow(s, 0.02);
    ASSERT_EQ(e.has_pending_cut(), cut < 32) << cut;
  }
  EXPECT_EQ(e.cuts_since_symmetrize(), 0);
  EXPECT_EQ(e.shape().MaxAsymmetry(), 0.0);
}

TEST(Ellipsoid, LooksHealthyRejectsNonFiniteOffDiagonalsInBothLayouts) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix dense = Matrix::ScaledIdentity(3, 1.0);
    dense(0, 1) = bad;
    dense(1, 0) = bad;
    EXPECT_FALSE(Ellipsoid(Zeros(3), dense).LooksHealthy()) << "dense " << bad;
    PackedSymMatrix packed = PackedSymMatrix::ScaledIdentity(3, 1.0);
    packed.At(0, 1) = bad;
    EXPECT_FALSE(Ellipsoid(Zeros(3), packed).LooksHealthy()) << "packed " << bad;
  }
  EXPECT_TRUE(Ellipsoid(Zeros(3), Matrix::ScaledIdentity(3, 1.0)).LooksHealthy());
  EXPECT_TRUE(Ellipsoid(Zeros(3), PackedSymMatrix::ScaledIdentity(3, 1.0)).LooksHealthy());
}

}  // namespace
}  // namespace pdm
