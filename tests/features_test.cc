#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "data/airbnb_like.h"
#include "features/aggregation.h"
#include "features/airbnb_features.h"
#include "features/categorical.h"
#include "features/hashing.h"
#include "features/pca.h"
#include "features/scaler.h"
#include "rng/rng.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- aggregation

TEST(SortedPartition, PreservesTotalMass) {
  Rng rng(1);
  Vector comps = rng.UniformVector(97, 0.0, 2.0);
  for (int n : {1, 2, 7, 20, 97}) {
    Vector features = SortedPartitionFeatures(comps, n);
    ASSERT_EQ(static_cast<int>(features.size()), n);
    EXPECT_NEAR(Sum(features), Sum(comps), 1e-9) << "n=" << n;
  }
}

TEST(SortedPartition, SingleFeatureIsTotal) {
  Vector comps{3.0, 1.0, 2.0};
  EXPECT_EQ(SortedPartitionFeatures(comps, 1), (Vector{6.0}));
}

TEST(SortedPartition, FullDimIsSortedInput) {
  Vector comps{3.0, 1.0, 2.0};
  EXPECT_EQ(SortedPartitionFeatures(comps, 3), (Vector{1.0, 2.0, 3.0}));
}

TEST(SortedPartition, EqualSizedPartitionsSumCorrectly) {
  Vector comps{4.0, 3.0, 2.0, 1.0};  // sorted: 1 2 3 4
  EXPECT_EQ(SortedPartitionFeatures(comps, 2), (Vector{3.0, 7.0}));
}

TEST(SortedPartition, PartitionsNondecreasingForEqualSizes) {
  Rng rng(2);
  Vector comps = rng.UniformVector(100, 0.0, 1.0);
  Vector features = SortedPartitionFeatures(comps, 10);
  for (size_t i = 1; i < features.size(); ++i) {
    EXPECT_GE(features[i], features[i - 1]);
  }
}

/// The comparison-sort aggregation the features must reproduce bit for bit:
/// sort ascending with std::sort, then sum each partition in index order.
Vector ComparisonSortPartitionFeatures(Vector values, int n) {
  std::sort(values.begin(), values.end());
  const int64_t m = static_cast<int64_t>(values.size());
  Vector out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t k = m * i / n; k < m * (i + 1) / n; ++k) {
      acc += values[static_cast<size_t>(k)];
    }
    out[static_cast<size_t>(i)] = acc;
  }
  return out;
}

TEST(SortedPartition, MatchesTheComparisonSortByteForByte) {
  Rng rng(17);
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<std::pair<const char*, Vector>> inputs;
  inputs.emplace_back("all-equal", Vector(64, 0.75));
  Vector tied(301);
  for (double& v : tied) v = 0.25 * static_cast<double>(rng.NextUint64(4));
  inputs.emplace_back("heavily-tied", tied);
  Vector zeros;
  for (int k = 0; k < 90; ++k) {
    zeros.push_back(k % 3 == 0 ? 0.0 : k % 3 == 1 ? -0.0 : rng.NextUniform(-1.0, 1.0));
  }
  inputs.emplace_back("signed-zeros", zeros);
  inputs.emplace_back("only-signed-zeros", Vector{-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0});
  Vector subnormal;
  for (int k = 0; k < 120; ++k) {
    double v = denorm * static_cast<double>(rng.NextUint64(1u << 20));
    if (k % 4 == 0) v = -v;
    if (k % 10 == 0) v = std::numeric_limits<double>::min();
    subnormal.push_back(v);
  }
  inputs.emplace_back("subnormals", subnormal);
  Vector binades;
  for (int k = 0; k < 257; ++k) {
    int exponent = static_cast<int>(rng.NextUint64(1201)) - 600;
    double v = std::ldexp(rng.NextUniform(1.0, 2.0), exponent);
    binades.push_back(rng.NextBernoulli(0.5) ? -v : v);
  }
  inputs.emplace_back("many-binades", binades);
  inputs.emplace_back("negative", rng.UniformVector(199, -5.0, -1e-3));
  // The production shape: 2000 owners' compensations in [0, 1.5).
  inputs.emplace_back("compensations", rng.UniformVector(2000, 0.0, 1.5));

  for (const auto& [label, values] : inputs) {
    const int m = static_cast<int>(values.size());
    for (int n : {1, 2, 3, 7, 20, 100, m - 1, m}) {
      if (n < 1 || n > m) continue;
      Vector actual = SortedPartitionFeatures(values, n);
      Vector expected = ComparisonSortPartitionFeatures(values, n);
      ASSERT_EQ(actual.size(), expected.size()) << label << " n=" << n;
      EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                            actual.size() * sizeof(double)),
                0)
          << label << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------- scaler

TEST(L2Normalize, UnitNormAfter) {
  Vector x{3.0, 4.0};
  double norm = L2NormalizeInPlace(&x);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(Norm2(x), 1.0, 1e-12);
}

TEST(L2Normalize, ZeroVectorUntouched) {
  Vector x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(L2NormalizeInPlace(&x), 0.0);
  EXPECT_EQ(x, (Vector{0.0, 0.0}));
}

TEST(StandardScaler, CentersAndScales) {
  Matrix rows = Matrix::FromRows({{1.0, 10.0}, {3.0, 10.0}});
  StandardScaler scaler;
  scaler.Fit(rows);
  EXPECT_DOUBLE_EQ(scaler.means()[0], 2.0);
  Vector z = scaler.Transform({3.0, 10.0});
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  // Constant column: centered but not divided by zero.
  EXPECT_DOUBLE_EQ(z[1], 0.0);
}

TEST(StandardScaler, TransformRowsMatchesTransform) {
  Rng rng(3);
  Matrix rows(20, 4);
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 4; ++c) rows(r, c) = rng.NextGaussian(5.0, 2.0);
  }
  StandardScaler scaler;
  scaler.Fit(rows);
  Matrix transformed = scaler.TransformRows(rows);
  Vector row5 = scaler.Transform(rows.Row(5));
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(transformed(5, c), row5[static_cast<size_t>(c)], 1e-12);
  }
}

// ---------------------------------------------------------------- categorical

TEST(Categorical, CodesInFirstSeenOrder) {
  CategoricalCodebook book;
  book.Fit({"b", "a", "b", "c"});
  EXPECT_EQ(book.num_categories(), 3);
  EXPECT_EQ(book.CodeOf("b"), 0);
  EXPECT_EQ(book.CodeOf("a"), 1);
  EXPECT_EQ(book.CodeOf("c"), 2);
  EXPECT_EQ(book.CategoryOf(1), "a");
}

TEST(Categorical, MissingAndUnseenAreMinusOne) {
  CategoricalCodebook book;
  book.Fit({"x", "", "y"});
  EXPECT_EQ(book.num_categories(), 2);
  EXPECT_EQ(book.CodeOf(""), -1);
  EXPECT_EQ(book.CodeOf("zzz"), -1);
}

TEST(Categorical, TransformVectorized) {
  CategoricalCodebook book;
  book.Fit({"a", "b"});
  EXPECT_EQ(book.Transform({"b", "", "a", "c"}), (std::vector<int>{1, -1, 0, -1}));
}

TEST(Categorical, OneHotInto) {
  CategoricalCodebook book;
  book.Fit({"a", "b", "c"});
  std::vector<double> out(5, 0.0);
  int width = book.OneHotInto("b", &out, 1);
  EXPECT_EQ(width, 3);
  EXPECT_EQ(out, (std::vector<double>{0, 0, 1, 0, 0}));
  // Missing contributes nothing.
  std::vector<double> out2(5, 0.0);
  book.OneHotInto("", &out2, 1);
  EXPECT_EQ(out2, (std::vector<double>{0, 0, 0, 0, 0}));
}

// ---------------------------------------------------------------- hashing

TEST(Hashing, DeterministicAcrossInstances) {
  HashingFeaturizer a(128), b(128);
  EXPECT_EQ(a.SlotOf(3, 42), b.SlotOf(3, 42));
}

TEST(Hashing, SlotsInRange) {
  HashingFeaturizer h(64);
  for (int f = 0; f < 10; ++f) {
    for (int64_t v = 0; v < 100; ++v) {
      int32_t slot = h.SlotOf(f, v);
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, 64);
    }
  }
}

TEST(Hashing, FeaturizeSortedAndAccumulates) {
  HashingFeaturizer h(16);
  std::vector<std::pair<int, int64_t>> fields;
  for (int f = 0; f < 8; ++f) fields.push_back({f, f * 7});
  SparseVector sv = h.Featurize(fields);
  for (size_t k = 1; k < sv.indices.size(); ++k) {
    EXPECT_GT(sv.indices[k], sv.indices[k - 1]);
  }
  // Total contribution equals the number of fields (collisions accumulate).
  EXPECT_NEAR(Sum(sv.values), 8.0, 1e-12);
}

TEST(Hashing, SignedHashProducesBothSigns) {
  HashingFeaturizer h(4096, /*signed_hash=*/true);
  int positive = 0, negative = 0;
  for (int64_t v = 0; v < 200; ++v) {
    SparseVector sv = h.Featurize({{0, v}});
    ASSERT_EQ(sv.nnz(), 1);
    (sv.values[0] > 0 ? positive : negative)++;
  }
  EXPECT_GT(positive, 50);
  EXPECT_GT(negative, 50);
}

TEST(Fnv1a64, KnownStability) {
  // Same content hashes identically; different content differs.
  EXPECT_EQ(Fnv1a64("3:42"), Fnv1a64("3:42"));
  EXPECT_NE(Fnv1a64("3:42"), Fnv1a64("3:43"));
}

// ---------------------------------------------------------------- pca

TEST(Pca, RecoversDominantDirection) {
  // Points along (1,1)/√2 with small orthogonal noise.
  Rng rng(4);
  Matrix rows(200, 2);
  for (int r = 0; r < 200; ++r) {
    double t = rng.NextGaussian(0.0, 3.0);
    double s = rng.NextGaussian(0.0, 0.1);
    rows(r, 0) = t + s;
    rows(r, 1) = t - s;
  }
  Pca pca;
  pca.Fit(rows, 1);
  Vector dir = pca.components().Row(0);
  EXPECT_NEAR(std::fabs(dir[0]), std::sqrt(0.5), 0.05);
  EXPECT_NEAR(std::fabs(dir[1]), std::sqrt(0.5), 0.05);
  EXPECT_GT(pca.explained_variance()[0], 8.0);
}

TEST(Pca, ComponentsOrthonormal) {
  Rng rng(5);
  Matrix rows(100, 5);
  for (int r = 0; r < 100; ++r) {
    for (int c = 0; c < 5; ++c) rows(r, c) = rng.NextGaussian();
  }
  Pca pca;
  pca.Fit(rows, 3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double dot = Dot(pca.components().Row(i), pca.components().Row(j));
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(Pca, ExplainedVarianceDescending) {
  Rng rng(6);
  Matrix rows(80, 4);
  for (int r = 0; r < 80; ++r) {
    for (int c = 0; c < 4; ++c) rows(r, c) = rng.NextGaussian(0.0, 1.0 + c);
  }
  Pca pca;
  pca.Fit(rows, 4);
  for (size_t k = 1; k < pca.explained_variance().size(); ++k) {
    EXPECT_GE(pca.explained_variance()[k - 1], pca.explained_variance()[k]);
  }
}

TEST(Pca, TransformCentersData) {
  Matrix rows = Matrix::FromRows({{1.0, 0.0}, {3.0, 0.0}});
  Pca pca;
  pca.Fit(rows, 1);
  Vector projected = pca.Transform({2.0, 0.0});  // the mean
  EXPECT_NEAR(projected[0], 0.0, 1e-10);
}

// ---------------------------------------------------------------- airbnb 55

TEST(AirbnbFeatures, DimensionIs55) {
  AirbnbLikeConfig config;
  config.num_listings = 200;
  Rng rng(7);
  Table listings = GenerateAirbnbLikeListings(config, &rng);
  AirbnbFeatureSpace space;
  space.Fit(listings);
  Vector x = space.FeaturesForRow(listings, 0);
  EXPECT_EQ(x.size(), 55u);
  EXPECT_EQ(space.FeatureNames().size(), 55u);
  EXPECT_EQ(AirbnbFeatureSpace::kDim, 55);
}

TEST(AirbnbFeatures, BiasAndCodesLayout) {
  AirbnbLikeConfig config;
  config.num_listings = 300;
  Rng rng(8);
  Table listings = GenerateAirbnbLikeListings(config, &rng);
  AirbnbFeatureSpace space;
  space.Fit(listings);
  for (int64_t r = 0; r < 50; ++r) {
    Vector x = space.FeaturesForRow(listings, r);
    EXPECT_DOUBLE_EQ(x[0], 1.0);  // bias
    // Integer codes within the schema cardinalities.
    EXPECT_GE(x[1], 0.0);
    EXPECT_LT(x[1], 6.0);
    EXPECT_GE(x[2], 0.0);
    EXPECT_LT(x[2], 3.0);
    EXPECT_GE(x[3], 0.0);
    EXPECT_LT(x[3], 3.0);
    EXPECT_DOUBLE_EQ(x[1], std::floor(x[1]));  // codes are integers
    // First interaction column is city_code × room_code.
    EXPECT_DOUBLE_EQ(x[21], x[1] * x[2]);
  }
}

TEST(AirbnbFeatures, FeaturesAreDense) {
  // Paper-style integer-coded features: every booking request informs every
  // weight, so most columns should be non-zero on most rows.
  AirbnbLikeConfig config;
  config.num_listings = 500;
  Rng rng(12);
  Table listings = GenerateAirbnbLikeListings(config, &rng);
  AirbnbFeatureSpace space;
  space.Fit(listings);
  Matrix m = space.FeatureMatrix(listings);
  int64_t nonzero = 0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (m(r, c) != 0.0) ++nonzero;
    }
  }
  double density = static_cast<double>(nonzero) /
                   (static_cast<double>(m.rows()) * static_cast<double>(m.cols()));
  EXPECT_GT(density, 0.55);
}

TEST(AirbnbFeatures, MissingResponseRateImputedWithIndicator) {
  AirbnbLikeConfig config;
  config.num_listings = 3000;
  Rng rng(9);
  Table listings = GenerateAirbnbLikeListings(config, &rng);
  AirbnbFeatureSpace space;
  space.Fit(listings);
  bool found_missing = false;
  for (int64_t r = 0; r < listings.num_rows() && !found_missing; ++r) {
    if (std::isnan(listings.column("host_response_rate").DoubleAt(r))) {
      found_missing = true;
      Vector x = space.FeaturesForRow(listings, r);
      // Numeric block starts at 4; response at offset 4+4, indicator at 4+5.
      EXPECT_DOUBLE_EQ(x[9], 1.0);
      EXPECT_TRUE(std::isfinite(x[8]));
    }
  }
  EXPECT_TRUE(found_missing);
}

TEST(AirbnbFeatures, MatrixMatchesPerRow) {
  AirbnbLikeConfig config;
  config.num_listings = 50;
  Rng rng(10);
  Table listings = GenerateAirbnbLikeListings(config, &rng);
  AirbnbFeatureSpace space;
  space.Fit(listings);
  Matrix m = space.FeatureMatrix(listings);
  Vector x7 = space.FeaturesForRow(listings, 7);
  for (int c = 0; c < 55; ++c) {
    EXPECT_DOUBLE_EQ(m(7, c), x7[static_cast<size_t>(c)]);
  }
}

}  // namespace
}  // namespace pdm
