#include "linalg/vector_ops.h"

#include <cmath>

#include "common/arch.h"
#include "common/check.h"
#include "linalg/lanes.h"

namespace pdm {
namespace {

/// Reassociated 4-accumulator reduction: the strict left-to-right sum chain
/// serializes on FP-add latency and defeats SIMD; four independent partials
/// vectorize cleanly. Fixed association order keeps the result deterministic
/// for a given build and machine.
PDM_TARGET_CLONES
double DotKernel(const double* __restrict a, const double* __restrict b, size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += a[i] * b[i];
    acc[1] += a[i + 1] * b[i + 1];
    acc[2] += a[i + 2] * b[i + 2];
    acc[3] += a[i + 3] * b[i + 3];
  }
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

/// x·a and x·b as two independent chains over one pass of x. Each chain is
/// DotKernel's op sequence (lanes i mod 4, (l0 + l1) + (l2 + l3), ordered
/// tail), so each result is bit-identical to Dot.
template <int kWidth>
[[gnu::always_inline]] inline void DotPairLanes(const double* __restrict x,
                                                const double* __restrict a,
                                                const double* __restrict b, size_t n,
                                                double* xa, double* xb) {
  using L = linalg_internal::Lanes<kWidth>;
  L acc_a = L::Zero();
  L acc_b = L::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const L xi = L::Load(x + i);
    acc_a.AddProduct(xi, L::Load(a + i));
    acc_b.AddProduct(xi, L::Load(b + i));
  }
  double total_a = acc_a.Combine();
  double total_b = acc_b.Combine();
  for (; i < n; ++i) {
    total_a += x[i] * a[i];
    total_b += x[i] * b[i];
  }
  *xa = total_a;
  *xb = total_b;
}

// One definition per dispatch target, as for the mat-vec (matrix.cc).
#if PDM_TARGET_VERSIONS
PDM_TARGET_V3
void DotPairKernel(const double* __restrict x, const double* __restrict a,
                   const double* __restrict b, size_t n, double* xa, double* xb) {
  DotPairLanes<4>(x, a, b, n, xa, xb);
}
#endif

PDM_TARGET_BASELINE
void DotPairKernel(const double* __restrict x, const double* __restrict a,
                   const double* __restrict b, size_t n, double* xa, double* xb) {
  DotPairLanes<2>(x, a, b, n, xa, xb);
}

}  // namespace

Vector Zeros(int n) {
  PDM_CHECK(n >= 0);
  return Vector(static_cast<size_t>(n), 0.0);
}

Vector Ones(int n) {
  PDM_CHECK(n >= 0);
  return Vector(static_cast<size_t>(n), 1.0);
}

Vector BasisVector(int n, int i) {
  PDM_CHECK(n > 0);
  PDM_CHECK(i >= 0 && i < n);
  Vector e(static_cast<size_t>(n), 0.0);
  e[static_cast<size_t>(i)] = 1.0;
  return e;
}

double Dot(const Vector& a, const Vector& b) {
  PDM_DCHECK(a.size() == b.size());
  return DotKernel(a.data(), b.data(), a.size());
}

double Dot(const double* a, const double* b, size_t n) {
  return DotKernel(a, b, n);
}

void DotPair(const double* x, const double* a, const double* b, size_t n, double* xa,
             double* xb) {
  DotPairKernel(x, a, b, n, xa, xb);
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

double NormInf(const Vector& a) {
  double best = 0.0;
  for (double x : a) best = std::max(best, std::fabs(x));
  return best;
}

double Sum(const Vector& a) {
  double acc = 0.0;
  for (double x : a) acc += x;
  return acc;
}

void ScaleInPlace(Vector* a, double s) {
  for (double& x : *a) x *= s;
}

void AxpyInPlace(double s, const Vector& x, Vector* y) {
  PDM_DCHECK(x.size() == y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += s * x[i];
}

void AddInto(const Vector& a, const Vector& b, Vector* out) {
  PDM_DCHECK(a.size() == b.size());
  out->resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] + b[i];
}

void SubInto(const Vector& a, const Vector& b, Vector* out) {
  PDM_DCHECK(a.size() == b.size());
  out->resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] - b[i];
}

void ScaledInto(const Vector& a, double s, Vector* out) {
  out->resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] = s * a[i];
}

Vector Add(const Vector& a, const Vector& b) {
  Vector out;
  AddInto(a, b, &out);
  return out;
}

Vector Sub(const Vector& a, const Vector& b) {
  Vector out;
  SubInto(a, b, &out);
  return out;
}

Vector Scaled(const Vector& a, double s) {
  Vector out;
  ScaledInto(a, s, &out);
  return out;
}

double RescaleToNorm(Vector* a, double target_norm) {
  double norm = Norm2(*a);
  if (norm > 0.0) {
    ScaleInPlace(a, target_norm / norm);
  }
  return norm;
}

}  // namespace pdm
