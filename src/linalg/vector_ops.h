#ifndef PDM_LINALG_VECTOR_OPS_H_
#define PDM_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

/// \file
/// Dense vector type and kernels.
///
/// `Vector` is a plain alias for `std::vector<double>`: the pricing engine's
/// per-round cost is dominated by O(n²) matrix-vector work, and a bare
/// contiguous buffer keeps those loops auto-vectorizable and the API
/// interoperable with the data/feature layers. All operations live in free
/// functions so they read like the paper's math.

namespace pdm {

using Vector = std::vector<double>;

/// Allocates an n-vector of zeros.
Vector Zeros(int n);

/// Allocates an n-vector of ones.
Vector Ones(int n);

/// Standard basis vector e_i in R^n.
Vector BasisVector(int n, int i);

/// Dot product; the vectors must have equal length. Evaluated with a fixed
/// reassociated (SIMD-friendly) 4-accumulator reduction — deterministic per
/// build and machine, equal to the sequential sum up to rounding.
double Dot(const Vector& a, const Vector& b);

/// Raw-buffer overload of Dot for packed panels (DESIGN.md §11); runs the
/// same kernel, so it is bit-identical to the Vector overload on equal
/// contents.
double Dot(const double* a, const double* b, size_t n);

/// *xa ← x·a and *xb ← x·b in one pass over x, as two independent reduction
/// chains; each result is bit-identical to Dot on the same operands
/// (the support pass's midpoint and quadratic form, DESIGN.md §11).
void DotPair(const double* x, const double* a, const double* b, size_t n, double* xa,
             double* xb);

/// Euclidean norm ‖a‖₂.
double Norm2(const Vector& a);

/// Max-absolute-value norm ‖a‖_∞.
double NormInf(const Vector& a);

/// Sum of entries.
double Sum(const Vector& a);

/// In-place a ← s·a.
void ScaleInPlace(Vector* a, double s);

/// In-place y ← y + s·x (BLAS axpy).
void AxpyInPlace(double s, const Vector& x, Vector* y);

/// out ← a + b. `out` is resized to match; steady-state reuse of the same
/// buffer performs no allocation. `out` may alias `a` or `b`.
void AddInto(const Vector& a, const Vector& b, Vector* out);

/// out ← a − b. Same reuse/aliasing contract as AddInto.
void SubInto(const Vector& a, const Vector& b, Vector* out);

/// out ← s·a. Same reuse/aliasing contract as AddInto.
void ScaledInto(const Vector& a, double s, Vector* out);

/// Returns a + b.
Vector Add(const Vector& a, const Vector& b);

/// Returns a − b.
Vector Sub(const Vector& a, const Vector& b);

/// Returns s·a.
Vector Scaled(const Vector& a, double s);

/// Rescales `a` to the target Euclidean norm; a zero vector is returned
/// unchanged. Returns the original norm.
double RescaleToNorm(Vector* a, double target_norm);

}  // namespace pdm

#endif  // PDM_LINALG_VECTOR_OPS_H_
