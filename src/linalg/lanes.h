#ifndef PDM_LINALG_LANES_H_
#define PDM_LINALG_LANES_H_

#include <cstring>

/// \file
/// The four reduction lanes of every linalg dot product, as GCC
/// vector-extension values (linalg-internal; not part of pdm.h).
///
/// Every dense reduction in this layer (DotKernel, RowDot) sums lane
/// l = i mod 4 on its own, combines (l0 + l1) + (l2 + l3) and then adds the
/// n mod 4 tail in order. `Lanes` holds one reduction's four lanes, so a
/// kernel can keep several reductions in flight as independent add chains
/// (a block of rows, four queries over one row, or two dots over one
/// operand) while each one performs exactly that op sequence. The same
/// values carry four entries of A through the cut's rank-one update
/// (ScaleRankOne, Store) on their way into a dot.
///
/// kWidth is the number of doubles per vector value, chosen per dispatch
/// target (common/arch.h): 4 — one 32-byte register — on x86-64-v3, and 2 —
/// a pair of 16-byte registers — on the baseline. A 32-byte vector has no
/// register on the baseline target; it lives on the stack, and a kernel
/// built on it ran 0.5–0.8× as fast as the scalar loop it replaces. The
/// lanes are the same at either width, and so are the bits. Loads go through
/// std::memcpy (an unaligned vector load), never through a pointer cast, and
/// so do stores.
///
/// Every function here is always_inline: a helper compiled out of line
/// would be compiled once, for the baseline target, and a v3 caller would
/// call into it instead of inlining its own ymm code.

namespace pdm::linalg_internal {

template <int kWidth>
struct Lanes {
  static_assert(kWidth == 2 || kWidth == 4, "a lane group is 2 or 4 doubles wide");
  typedef double V __attribute__((vector_size(kWidth * sizeof(double))));
  static constexpr int kParts = 4 / kWidth;

  V part[kParts];

  [[gnu::always_inline]] static Lanes Zero() {
    Lanes z;
    for (V& p : z.part) p = V{};
    return z;
  }

  /// Lanes 0..3 of p[0..3].
  [[gnu::always_inline]] static Lanes Load(const double* p) {
    Lanes v;
    for (int i = 0; i < kParts; ++i) std::memcpy(&v.part[i], p + i * kWidth, sizeof(V));
    return v;
  }

  /// p[0..3] ← lanes 0..3.
  [[gnu::always_inline]] void Store(double* p) const {
    for (int i = 0; i < kParts; ++i) std::memcpy(p + i * kWidth, &part[i], sizeof(V));
  }

  /// Lane-wise this += a·b: four independent multiply-then-add steps.
  [[gnu::always_inline]] void AddProduct(const Lanes& a, const Lanes& b) {
    for (int i = 0; i < kParts; ++i) part[i] += a.part[i] * b.part[i];
  }

  /// Lane-wise this ← factor·(this − s·b): one entry of the rank-one cut
  /// update per lane, multiply, subtract, multiply, as the scalar
  /// expression.
  [[gnu::always_inline]] void ScaleRankOne(double factor, double s, const Lanes& b) {
    for (int i = 0; i < kParts; ++i) part[i] = factor * (part[i] - s * b.part[i]);
  }

  [[gnu::always_inline]] double Lane(int l) const { return part[l / kWidth][l % kWidth]; }

  /// (l0 + l1) + (l2 + l3).
  [[gnu::always_inline]] double Combine() const {
    return (Lane(0) + Lane(1)) + (Lane(2) + Lane(3));
  }
};

/// y[i] ← acc[i].Combine() for four reductions at once. The lanes are
/// transposed with register shuffles — pair sums (l0 + l1) and (l2 + l3) of
/// two reductions per vector add, then one add of the two halves — instead
/// of being stored and reloaded one double at a time. The adds are
/// Combine()'s, operand for operand.
template <int kWidth>
[[gnu::always_inline]] inline void CombineFour(const Lanes<kWidth> (&acc)[4], double* y) {
  using V = typename Lanes<kWidth>::V;
  if constexpr (kWidth == 4) {
    const V a = acc[0].part[0], b = acc[1].part[0], c = acc[2].part[0], d = acc[3].part[0];
    // {a: l0+l1, b: l0+l1, a: l2+l3, b: l2+l3}, and likewise for c, d.
    const V ab = V{a[0], b[0], a[2], b[2]} + V{a[1], b[1], a[3], b[3]};
    const V cd = V{c[0], d[0], c[2], d[2]} + V{c[1], d[1], c[3], d[3]};
    const V total = V{ab[0], ab[1], cd[0], cd[1]} + V{ab[2], ab[3], cd[2], cd[3]};
    std::memcpy(y, &total, sizeof total);
  } else {
    for (int i = 0; i < 4; i += 2) {
      const V* a = acc[i].part;
      const V* b = acc[i + 1].part;
      const V low = V{a[0][0], b[0][0]} + V{a[0][1], b[0][1]};   // l0 + l1
      const V high = V{a[1][0], b[1][0]} + V{a[1][1], b[1][1]};  // l2 + l3
      const V total = low + high;
      std::memcpy(y + i, &total, sizeof total);
    }
  }
}

}  // namespace pdm::linalg_internal

#endif  // PDM_LINALG_LANES_H_
