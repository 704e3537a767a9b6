#ifndef PDM_FEATURES_AGGREGATION_H_
#define PDM_FEATURES_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "linalg/vector_ops.h"

/// \file
/// Sorted-partition aggregation of privacy compensations (Section II-B).
///
/// The paper's feature representation for a query: "sort the privacy
/// compensations, and evenly divide them into n partitions. We sum the
/// privacy compensations falling into a certain partition, and thus obtain a
/// feature." Dimension n controls the aggregation granularity; n = 1 reduces
/// to the total compensation and n = #owners to the identity mapping.

namespace pdm {

/// Returns the n-dimensional aggregated feature vector. Requires
/// 1 ≤ n ≤ compensations.size() and no NaN. The values are ordered
/// ascending; partition i receives indices [⌊i·m/n⌋, ⌊(i+1)·m/n⌋) so sizes
/// differ by at most one, and each partition sums in ascending order. The
/// output preserves total mass: Sum(result) = Sum(input).
Vector SortedPartitionFeatures(const Vector& compensations, int n);

/// Fill-in variant for the per-round hot path, bit-identical to the
/// by-value overload. The ordering is an exact radix sort, not a comparison
/// sort: `key_scratch` is resized to twice the input length and holds the
/// sort's order-preserving integer keys. Reusing both `key_scratch` and
/// `out` across calls makes steady-state calls allocation-free. `out` may
/// not alias `compensations`.
void SortedPartitionFeaturesInto(const Vector& compensations, int n,
                                 std::vector<uint64_t>* key_scratch, Vector* out);

}  // namespace pdm

#endif  // PDM_FEATURES_AGGREGATION_H_
