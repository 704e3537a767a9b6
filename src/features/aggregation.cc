#include "features/aggregation.h"

#include <array>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"

namespace pdm {
namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Order-preserving image of a double: unsigned comparison of the keys is
/// numeric comparison of the values, with −0.0 just below +0.0. Negatives
/// flip every bit (larger magnitude, smaller key); non-negatives set the
/// sign bit so they sort above every negative.
uint64_t OrderedKey(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromOrderedKey(uint64_t key) {
  const uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

Vector SortedPartitionFeatures(const Vector& compensations, int n) {
  std::vector<uint64_t> key_scratch;
  Vector features;
  SortedPartitionFeaturesInto(compensations, n, &key_scratch, &features);
  return features;
}

void SortedPartitionFeaturesInto(const Vector& compensations, int n,
                                 std::vector<uint64_t>* key_scratch, Vector* out) {
  const size_t m = compensations.size();
  PDM_CHECK(n >= 1);
  PDM_CHECK(static_cast<size_t>(n) <= m);
  PDM_CHECK(m <= std::numeric_limits<uint32_t>::max());
  PDM_DCHECK(out != &compensations);

  // LSD radix sort over 8-bit digits of the ordered keys. It is stable and
  // exact, so it yields the ascending sequence a comparison sort does (equal
  // values are bit-identical, up to the sign of zero, which cannot change a
  // sum that starts from +0.0) and each partition sums in the same order.
  key_scratch->resize(2 * m);
  uint64_t* keys = key_scratch->data();
  uint64_t* sorted = keys + m;
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (size_t k = 0; k < m; ++k) {
    const uint64_t key = OrderedKey(compensations[k]);
    keys[k] = key;
    for (int digit = 0; digit < 8; ++digit) ++counts[digit][(key >> (8 * digit)) & 0xFF];
  }
  for (int digit = 0; digit < 8; ++digit) {
    const int shift = 8 * digit;
    std::array<uint32_t, 256>& offsets = counts[digit];
    // A digit every key shares leaves the order as it is.
    if (offsets[(keys[0] >> shift) & 0xFF] == m) continue;
    uint32_t total = 0;
    for (uint32_t& slot : offsets) total += std::exchange(slot, total);
    for (size_t k = 0; k < m; ++k) sorted[offsets[(keys[k] >> shift) & 0xFF]++] = keys[k];
    std::swap(keys, sorted);
  }

  out->resize(static_cast<size_t>(n));
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    const size_t begin = m * i / static_cast<size_t>(n);
    const size_t end = m * (i + 1) / static_cast<size_t>(n);
    double acc = 0.0;
    for (size_t k = begin; k < end; ++k) acc += FromOrderedKey(keys[k]);
    (*out)[i] = acc;
  }
}

}  // namespace pdm
