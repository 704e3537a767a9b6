#ifndef PDM_COMMON_CRC32_H_
#define PDM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file
/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// behind the pdm.snap envelope (DESIGN.md §14). Slice-by-8: eight table
/// lookups per 8-byte step, with a byte-at-a-time tail. Every eviction
/// encodes and every fault-in decodes a spill, so the checksum sits on the
/// cold tier's request path: a dim-32 spill (≈ 8.6 KB) checksums in about a
/// fifth of the byte-at-a-time time, to the same value.

namespace pdm {

/// Incremental form: feed `crc` from a previous call (or 0 to start) and the
/// next chunk. The running value is the finalized CRC after every call — no
/// separate finalize step.
uint32_t Crc32(uint32_t crc, const void* data, size_t size);

/// One-shot convenience over a byte string.
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(0, bytes.data(), bytes.size());
}

}  // namespace pdm

#endif  // PDM_COMMON_CRC32_H_
