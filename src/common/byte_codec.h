#ifndef PDM_COMMON_BYTE_CODEC_H_
#define PDM_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// The one byte codec behind every binary format in the repo: `pdm.wire.v1`
/// frames (server/wire.h), `pdm.snap` session snapshots (broker/snapshot.h)
/// and `pdm.metrics.v1` dumps (metrics/metrics.h).
///
/// Integers travel little-endian at their native width, doubles as raw
/// IEEE-754 bit patterns (exact round trip, NaN-safe), strings and arrays
/// behind a u32 element count. `ByteWriter` appends to a caller-owned
/// buffer; `ByteReader` is a bounds-checked cursor whose every Get reports
/// failure instead of reading past the end, so truncated or hostile input
/// decodes to a clean error, never UB.

namespace pdm {

// The codec copies native object bytes, which is the wire layout only on a
// little-endian host with IEEE-754 doubles (every platform this project
// targets). A port to anything else starts here.
static_assert(std::endian::native == std::endian::little,
              "pdm byte formats are little-endian");
static_assert(std::numeric_limits<double>::is_iec559,
              "pdm byte formats store IEEE-754 doubles");

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutBytes(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  void PutU8(uint8_t v) { PutBytes(&v, sizeof v); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof v); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof v); }
  void PutI32(int32_t v) { PutBytes(&v, sizeof v); }
  void PutI64(int64_t v) { PutBytes(&v, sizeof v); }
  void PutF64(double v) { PutBytes(&v, sizeof v); }

  /// u32 byte count, then the bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  /// u32 element count, then the elements.
  void PutF64Array(std::span<const double> v) {
    PutU32(static_cast<uint32_t>(v.size()));
    PutBytes(v.data(), v.size_bytes());
  }
  void PutU32Array(std::span<const uint32_t> v) {
    PutU32(static_cast<uint32_t>(v.size()));
    PutBytes(v.data(), v.size_bytes());
  }

  /// Reserves a u32 length prefix and returns the cookie for EndLength, so a
  /// length-prefixed region (a wire frame, a snapshot body) is assembled in
  /// place with no intermediate copy.
  size_t BeginLength() {
    size_t cookie = out_->size();
    PutU32(0);
    return cookie;
  }

  /// Patches the prefix reserved by the matching BeginLength with the number
  /// of bytes appended since, and returns a view of those bytes (valid until
  /// the next append).
  std::string_view EndLength(size_t cookie) {
    const size_t start = cookie + sizeof(uint32_t);
    const uint32_t size = static_cast<uint32_t>(out_->size() - start);
    std::memcpy(out_->data() + cookie, &size, sizeof size);
    return std::string_view(*out_).substr(start);
  }

 private:
  std::string* out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetBytes(void* out, size_t size) {
    if (remaining() < size) return false;
    if (size != 0) std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  bool GetU8(uint8_t* v) { return GetBytes(v, sizeof *v); }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof *v); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof *v); }
  bool GetI32(int32_t* v) { return GetBytes(v, sizeof *v); }
  bool GetI64(int64_t* v) { return GetBytes(v, sizeof *v); }
  bool GetF64(double* v) { return GetBytes(v, sizeof *v); }

  /// Length-prefixed string; the view aliases the input bytes.
  bool GetString(std::string_view* s) {
    uint32_t size = 0;
    if (!GetU32(&size) || remaining() < size) return false;
    *s = bytes_.substr(pos_, size);
    pos_ += size;
    return true;
  }
  bool GetString(std::string* s) {
    std::string_view view;
    if (!GetString(&view)) return false;
    s->assign(view);
    return true;
  }

  /// Count-prefixed arrays. The count is checked against the bytes actually
  /// left before resizing, so a hostile count cannot force an allocation.
  bool GetF64Array(std::vector<double>* v) { return GetArray(v); }
  bool GetU32Array(std::vector<uint32_t>* v) { return GetArray(v); }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  bool GetArray(std::vector<T>* v) {
    uint32_t count = 0;
    if (!GetU32(&count) || remaining() / sizeof(T) < count) return false;
    v->resize(count);
    return GetBytes(v->data(), size_t{count} * sizeof(T));
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace pdm

#endif  // PDM_COMMON_BYTE_CODEC_H_
