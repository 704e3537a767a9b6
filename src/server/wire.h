#ifndef PDM_SERVER_WIRE_H_
#define PDM_SERVER_WIRE_H_

#include <cstdint>
#include <string_view>

#include "common/byte_codec.h"
#include "common/status.h"

/// \file
/// The `pdm.wire.v1` framed binary protocol (DESIGN.md §10).
///
/// Every message — request or response — travels as one *frame*: a u32
/// little-endian payload length followed by that many payload bytes. The
/// payload starts with a fixed header (u8 opcode, u64 request id); requests
/// append an op-specific body, responses insert a u8 `pdm::StatusCode` after
/// the header and append either an error message (non-OK) or the op's result
/// body (OK). Ids are client-chosen and echoed verbatim, so clients may
/// pipeline arbitrarily and match responses out of a single read stream.
/// The server answers frames of one connection strictly in arrival order.
///
/// Payloads are written and read with the shared byte codec
/// (common/byte_codec.h): little-endian integers, doubles as raw IEEE-754
/// bit patterns — a quote decoded from the wire is *bit*-identical to the
/// quote the broker produced, which is what makes the loopback replay test's
/// bit-identity pin possible (tests/server_test.cc). A frame is the codec's
/// u32 length prefix (`ByteWriter::BeginLength`/`EndLength`) around one
/// payload. This header adds the opcodes, the header helpers and frame
/// splitting; the server and client assemble op payloads from the codec's
/// primitives, so both sides share one encoding of each.

namespace pdm::server {

/// Protocol identifier (mirrors the JSON schema naming convention).
inline constexpr char kProtocolName[] = "pdm.wire.v1";

/// A frame is `u32 payload_size` + payload.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Upper bound on one payload. Large enough for a 4096-request batch at
/// n = 100; anything bigger is a corrupt or hostile stream and the
/// connection is closed rather than buffered without bound.
inline constexpr size_t kMaxFramePayloadBytes = size_t{4} << 20;

enum class Opcode : uint8_t {
  kResolve = 1,
  kPostPrice = 2,
  kObserve = 3,
  kEstimateValue = 4,
  kPostPrices = 5,
  kObserves = 6,
  kPing = 7,
  /// Returns the server's metric registry as a `pdm.metrics.v1` binary dump
  /// (length-prefixed string body; decode with metrics::DecodeMetricsDump).
  kGetMetrics = 8,
};

/// Quote flag bits on the wire (`Quote::exploratory`/`certain_no_sale`).
inline constexpr uint8_t kQuoteExploratory = 1u << 0;
inline constexpr uint8_t kQuoteCertainNoSale = 1u << 1;

/// True when `code` is a valid request opcode.
bool ValidOpcode(uint8_t code);

/// Round-trips a StatusCode through its wire byte; out-of-range bytes decode
/// to kInvalidArgument (a foreign peer must never crash the decoder).
uint8_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint8_t wire);

/// Request header: u8 opcode, u64 request id.
inline void PutRequestHeader(ByteWriter* w, Opcode op, uint64_t id) {
  w->PutU8(static_cast<uint8_t>(op));
  w->PutU64(id);
}

/// Response header: the request header plus the u8 status code.
inline void PutResponseHeader(ByteWriter* w, Opcode op, uint64_t id, StatusCode code) {
  PutRequestHeader(w, op, id);
  w->PutU8(StatusCodeToWire(code));
}

// ------------------------------------------------------------ frame split

enum class FrameResult {
  kFrame,      ///< one complete frame extracted
  kNeedMore,   ///< buffer holds a partial frame; read more bytes
  kMalformed,  ///< length prefix exceeds kMaxFramePayloadBytes — close
};

/// Examines `buffer` starting at `offset`. On kFrame, `*payload` views the
/// payload bytes inside `buffer` and `*next_offset` is where the following
/// frame starts. The caller owns compaction of consumed bytes.
FrameResult NextFrame(std::string_view buffer, size_t offset,
                      std::string_view* payload, size_t* next_offset);

}  // namespace pdm::server

#endif  // PDM_SERVER_WIRE_H_
