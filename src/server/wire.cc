#include "server/wire.h"

namespace pdm::server {

bool ValidOpcode(uint8_t code) {
  return code >= static_cast<uint8_t>(Opcode::kResolve) &&
         code <= static_cast<uint8_t>(Opcode::kGetMetrics);
}

uint8_t StatusCodeToWire(StatusCode code) { return static_cast<uint8_t>(code); }

StatusCode StatusCodeFromWire(uint8_t wire) {
  if (wire > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return StatusCode::kInvalidArgument;
  }
  return static_cast<StatusCode>(wire);
}

FrameResult NextFrame(std::string_view buffer, size_t offset,
                      std::string_view* payload, size_t* next_offset) {
  ByteReader r(buffer.substr(offset));
  uint32_t size;
  if (!r.GetU32(&size)) return FrameResult::kNeedMore;
  if (size > kMaxFramePayloadBytes) return FrameResult::kMalformed;
  if (r.remaining() < size) return FrameResult::kNeedMore;
  *payload = buffer.substr(offset + kFrameHeaderBytes, size);
  *next_offset = offset + kFrameHeaderBytes + size;
  return FrameResult::kFrame;
}

}  // namespace pdm::server
