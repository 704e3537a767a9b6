#include "broker/snapshot.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/crc32.h"

namespace pdm::broker {
namespace {

/// Envelope (DESIGN.md §14): 8-byte magic (kSnapshotMagic), u32 version,
/// u32 body size, the body, u32 CRC-32 of the body. The magic doubles as a
/// format sentinel: a foreign blob fails fast on its first bytes.
constexpr uint32_t kVersion = 2;

/// The body opens with this tag and version (the magic of the format before
/// the envelope existed), kept so spill bytes stay unchanged.
constexpr char kBodyTag[8] = {'P', 'D', 'M', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kBodyTagVersion = 1;

/// Section markers between the pending table, the ticket table and the
/// value totals.
constexpr uint8_t kTicketTableSection = 1;
constexpr uint8_t kValueTotalsSection = 2;

/// Smallest encoded pending ticket (an empty support direction).
constexpr size_t kMinPendingBytes = 8 + 4 + 8 + 8 + 1 + 4 * 8 + 4;

/// The shape matrix travels as raw row-major doubles after its i32 rows and
/// cols (no count prefix of its own).
size_t ShapeBytes(const Matrix& m) {
  return static_cast<size_t>(m.rows()) * static_cast<size_t>(m.cols()) * sizeof(double);
}

/// Parses the body inside a verified envelope. Any structural damage is
/// InvalidArgument: the checksum held, so the writer produced these bytes.
Status DecodeBody(std::string_view body, SessionSnapshot* snap) {
  ByteReader r(body);
  char tag[sizeof kBodyTag] = {};
  uint32_t tag_version = 0;
  if (!r.GetBytes(tag, sizeof tag) || std::memcmp(tag, kBodyTag, sizeof tag) != 0 ||
      !r.GetU32(&tag_version) || tag_version != kBodyTagVersion) {
    return Status::InvalidArgument("bad pdm.snap body header");
  }
  EngineSnapshot& e = snap->engine;
  int32_t dim = 0, rows = 0, cols = 0, cuts = 0;
  if (!r.GetString(&snap->product) || !r.GetString(&e.engine) || !r.GetI32(&dim) ||
      !r.GetF64(&e.epsilon) || !r.GetF64(&e.delta) || !r.GetF64Array(&e.center) ||
      !r.GetI32(&rows) || !r.GetI32(&cols)) {
    return Status::InvalidArgument("truncated engine state");
  }
  if (dim < 0 || rows < 0 || cols < 0 ||
      static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) >
          r.remaining() / sizeof(double)) {
    return Status::InvalidArgument("implausible engine geometry");
  }
  e.dim = dim;
  e.shape = Matrix(rows, cols);
  EngineCounters& c = e.counters;
  if (!r.GetBytes(e.shape.data(), ShapeBytes(e.shape)) || !r.GetI32(&cuts) ||
      !r.GetF64(&e.lo) || !r.GetF64(&e.hi) || !r.GetI64(&c.rounds) ||
      !r.GetI64(&c.exploratory_rounds) || !r.GetI64(&c.conservative_rounds) ||
      !r.GetI64(&c.skipped_rounds) || !r.GetI64(&c.cuts_applied) ||
      !r.GetI64(&c.cuts_discarded)) {
    return Status::InvalidArgument("truncated engine state");
  }
  e.cuts_since_symmetrize = cuts;

  uint32_t pending_count = 0;
  if (!r.GetI64(&snap->quotes_issued) || !r.GetI64(&snap->feedback_received) ||
      !r.GetU32(&pending_count)) {
    return Status::InvalidArgument("truncated session state");
  }
  if (pending_count > r.remaining() / kMinPendingBytes) {
    return Status::InvalidArgument("implausible pending-ticket count");
  }
  snap->pending.resize(pending_count);
  for (PendingTicketState& p : snap->pending) {
    uint8_t wrapped_skip = 0;
    if (!r.GetU64(&p.ticket) || !r.GetI32(&p.cut.kind) || !r.GetF64(&p.cut.price) ||
        !r.GetF64(&p.cut.x) || !r.GetU8(&wrapped_skip) ||
        !r.GetF64(&p.cut.support.lower) || !r.GetF64(&p.cut.support.upper) ||
        !r.GetF64(&p.cut.support.half_width) || !r.GetF64(&p.cut.support.midpoint) ||
        !r.GetF64Array(&p.cut.support.direction)) {
      return Status::InvalidArgument("truncated pending ticket");
    }
    p.cut.wrapped_skip = wrapped_skip != 0;
  }

  uint8_t section = 0;
  if (!r.GetU8(&section) || section != kTicketTableSection ||
      !r.GetU32Array(&snap->slot_generations) || !r.GetU32Array(&snap->free_slots) ||
      !r.GetI64(&snap->slots_retired)) {
    return Status::InvalidArgument("truncated ticket-table section");
  }
  uint32_t price_count = 0;
  if (!r.GetU8(&section) || section != kValueTotalsSection ||
      !r.GetF64(&snap->posted_value) || !r.GetF64(&snap->accepted_value) ||
      !r.GetU32(&price_count)) {
    return Status::InvalidArgument("truncated value-accounting section");
  }
  if (price_count != pending_count) {
    return Status::InvalidArgument(
        "value-accounting section does not match the pending table");
  }
  for (PendingTicketState& p : snap->pending) {
    if (!r.GetF64(&p.posted_price)) {
      return Status::InvalidArgument("truncated value-accounting section");
    }
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes in snapshot body");
  return Status::Ok();
}

}  // namespace

std::string EncodeSessionSnapshot(const SessionSnapshot& snapshot) {
  std::string out;
  AppendSessionSnapshot(snapshot, &out);
  return out;
}

void AppendSessionSnapshot(const SessionSnapshot& snapshot, std::string* out) {
  ByteWriter w(out);
  w.PutBytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  w.PutU32(kVersion);
  const size_t body = w.BeginLength();
  w.PutBytes(kBodyTag, sizeof kBodyTag);
  w.PutU32(kBodyTagVersion);
  w.PutString(snapshot.product);
  // Engine state.
  const EngineSnapshot& e = snapshot.engine;
  w.PutString(e.engine);
  w.PutI32(e.dim);
  w.PutF64(e.epsilon);
  w.PutF64(e.delta);
  w.PutF64Array(e.center);
  w.PutI32(e.shape.rows());
  w.PutI32(e.shape.cols());
  w.PutBytes(e.shape.data(), ShapeBytes(e.shape));
  w.PutI32(e.cuts_since_symmetrize);
  w.PutF64(e.lo);
  w.PutF64(e.hi);
  w.PutI64(e.counters.rounds);
  w.PutI64(e.counters.exploratory_rounds);
  w.PutI64(e.counters.conservative_rounds);
  w.PutI64(e.counters.skipped_rounds);
  w.PutI64(e.counters.cuts_applied);
  w.PutI64(e.counters.cuts_discarded);
  // Session state.
  w.PutI64(snapshot.quotes_issued);
  w.PutI64(snapshot.feedback_received);
  w.PutU32(static_cast<uint32_t>(snapshot.pending.size()));
  for (const PendingTicketState& p : snapshot.pending) {
    w.PutU64(p.ticket);
    w.PutI32(p.cut.kind);
    w.PutF64(p.cut.price);
    w.PutF64(p.cut.x);
    w.PutU8(p.cut.wrapped_skip ? 1 : 0);
    w.PutF64(p.cut.support.lower);
    w.PutF64(p.cut.support.upper);
    w.PutF64(p.cut.support.half_width);
    w.PutF64(p.cut.support.midpoint);
    w.PutF64Array(p.cut.support.direction);
  }
  w.PutU8(kTicketTableSection);
  w.PutU32Array(snapshot.slot_generations);
  w.PutU32Array(snapshot.free_slots);
  w.PutI64(snapshot.slots_retired);
  w.PutU8(kValueTotalsSection);
  w.PutF64(snapshot.posted_value);
  w.PutF64(snapshot.accepted_value);
  w.PutU32(static_cast<uint32_t>(snapshot.pending.size()));
  for (const PendingTicketState& p : snapshot.pending) w.PutF64(p.posted_price);
  w.PutU32(Crc32(w.EndLength(body)));
}

Status DecodeSessionSnapshot(std::string_view bytes, SessionSnapshot* out) {
  if (out == nullptr) return Status::InvalidArgument("null snapshot output");
  ByteReader envelope(bytes);
  char magic[kSnapshotMagic.size()] = {};
  if (!envelope.GetBytes(magic, sizeof magic) ||
      std::string_view(magic, sizeof magic) != kSnapshotMagic) {
    return Status::InvalidArgument("not a pdm.snap document (bad magic)");
  }
  // Envelope damage (truncation, padding, checksum mismatch) is DataLoss —
  // the bytes are provably not what the encoder wrote — while a foreign
  // version number is InvalidArgument like any other unsupported document.
  uint32_t version = 0;
  if (!envelope.GetU32(&version) || envelope.remaining() < 2 * sizeof(uint32_t)) {
    return Status::DataLoss("truncated pdm.snap envelope");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported pdm.snap version " +
                                   std::to_string(version));
  }
  // The size-prefixed body reads like a string; the CRC must end the bytes.
  std::string_view body;
  uint32_t crc = 0;
  if (!envelope.GetString(&body) || !envelope.GetU32(&crc) || !envelope.AtEnd()) {
    return Status::DataLoss(
        "pdm.snap envelope size mismatch (truncated or padded spill)");
  }
  if (Crc32(body) != crc) return Status::DataLoss("pdm.snap checksum mismatch");
  SessionSnapshot snap;
  Status decoded = DecodeBody(body, &snap);
  if (!decoded.ok()) return decoded;
  *out = std::move(snap);
  return Status::Ok();
}

}  // namespace pdm::broker
