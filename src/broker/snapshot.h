#ifndef PDM_BROKER_SNAPSHOT_H_
#define PDM_BROKER_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "pricing/engine_state.h"

/// \file
/// Serialized session state for checkpoint, migration and the cold tier
/// (DESIGN.md §9, §12, §14).
///
/// A `SessionSnapshot` is everything a `PricingSession` needs to resume
/// exactly where it left off: the engine's knowledge set and counters
/// (`EngineSnapshot`), the session-level counters, every quote still
/// awaiting feedback (ticket id, posted price, posting-time cut context),
/// the ticket-slot allocator, and the value totals.
/// `EncodeSessionSnapshot`/`DecodeSessionSnapshot` give it one byte format,
/// `pdm.snap`: a checksummed envelope (magic `PDMSNAP2`, u32 version, u32
/// body size, body, u32 CRC-32 of the body) around a body written with the
/// shared byte codec (common/byte_codec.h). Doubles travel as raw IEEE-754
/// bit patterns, so a decode → encode round trip is byte-identical and a
/// restored engine is *bit*-identical (no decimal round-tripping anywhere).
/// The same bytes serve checkpoints and on-disk spills: a torn write or bit
/// flip fails decode with DataLoss instead of restoring a silently wrong
/// knowledge set.

namespace pdm::broker {

/// One quote awaiting feedback at snapshot time.
struct PendingTicketState {
  uint64_t ticket = 0;
  /// Value-space posted price, the regret-proxy input (DESIGN.md §13).
  /// `cut.price` cannot stand in for it: wrapped engines store link space.
  double posted_price = 0.0;
  PendingCut cut;
};

/// Full resumable state of one pricing session.
struct SessionSnapshot {
  /// Product the session was serving when snapshotted (informational: a
  /// snapshot may be restored under a different product name).
  std::string product;
  EngineSnapshot engine;
  int64_t quotes_issued = 0;
  int64_t feedback_received = 0;
  /// Outstanding tickets in issue order. Their ids embed the session's
  /// ticket base and slot index, so restoring into a broker slot with a
  /// different base requires draining feedback first (see
  /// PricingSession::Restore).
  std::vector<PendingTicketState> pending;
  /// Ticket-slot allocator state. Restore reproduces the slot table exactly
  /// — free-slot generations, recycle-stack order, retired count — so a
  /// restored session issues *bit-identical* future tickets to the
  /// uninterrupted original (the cold-tier eviction contract, DESIGN.md
  /// §12). For slots holding a pending ticket the ticket's own generation
  /// bits stay authoritative — `slot_generations` matters for the free and
  /// retired slots the pending list cannot describe.
  /// Per-slot generation, index-aligned with the session's slot table.
  std::vector<uint32_t> slot_generations;
  /// The recycle stack (indices into the slot table), bottom first.
  std::vector<uint32_t> free_slots;
  /// Slots permanently retired at the generation bound.
  int64_t slots_retired = 0;
  /// Cumulative value-space posted/accepted totals (the regret-proxy
  /// inputs, DESIGN.md §13).
  double posted_value = 0.0;
  double accepted_value = 0.0;
};

/// Envelope framing, for readers that walk envelopes laid back to back (the
/// cold tier's pack files, broker/spill_store.h): the 8-byte magic, u32
/// version and u32 body size come before the body, its u32 CRC after it.
inline constexpr std::string_view kSnapshotMagic{"PDMSNAP2", 8};
inline constexpr size_t kSnapshotHeaderBytes = 16;
inline constexpr size_t kSnapshotTrailerBytes = 4;

/// Serializes to the `pdm.snap` byte format.
std::string EncodeSessionSnapshot(const SessionSnapshot& snapshot);

/// Appends the `pdm.snap` bytes of `snapshot` to `out`.
void AppendSessionSnapshot(const SessionSnapshot& snapshot, std::string* out);

/// Parses bytes produced by EncodeSessionSnapshot. Errors: InvalidArgument
/// for a bad magic, an unsupported version, or a structurally bad body
/// inside an intact envelope; DataLoss when the envelope is truncated,
/// padded, or fails its checksum.
Status DecodeSessionSnapshot(std::string_view bytes, SessionSnapshot* out);

}  // namespace pdm::broker

#endif  // PDM_BROKER_SNAPSHOT_H_
