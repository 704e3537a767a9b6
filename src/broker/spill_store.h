#ifndef PDM_BROKER_SPILL_STORE_H_
#define PDM_BROKER_SPILL_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "broker/snapshot.h"

/// \file
/// The cold tier's file-system layer (DESIGN.md §12, §14). Every byte the
/// broker spills, reads back, retires or quarantines goes through one
/// `SpillStore`; `broker.cc` makes no spill syscall of its own.
///
/// Layout. An eviction wave lands as ONE pack file, `pack-<n>.snap`: the
/// victims' unchanged `pdm.snap` envelopes back to back, written to
/// `pack-<n>.snap.tmp`, fsynced, renamed, and made durable by one fsync of
/// the spill directory. A wave therefore pays one device flush however
/// many victims it spills. A spilled session is a `SpillRecord` — pack,
/// offset, size — that its slot keeps in place of a file name.
///
/// Retiring a record. Fault-in `pread`s its record and, once the restore
/// has succeeded, overwrites the record's 8-byte magic with
/// `kTombstoneMagic` (`PDMTOMB2`). That one in-place write is what keeps a
/// restart from adopting a spill its session has moved past; it is not
/// fsynced, so it survives `kill -9` but not an OS crash (DESIGN.md §14).
/// The tombstoned envelope keeps its version and size fields, so a reader
/// still walks past it.
///
/// The live-pack table keeps, under a leaf lock, each pack's record count,
/// live count, file size and owners (the slots whose records it received,
/// registered at commit and at adoption), and holds only packs with a live
/// record. When a pack's last record dies it moves to a dead list, and the
/// wave unlinks it. Pack numbers only grow — a new store starts above every
/// `pack-<n>` name on disk — so no name is reused while its unlink is
/// pending.
///
/// The cleaner. A pack of more than 8 records turns *sparse* once its live
/// count falls to 1/8 of its records. The next wave copies the sparse
/// pack's live records, bytes unchanged, into its own pack (`AppendCopy`)
/// and, once that pack has landed, retires each old copy with `Consume`;
/// the old pack then dies. So every live pack holds more than 1/8 live
/// records or at most 8 records, which bounds the spill directory at 8×
/// the live spill bytes for records of one size (DESIGN.md §12).
///
/// Thread safety: the wave-writer side (`Append`, `AppendCopy`,
/// `CommitPack`, `SparseOwners`, `UnlinkDeadPacks`, `Discard`, `Adopt`) has
/// one caller at a time — the broker holds `control_mu_`. `Read`,
/// `Consume` and `Quarantine` may run concurrently with it and with each
/// other on distinct records; each record is guarded by its slot's lock.
/// The startup sweep runs before the store is shared.

namespace pdm::broker {

/// Where one spilled session lives: its pack and the byte range of its
/// envelope inside it. 16 bytes, so it fits a broker slot record.
struct SpillRecord {
  uint64_t pack = 0;
  uint32_t offset = 0;
  uint32_t size = 0;
};

/// Overwrites the magic of a consumed record (see above).
inline constexpr std::string_view kTombstoneMagic{"PDMTOMB2", 8};

/// A slot that owns, or once owned, a record in a sparse pack (`owner` is
/// the broker's slot index). The owner's slot says whether it still does.
struct SparseOwner {
  uint64_t pack = 0;
  uint32_t owner = 0;
};

/// One envelope found by `WalkPack`.
struct PackEntry {
  size_t offset = 0;
  size_t size = 0;
  bool tombstone = false;
};

/// Splits a pack's bytes into envelopes from their headers alone (magic,
/// version, body size), calling `visit` for each; checksums are the
/// decoder's job. Returns the offset of the first byte it cannot frame —
/// a foreign magic, or a header or body that runs past the end — or
/// `bytes.size()` when every byte belongs to an envelope.
size_t WalkPack(std::string_view bytes, const std::function<void(const PackEntry&)>& visit);

class SpillStore {
 public:
  enum class ReadResult { kOk, kMissing, kError };

  /// What the startup sweep did, for the broker's recovery report.
  struct SweepStats {
    /// `*.tmp` halves and packs with no live record, deleted.
    size_t dead_reclaimed = 0;
    /// Corrupt records (and damaged tails) moved to `*.quarantined`.
    size_t corrupt_quarantined = 0;
    size_t bytes_reclaimed = 0;
  };

  /// Creates `dir` if needed. A directory that cannot be created fails
  /// every pack write; the broker then stays a pure hot-tier broker.
  explicit SpillStore(std::string dir);
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  // ------------------------------------------------------ the wave writer

  /// Appends `snapshot`'s envelope to the pending pack and sets `record`'s
  /// offset and size (`CommitPack` sets its pack). Returns false, appending
  /// nothing, when the pack would outgrow 32-bit offsets. The pending pack
  /// is one buffer reused by every wave.
  bool Append(const SessionSnapshot& snapshot, SpillRecord* record);

  /// Appends a copy of the live record `from`, read with `pread` straight
  /// from its pack, to the pending pack and sets `to`'s offset and size.
  /// Returns false, appending nothing, when the read comes up short, the
  /// bytes are not a live envelope, or the pack would outgrow 32-bit
  /// offsets; the record then stays where it is. No fault site.
  bool AppendCopy(const SpillRecord& from, SpillRecord* to);

  /// Lands the pending pack as `pack-<n>.snap` — tmp, write, fsync, rename,
  /// fsync of the directory — and empties the buffer. On success `*pack`
  /// is n and the pack enters the live-pack table with one live record per
  /// entry of `owners`, the slots of its records in append order. On
  /// failure nothing stays under the pack's name. Fault sites, in syscall
  /// order, stopping at the first that fires: spill.open,
  /// spill.short_write, spill.write, spill.fsync, spill.rename,
  /// spill.dir_fsync.
  bool CommitPack(std::span<const uint32_t> owners, uint64_t* pack);

  /// Registers `owner` as the slot of an inventoried record it adopted.
  void Adopt(const SpillRecord& record, uint32_t owner);

  /// The owners of every sparse pack still live, for the next wave to
  /// relocate. Entries are stale once their slot left the pack; the
  /// returned span is valid until the next call.
  std::span<const SparseOwner> SparseOwners();

  /// Unlinks every pack whose last record died since the previous call.
  void UnlinkDeadPacks();

  /// Retires records nobody will read again — closed products, unclaimed
  /// or duplicate spills, the evicted slots of a broker shutting down:
  /// releases them all, tombstones those whose pack still holds another
  /// live record, and unlinks the packs that died. Wave-writer side: the
  /// caller serializes with `CommitPack`. No fault site: it cannot fail.
  void Discard(std::span<const SpillRecord> records);

  // ------------------------------------------------------------ records

  /// Reads one record with `pread` into `bytes` (reused; a short read
  /// leaves fewer bytes, which fail decode). kMissing: the pack is gone.
  /// kError: a transient failure, the bytes are presumably still on disk.
  /// Fault sites: spill.open, spill.read.
  ReadResult Read(const SpillRecord& record, std::string* bytes) const;

  /// Retires a record a fault-in has restored, or that a wave has copied:
  /// writes the tombstone magic over the record's magic and, once that
  /// write succeeded, marks the record dead in the live-pack table (the
  /// pack joins the dead list with its last record). Returns false, with
  /// the record still live, when the write fails. Fault site:
  /// spill.tombstone.
  bool Consume(const SpillRecord& record);

  /// Keeps `bytes` — the damaged record as read, if any — under
  /// `<pack file>.<offset>.quarantined`, tombstones the record and
  /// releases it.
  void Quarantine(const SpillRecord& record, std::string_view bytes);

  // ------------------------------------------------------ startup sweep

  /// Reads every spill file in the directory as a pack: `pack-<n>.snap`,
  /// and the single-envelope `slot-<n>.snap` / `recovered-<n>.snap` files
  /// of the one-file-per-spill layout, which are packs of one. Deletes
  /// `*.tmp` halves and packs with nothing live. Quarantines corrupt
  /// records: a file with nothing else live is renamed whole to
  /// `<name>.quarantined`; otherwise each bad record is copied out and
  /// tombstoned, and a tail that cannot be framed is copied out and cut
  /// off. Enters every live record in the live-pack table and calls
  /// `found` for it, older files first, so a later record for the same
  /// product is the newer one. Runs once, before the store is shared.
  SweepStats Sweep(const std::function<void(std::string product, const SpillRecord&)>& found);

  /// Bytes of the pack files holding a live record.
  size_t file_bytes() const { return file_bytes_.load(std::memory_order_relaxed); }

 private:
  /// One live pack's entry in the live-pack table.
  struct Pack {
    uint32_t records = 0;
    uint32_t live = 0;
    size_t bytes = 0;
    bool sparse = false;
    std::vector<uint32_t> owners;
  };

  /// The file that holds `pack`.
  std::string PackPath(uint64_t pack) const;
  /// Enters a pack with `live` of its `records` live. Requires `mu_`.
  Pack& InsertLocked(uint64_t id, uint32_t records, uint32_t live, size_t bytes);
  /// Queues `pack` for the cleaner once it turns sparse. Requires `mu_`.
  void MarkIfSparseLocked(uint64_t id, Pack* pack);
  /// Drops one live record from `pack`'s count; returns whether the pack
  /// died with it (it then joins `dead_`). Requires `mu_`.
  bool ReleaseLocked(uint64_t pack);
  void Release(const SpillRecord& record);
  /// Writes the tombstone magic at `record`, without a fault site.
  bool WriteTombstone(const SpillRecord& record) const;
  /// fsync of the spill directory, so the pack's new name is durable.
  bool SyncDir() const;

  const std::string dir_;
  /// The pending pack (wave writer only).
  std::string pending_;
  /// Next pack number (wave writer only).
  uint64_t next_pack_ = 0;
  /// `dead_`'s contents while UnlinkDeadPacks works through them (wave
  /// writer only; swapped, so neither vector reallocates in steady state).
  std::vector<uint64_t> unlinking_;
  /// What `SparseOwners` last returned (wave writer only).
  std::vector<SparseOwner> sparse_owners_;
  /// The live-pack table, the sparse list and the dead list, guarded by
  /// `mu_` (a leaf lock). A pack leaves `sparse_` when it dies.
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Pack> live_;
  std::vector<uint64_t> sparse_;
  std::vector<uint64_t> dead_;
  /// Sum of the live packs' `bytes`, written under `mu_`.
  std::atomic<size_t> file_bytes_{0};
};

}  // namespace pdm::broker

#endif  // PDM_BROKER_SPILL_STORE_H_
