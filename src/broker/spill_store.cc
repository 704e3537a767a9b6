#include "broker/spill_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/fault.h"

namespace pdm::broker {
namespace {

/// Pack ids name their file. `pack-<n>.snap` is pack n; the one-file-per-
/// spill layout's `slot-<n>.snap` and `recovered-<n>.snap` files, read by
/// the startup sweep as packs of one, get ids tagged by the top two bits,
/// which no pack number reaches.
constexpr uint64_t kLegacyBit = uint64_t{1} << 63;
constexpr uint64_t kRecoveredBit = uint64_t{1} << 62;
constexpr uint64_t kNumberMask = kRecoveredBit - 1;

/// Parses `<prefix><digits><suffix>` (at most 18 digits, so the number
/// stays below kRecoveredBit).
bool ParseNumbered(std::string_view name, std::string_view prefix, std::string_view suffix,
                   uint64_t* number) {
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) return false;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() || digits.size() > 18) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = value;
  return true;
}

/// The pack number at the front of any `pack-<n>...` name (a pack, its
/// `.tmp`, a `.quarantined` copy), so a new store never reuses one.
bool ParsePackPrefix(std::string_view name, uint64_t* number) {
  if (!name.starts_with("pack-")) return false;
  size_t end = 5;
  while (end < name.size() && name[end] >= '0' && name[end] <= '9') ++end;
  return ParseNumbered(name.substr(0, end), "pack-", "", number);
}

bool WriteAll(int fd, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

/// Reads `size` bytes at `offset` into `out`, stopping early at end of
/// file. Returns the bytes read, or -1 on an I/O error.
ssize_t PreadFull(int fd, char* out, size_t size, uint64_t offset) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::pread(fd, out + got, size - got, static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

/// Whole-file read for the startup sweep.
bool ReadFile(const std::string& path, std::string* bytes) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  bytes->clear();
  char buf[64 << 10];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

/// Forensic copy of damaged bytes (best effort, not synced).
void WriteQuarantine(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  (void)WriteAll(fd, bytes);
  ::close(fd);
}

/// The disk bound (DESIGN.md §12): a pack of more than this many records
/// turns sparse once at most 1/kDiskBound of them are live.
constexpr uint32_t kDiskBound = 8;

}  // namespace

size_t WalkPack(std::string_view bytes, const std::function<void(const PackEntry&)>& visit) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    ByteReader header(bytes.substr(offset));
    char magic[kSnapshotMagic.size()] = {};
    uint32_t version = 0;
    uint32_t body = 0;
    if (!header.GetBytes(magic, sizeof magic) || !header.GetU32(&version) ||
        !header.GetU32(&body)) {
      break;
    }
    const std::string_view tag(magic, sizeof magic);
    const bool tombstone = tag == kTombstoneMagic;
    if (!tombstone && tag != kSnapshotMagic) break;
    const size_t size = kSnapshotHeaderBytes + size_t{body} + kSnapshotTrailerBytes;
    if (size > bytes.size() - offset) break;
    visit(PackEntry{offset, size, tombstone});
    offset += size;
  }
  return offset;
}

SpillStore::SpillStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string SpillStore::PackPath(uint64_t pack) const {
  if ((pack & kLegacyBit) == 0) return dir_ + "/pack-" + std::to_string(pack) + ".snap";
  const char* prefix = (pack & kRecoveredBit) != 0 ? "/recovered-" : "/slot-";
  return dir_ + prefix + std::to_string(pack & kNumberMask) + ".snap";
}

bool SpillStore::Append(const SessionSnapshot& snapshot, SpillRecord* record) {
  const size_t offset = pending_.size();
  AppendSessionSnapshot(snapshot, &pending_);
  if (pending_.size() > std::numeric_limits<uint32_t>::max()) {
    pending_.resize(offset);
    return false;
  }
  record->offset = static_cast<uint32_t>(offset);
  record->size = static_cast<uint32_t>(pending_.size() - offset);
  return true;
}

bool SpillStore::AppendCopy(const SpillRecord& from, SpillRecord* to) {
  const size_t offset = pending_.size();
  if (offset + from.size > std::numeric_limits<uint32_t>::max()) return false;
  int fd = ::open(PackPath(from.pack).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  pending_.resize(offset + from.size);
  const ssize_t got = PreadFull(fd, pending_.data() + offset, from.size, from.offset);
  ::close(fd);
  if (got != static_cast<ssize_t>(from.size) ||
      std::string_view(pending_).substr(offset, kSnapshotMagic.size()) != kSnapshotMagic) {
    pending_.resize(offset);
    return false;
  }
  to->offset = static_cast<uint32_t>(offset);
  to->size = from.size;
  return true;
}

bool SpillStore::SyncDir() const {
  int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool SpillStore::CommitPack(std::span<const uint32_t> owners, uint64_t* pack) {
  // Crash-consistent (DESIGN.md §14): the bytes land in the tmp name, are
  // fsynced, and only then renamed, so a kill at any instant leaves the
  // whole pack or a `.tmp` the startup sweep deletes. The directory fsync
  // makes the rename itself durable before any victim drops its session.
  const uint64_t id = next_pack_++;
  const std::string path = PackPath(id);
  const std::string tmp = path + ".tmp";
  int fd = -1;
  if (!fault::ShouldFail("spill.open")) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }
  bool ok = fd >= 0;
  if (ok && fault::ShouldFail("spill.short_write")) {
    // Simulated ENOSPC: a prefix lands in the tmp file, then the device
    // fills. The torn bytes never reach `path`.
    (void)WriteAll(fd, std::string_view(pending_).substr(0, pending_.size() / 2));
    ok = false;
  } else if (ok && fault::ShouldFail("spill.write")) {
    ok = false;  // simulated EIO before any byte lands
  }
  ok = ok && WriteAll(fd, pending_);
  ok = ok && !fault::ShouldFail("spill.fsync") && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  ok = ok && !fault::ShouldFail("spill.rename") && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    if (fd >= 0) ::unlink(tmp.c_str());
  } else if (fault::ShouldFail("spill.dir_fsync") || !SyncDir()) {
    // The name may not survive an OS crash, so the wave must not commit;
    // its victims stay resident and the pack goes.
    ::unlink(path.c_str());
    ok = false;
  }
  const size_t bytes = pending_.size();
  pending_.clear();
  if (!ok) return false;
  const auto records = static_cast<uint32_t>(owners.size());
  std::lock_guard lock(mu_);
  InsertLocked(id, records, records, bytes).owners.assign(owners.begin(), owners.end());
  *pack = id;
  return true;
}

void SpillStore::Adopt(const SpillRecord& record, uint32_t owner) {
  std::lock_guard lock(mu_);
  auto it = live_.find(record.pack);
  if (it != live_.end()) it->second.owners.push_back(owner);
}

std::span<const SparseOwner> SpillStore::SparseOwners() {
  sparse_owners_.clear();
  std::lock_guard lock(mu_);
  std::erase_if(sparse_, [this](uint64_t id) { return !live_.contains(id); });
  for (uint64_t id : sparse_) {
    for (uint32_t owner : live_.at(id).owners) sparse_owners_.push_back({id, owner});
  }
  return sparse_owners_;
}

void SpillStore::UnlinkDeadPacks() {
  {
    std::lock_guard lock(mu_);
    unlinking_.swap(dead_);
  }
  for (uint64_t pack : unlinking_) ::unlink(PackPath(pack).c_str());
  unlinking_.clear();
}

SpillStore::Pack& SpillStore::InsertLocked(uint64_t id, uint32_t records, uint32_t live,
                                           size_t bytes) {
  Pack& pack = live_[id];
  pack.records = records;
  pack.live = live;
  pack.bytes = bytes;
  file_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  MarkIfSparseLocked(id, &pack);
  return pack;
}

void SpillStore::MarkIfSparseLocked(uint64_t id, Pack* pack) {
  if (pack->sparse || pack->records <= kDiskBound ||
      uint64_t{pack->live} * kDiskBound > pack->records) {
    return;
  }
  pack->sparse = true;
  sparse_.push_back(id);
}

bool SpillStore::ReleaseLocked(uint64_t pack) {
  auto it = live_.find(pack);
  PDM_DCHECK(it != live_.end());
  if (it == live_.end()) return false;
  if (--it->second.live > 0) {
    MarkIfSparseLocked(pack, &it->second);
    return false;
  }
  file_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  live_.erase(it);
  dead_.push_back(pack);
  return true;
}

void SpillStore::Release(const SpillRecord& record) {
  std::lock_guard lock(mu_);
  ReleaseLocked(record.pack);
}

void SpillStore::Discard(std::span<const SpillRecord> records) {
  {
    std::lock_guard lock(mu_);
    for (const SpillRecord& record : records) ReleaseLocked(record.pack);
  }
  // A pack with a live record left outlives this call, so its discarded
  // records must not read as live to a restart. Only this caller unlinks,
  // so no pack checked here disappears before its tombstone lands.
  for (const SpillRecord& record : records) {
    bool live = false;
    {
      std::lock_guard lock(mu_);
      live = live_.contains(record.pack);
    }
    if (live) (void)WriteTombstone(record);
  }
  UnlinkDeadPacks();
}

SpillStore::ReadResult SpillStore::Read(const SpillRecord& record, std::string* bytes) const {
  if (fault::ShouldFail("spill.open")) return ReadResult::kError;
  int fd = ::open(PackPath(record.pack).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT ? ReadResult::kMissing : ReadResult::kError;
  bytes->resize(record.size);
  const ssize_t got =
      fault::ShouldFail("spill.read") ? -1 : PreadFull(fd, bytes->data(), record.size, record.offset);
  ::close(fd);
  if (got < 0) return ReadResult::kError;
  bytes->resize(static_cast<size_t>(got));  // short when the pack ends inside the record
  return ReadResult::kOk;
}

bool SpillStore::WriteTombstone(const SpillRecord& record) const {
  int fd = ::open(PackPath(record.pack).c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const ssize_t n = ::pwrite(fd, kTombstoneMagic.data(), kTombstoneMagic.size(),
                             static_cast<off_t>(record.offset));
  ::close(fd);
  return n == static_cast<ssize_t>(kTombstoneMagic.size());
}

bool SpillStore::Consume(const SpillRecord& record) {
  if (fault::ShouldFail("spill.tombstone") || !WriteTombstone(record)) return false;
  Release(record);
  return true;
}

void SpillStore::Quarantine(const SpillRecord& record, std::string_view bytes) {
  if (!bytes.empty()) {
    WriteQuarantine(PackPath(record.pack) + "." + std::to_string(record.offset) +
                        ".quarantined",
                    bytes);
  }
  (void)WriteTombstone(record);
  Release(record);
}

SpillStore::SweepStats SpillStore::Sweep(
    const std::function<void(std::string product, const SpillRecord&)>& found) {
  namespace fs = std::filesystem;
  SweepStats stats;
  // Collect first: the loop below deletes and renames inside the directory,
  // which must not perturb an in-flight directory_iterator.
  struct Candidate {
    uint64_t pack;
    std::string path;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    const std::string name = entry.path().filename().string();
    uint64_t number = 0;
    if (ParsePackPrefix(name, &number)) next_pack_ = std::max(next_pack_, number + 1);
    if (name.size() > 4 && name.ends_with(".tmp")) {
      // A torn pack write, or a consumed spill of the one-file layout:
      // nothing live references it.
      const size_t size = static_cast<size_t>(entry.file_size(file_ec));
      if (fs::remove(entry.path(), file_ec)) {
        ++stats.dead_reclaimed;
        stats.bytes_reclaimed += size;
      }
      continue;
    }
    if (ParseNumbered(name, "pack-", ".snap", &number)) {
      candidates.push_back({number, entry.path().string()});
    } else if (ParseNumbered(name, "slot-", ".snap", &number)) {
      candidates.push_back({kLegacyBit | number, entry.path().string()});
    } else if (ParseNumbered(name, "recovered-", ".snap", &number)) {
      candidates.push_back({kLegacyBit | kRecoveredBit | number, entry.path().string()});
    }
  }
  // Older first: the one-file layout predates every pack, and pack numbers
  // grow with time.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    const bool a_pack = (a.pack & kLegacyBit) == 0;
    const bool b_pack = (b.pack & kLegacyBit) == 0;
    return a_pack != b_pack ? b_pack : a.pack < b.pack;
  });

  std::string bytes;
  std::vector<std::pair<std::string, SpillRecord>> live;
  std::vector<PackEntry> corrupt;
  for (const Candidate& candidate : candidates) {
    if (!ReadFile(candidate.path, &bytes) ||
        bytes.size() > std::numeric_limits<uint32_t>::max()) {
      continue;  // left alone: unreadable now, or not a pack this layout wrote
    }
    live.clear();
    corrupt.clear();
    uint32_t records = 0;
    const size_t framed = WalkPack(bytes, [&](const PackEntry& entry) {
      ++records;
      if (entry.tombstone) return;
      SessionSnapshot snapshot;
      if (!DecodeSessionSnapshot(std::string_view(bytes).substr(entry.offset, entry.size),
                                 &snapshot)
               .ok()) {
        corrupt.push_back(entry);
        return;
      }
      live.emplace_back(std::move(snapshot.product),
                        SpillRecord{candidate.pack, static_cast<uint32_t>(entry.offset),
                                    static_cast<uint32_t>(entry.size)});
    });
    const bool damaged_tail = framed < bytes.size();
    const size_t damaged = corrupt.size() + (damaged_tail ? 1 : 0);
    stats.corrupt_quarantined += damaged;
    std::error_code file_ec;
    if (live.empty()) {
      if (damaged == 0) {
        // Every record was consumed before the crash: its unlink was queued.
        if (fs::remove(candidate.path, file_ec)) {
          ++stats.dead_reclaimed;
          stats.bytes_reclaimed += bytes.size();
        }
      } else {
        // Keep the damaged bytes for forensics, never as an adoption
        // candidate.
        fs::rename(candidate.path, candidate.path + ".quarantined", file_ec);
      }
      continue;
    }
    // Live records stay in place; only the damage moves out.
    for (const PackEntry& entry : corrupt) {
      const SpillRecord record{candidate.pack, static_cast<uint32_t>(entry.offset),
                               static_cast<uint32_t>(entry.size)};
      WriteQuarantine(candidate.path + "." + std::to_string(entry.offset) + ".quarantined",
                      std::string_view(bytes).substr(entry.offset, entry.size));
      (void)WriteTombstone(record);
    }
    size_t file_size = bytes.size();
    if (damaged_tail) {
      WriteQuarantine(candidate.path + "." + std::to_string(framed) + ".quarantined",
                      std::string_view(bytes).substr(framed));
      // On failure the tail stays, and the next sweep quarantines it again.
      if (::truncate(candidate.path.c_str(), static_cast<off_t>(framed)) == 0) file_size = framed;
    }
    {
      std::lock_guard lock(mu_);
      InsertLocked(candidate.pack, records, static_cast<uint32_t>(live.size()), file_size);
    }
    for (auto& [product, record] : live) found(std::move(product), record);
  }
  return stats;
}

}  // namespace pdm::broker
