#include "broker/broker.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace pdm::broker {
namespace {

/// Ticket-base space is 24 bits (PricingSession's layout), so a broker can
/// open at most 2^24 - 2 sessions over its lifetime (slots are tombstoned
/// on close, never reused).
constexpr size_t kMaxSessions = (size_t{1} << 24) - 2;

Status StaleHandleError() {
  return Status::NotFound("stale, closed, or foreign product handle");
}

/// Per-thread scratch for name-keyed and mixed batches. Reaching into a
/// thread_local keeps the batch paths allocation-free in steady state (the
/// vectors retain their high-water capacity) without putting scratch in the
/// shared Broker object, where it would need locking.
struct BatchScratch {
  /// Bitmask over the batch: 1 = already processed by an earlier group.
  std::vector<uint64_t> done;
  /// Name-keyed batches lowered onto the handle path.
  std::vector<HandleRequest> handle_requests;
  /// One session's share of a mixed batch, gathered for the group body,
  /// plus each item's original batch position for the scatter back.
  std::vector<HandleRequest> group_requests;
  std::vector<Quote> group_quotes;
  std::vector<FeedbackRequest> group_feedback;
  std::vector<StatusCode> group_codes;
  std::vector<size_t> positions;

  void ResetDone(size_t batch_size) {
    done.assign((batch_size + 63) / 64, 0);
  }
  bool Done(size_t i) const { return (done[i >> 6] >> (i & 63)) & 1; }
  void MarkDone(size_t i) { done[i >> 6] |= uint64_t{1} << (i & 63); }
};

BatchScratch& Scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

/// Eviction waves (DESIGN.md §12): a residency cap gets one wave victim per
/// kResidentsPerWaveVictim resident sessions, between 1 and kMaxWave.
constexpr size_t kMaxWave = 64;
constexpr size_t kResidentsPerWaveVictim = 32;

}  // namespace

uint64_t TicketBaseForIndex(size_t session_index) {
  return (static_cast<uint64_t>(session_index) + 1) << 40;
}

size_t WaveSizeForCap(size_t cap) {
  return std::min(kMaxWave, std::max<size_t>(1, cap / kResidentsPerWaveVictim));
}

struct Broker::WaveVictim {
  SessionSlot* slot = nullptr;
  size_t index = 0;
  /// The victim's envelope in the pending pack (its pack is set at commit).
  SpillRecord record;
};

/// A live record a wave copies out of a sparse pack: its slot, owned by the
/// wave until the old copy retires, and the new copy in the pending pack.
struct Broker::Relocation {
  SessionSlot* slot = nullptr;
  uint32_t index = 0;
  SpillRecord copy;
};

void Broker::PoolDeleter::operator()(PricingSession* session) const {
  std::lock_guard lock(broker->arena_mu_);
  broker->session_pool_.Destroy(session);
}

Broker::Broker(const BrokerConfig& config) : config_(config) {
  if (!config_.spill_dir.empty()) {
    spill_store_ = std::make_unique<SpillStore>(config_.spill_dir);
  }
  if (config_.metrics != nullptr) {
    metrics::MetricGateway& recovery_gw = *config_.metrics;
    metrics_.spill_corruptions = recovery_gw.GetCounter(
        "pdm_broker_spill_corruptions_total",
        "Spills that failed checksum/decode/restore and were quarantined.");
    metrics_.spill_write_errors = recovery_gw.GetCounter(
        "pdm_broker_spill_write_errors_total",
        "Sessions whose eviction wave failed to land (they stayed resident).");
    metrics_.spill_adopted = recovery_gw.GetCounter(
        "pdm_broker_spill_adopted_total",
        "Pre-crash spills adopted by OpenSession(s) after a restart.");
    metrics_.spill_orphans_reclaimed = recovery_gw.GetCounter(
        "pdm_broker_spill_orphans_reclaimed_total",
        "Leftover tmp files and unclaimed spills deleted by the sweeps.");
  }
  SweepSpillDirOnStartup();
  directory_.Publish(std::make_unique<const Directory>());
  if (config_.metrics != nullptr) {
    // Resolved exactly once, in the order the families render (DESIGN.md
    // §13). The request path writes none of these: the collected handles
    // are filled by Collect() at scrape time, and the push handles fire on
    // cold-path events only.
    metrics::MetricGateway& gw = *config_.metrics;
    collected_.quotes =
        gw.GetCounter("pdm_broker_quotes_total", "Quotes issued (tickets created).");
    collected_.accepts =
        gw.GetCounter("pdm_broker_accepts_total", "Quotes accepted by consumers.");
    collected_.rejects =
        gw.GetCounter("pdm_broker_rejects_total", "Quotes rejected by consumers.");
    metrics_.retirements = gw.GetCounter(
        "pdm_broker_ticket_retirements_total",
        "Ticket slots permanently retired at the generation bound.");
    collected_.evictions = gw.GetCounter("pdm_broker_evictions_total",
                                         "Sessions evicted to the cold tier.");
    collected_.fault_ins = gw.GetCounter(
        "pdm_broker_fault_ins_total",
        "Sessions faulted back in from the cold tier.");
    collected_.regret = gw.GetGauge(
        "pdm_broker_regret_proxy",
        "Cumulative posted-vs-accepted surplus: total value-space price of "
        "rejected quotes.");
    collected_.resident = gw.GetGauge(
        "pdm_broker_resident_sessions",
        "Open sessions holding a live in-memory engine.");
    collected_.evicted = gw.GetGauge(
        "pdm_broker_evicted_sessions",
        "Open sessions currently spilled to the cold tier.");
    collected_.open_products =
        gw.GetGauge("pdm_broker_open_products", "Products currently open.");
    collected_.spill = gw.GetGauge(
        "pdm_broker_spill_bytes", "Bytes of live cold-tier spill records.");
    collected_.spill_files = gw.GetGauge(
        "pdm_broker_spill_file_bytes",
        "Bytes of the cold-tier pack files that hold a live record.");
    collected_.relocations = gw.GetCounter(
        "pdm_broker_spill_relocations_total",
        "Live spill records copied out of sparse packs by the pack cleaner.");
    collected_.batch_size = gw.GetHistogram(
        "pdm_broker_batch_size",
        "Requests per PostPrices/Observes call (single PostPrice/Observe calls "
        "record 1).");
    metrics_.fault_in_ns = gw.GetHistogram(
        "pdm_broker_fault_in_ns",
        "Cold-tier fault-in latency: spill read, decode, engine rebuild, "
        "restore (nanoseconds).");
    // Last: a scrape on another thread may call Collect() from here on.
    gw.AddCollector(this);
  }
}

Broker::~Broker() {
  if (config_.metrics != nullptr) {
    // Unregister before anything Collect() reads is torn down; this waits
    // out a scrape in progress and folds the final totals into the cells.
    // Counters (and the cumulative regret proxy) keep what this broker
    // counted; its occupancy leaves with it.
    config_.metrics->RemoveCollector(this);
    collected_.resident.Sub(static_cast<double>(reported_.resident_sessions));
    collected_.evicted.Sub(static_cast<double>(reported_.evicted_sessions));
    collected_.open_products.Sub(static_cast<double>(reported_.open_sessions));
    collected_.spill.Sub(static_cast<double>(reported_.spill_bytes));
    collected_.spill_files.Sub(static_cast<double>(reported_.spill_file_bytes));
  }
  // Evicted slots leave no trace: their records are discarded, which
  // unlinks every pack that held nothing else (packs with an unclaimed
  // inventory record stay), along with the packs queued since the last
  // wave.
  if (spill_store_ != nullptr) {
    std::vector<SpillRecord> records;
    for (SessionSlot* slot : slots_) {
      if (slot->evicted && !slot->quarantined && !slot->unbuilt) records.push_back(slot->spill);
    }
    spill_store_->Discard(records);
  }
  // Slots live in the arena, so ~Broker runs their destructors explicitly
  // (sessions return to the pool through PoolDeleter — both the pool and
  // the arena outlive this loop because the member destructors have not run
  // yet).
  for (SessionSlot* slot : slots_) slot->~SessionSlot();
}

Broker::SessionSlot* Broker::NewSlot() {
  void* storage = arena_.Allocate(sizeof(SessionSlot), alignof(SessionSlot));
  SessionSlot* slot = ::new (storage) SessionSlot();
  slots_.push_back(slot);
  return slot;
}

Broker::SessionPtr Broker::MakePooledSession(std::string product,
                                             std::unique_ptr<PricingEngine> engine,
                                             uint64_t ticket_base) {
  std::lock_guard lock(arena_mu_);
  PricingSession* raw =
      session_pool_.Create(std::move(product), std::move(engine), ticket_base);
  return SessionPtr(raw, PoolDeleter(this));
}

void Broker::SweepSpillDirOnStartup() {
  if (spill_store_ == nullptr) return;
  const SpillStore::SweepStats swept =
      spill_store_->Sweep([this](std::string product, const SpillRecord& record) {
        auto [it, inserted] = recovered_spills_.try_emplace(std::move(product), record);
        if (inserted) return;
        // Two spills claiming one product cannot both be right. The sweep
        // visits older files first, so keep this newer one and reclaim the
        // other.
        spill_store_->Discard(std::span<const SpillRecord>(&it->second, 1));
        ++recovery_report_.orphans_reclaimed;
        recovery_report_.bytes_reclaimed += it->second.size;
        metrics_.spill_orphans_reclaimed.Increment();
        it->second = record;
      });
  recovery_report_.tmp_reclaimed = swept.dead_reclaimed;
  recovery_report_.spills_found = recovered_spills_.size();
  recovery_report_.corrupt_quarantined = swept.corrupt_quarantined;
  recovery_report_.bytes_reclaimed += swept.bytes_reclaimed;
  metrics_.spill_orphans_reclaimed.Add(swept.dead_reclaimed);
  metrics_.spill_corruptions.Add(swept.corrupt_quarantined);
}

size_t Broker::SweepUnclaimedSpills() {
  std::lock_guard control(control_mu_);
  std::vector<SpillRecord> unclaimed;
  for (const auto& [product, record] : recovered_spills_) {
    unclaimed.push_back(record);
    recovery_report_.bytes_reclaimed += record.size;
  }
  if (spill_store_ != nullptr) spill_store_->Discard(unclaimed);
  recovered_spills_.clear();
  recovery_report_.orphans_reclaimed += unclaimed.size();
  metrics_.spill_orphans_reclaimed.Add(unclaimed.size());
  return unclaimed.size();
}

RecoveryReport Broker::recovery_report() const {
  std::lock_guard control(control_mu_);
  return recovery_report_;
}

Status Broker::OpenSession(std::string product, std::unique_ptr<PricingEngine> engine) {
  EnforceResidencyLimit();
  if (product.empty()) return Status::InvalidArgument("empty product name");
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine for product '" + product + "'");
  }
  std::lock_guard control(control_mu_);
  const Directory* current = directory_.Load();
  if (current->by_name.find(product) != current->by_name.end()) {
    return Status::FailedPrecondition("product '" + product + "' is already open");
  }
  size_t index = slots_.size();
  if (index >= kMaxSessions) {
    return Status::FailedPrecondition("session-slot space exhausted");
  }
  SessionSlot* slot = NewSlot();
  slot->session = MakePooledSession(product, std::move(engine), TicketBaseForIndex(index));
  slot->last_touch_epoch.store(sweep_epoch_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  // Open-generation stamp: odd = open. Relaxed is enough — the slot becomes
  // reachable only through the release-published directory snapshot below.
  slot->state.store(1, std::memory_order_relaxed);
  resident_sessions_.fetch_add(1, std::memory_order_relaxed);

  auto next = std::make_unique<Directory>(*current);
  next->slots.push_back(slot);
  next->by_name.emplace(std::move(product),
                        ProductHandle{static_cast<uint32_t>(index), 1});
  directory_.Publish(std::move(next));
  return Status::Ok();
}

Status Broker::OpenSession(std::string product, const scenario::ScenarioSpec& spec,
                           const scenario::WorkloadInfo& info) {
  std::span<const std::string> one(&product, 1);
  return OpenSessions(one, spec, info);
}

Status Broker::OpenSessions(std::span<const std::string> products,
                            const scenario::ScenarioSpec& spec,
                            const scenario::WorkloadInfo& info) {
  EnforceResidencyLimit();
  if (products.empty()) return Status::Ok();
  if (!scenario::MechanismRegistry::Builtin().Contains(spec.mechanism)) {
    return Status::InvalidArgument("unknown mechanism '" + spec.mechanism + "'");
  }
  if (info.engine_dim < 1) {
    return Status::InvalidArgument("workload reports engine_dim " +
                                   std::to_string(info.engine_dim));
  }
  std::lock_guard control(control_mu_);
  const Directory* current = directory_.Load();
  if (slots_.size() + products.size() > kMaxSessions) {
    return Status::FailedPrecondition("session-slot space exhausted");
  }
  // All-or-nothing validation against the current directory AND the batch
  // itself, before any slot is allocated. Duplicates are found with one
  // hashed counting pass, keeping the bulk open O(N) (DESIGN.md §12); the
  // error names the first position that is empty, already open, or the
  // first occurrence of a repeated name.
  std::unordered_map<std::string_view, size_t> occurrences;
  occurrences.reserve(products.size());
  for (const std::string& product : products) ++occurrences[product];
  for (const std::string& product : products) {
    if (product.empty()) return Status::InvalidArgument("empty product name");
    if (current->by_name.find(product) != current->by_name.end()) {
      return Status::FailedPrecondition("product '" + product + "' is already open");
    }
    if (occurrences[product] > 1) {
      return Status::FailedPrecondition("product '" + product +
                                        "' appears twice in the batch");
    }
  }

  // Residency room for the batch: with a cap, the products past it open
  // unbuilt, so a bulk open never builds more engines than the cap holds
  // (DESIGN.md §12). Adopted products open evicted and take no room.
  const size_t cap = config_.max_resident_sessions;
  const size_t resident = resident_sessions_.load(std::memory_order_relaxed);
  const size_t room = spill_store_ == nullptr || cap == 0
                          ? products.size()
                          : cap - std::min(cap, resident);
  // One shared recipe and ONE directory copy + publish for the whole batch:
  // this is what keeps a million-product open O(N) instead of O(N²)
  // (DESIGN.md §12). The recipe names the products from the room's end on;
  // only the unbuilt ones among them need it.
  auto owned = std::make_unique<RebuildRecipe>(RebuildRecipe{spec, info, 0, {}});
  size_t built = 0;
  for (size_t i = 0; i < products.size(); ++i) {
    if (recovered_spills_.contains(products[i])) continue;
    if (built++ == room) {
      owned->first_unbuilt = slots_.size() + i;
      owned->names.assign(products.begin() + static_cast<ptrdiff_t>(i), products.end());
      break;
    }
  }
  recipes_.push_back(std::move(owned));
  const RebuildRecipe* recipe = recipes_.back().get();
  auto next = std::make_unique<Directory>(*current);
  uint64_t epoch = sweep_epoch_.load(std::memory_order_relaxed);
  size_t fresh = 0;
  for (const std::string& product : products) {
    size_t index = slots_.size();
    SessionSlot* slot = NewSlot();
    slot->recipe = recipe;
    // Crash recovery (DESIGN.md §14): a product whose spill survived a
    // previous broker adopts it in place — the slot starts evicted,
    // pointing at the pre-crash record, and the first touch faults the
    // session back in bit-identically. Only registry opens adopt: fault-in
    // needs the rebuild recipe.
    auto rec = recovered_spills_.find(product);
    if (rec != recovered_spills_.end()) {
      slot->evicted = true;
      slot->spill = rec->second;
      spill_store_->Adopt(rec->second, static_cast<uint32_t>(index));
      spill_bytes_.fetch_add(rec->second.size, std::memory_order_relaxed);
      metrics_.spill_adopted.Increment();
      ++recovery_report_.adopted;
      recovered_spills_.erase(rec);
    } else if (fresh == room) {
      // Past the cap: no engine and nothing on disk until the first touch.
      slot->evicted = true;
      slot->unbuilt = true;
    } else {
      slot->session = MakePooledSession(
          product, scenario::MechanismRegistry::Builtin().Build(spec, info),
          TicketBaseForIndex(index));
      ++fresh;
    }
    slot->last_touch_epoch.store(epoch, std::memory_order_relaxed);
    slot->state.store(1, std::memory_order_relaxed);
    next->slots.push_back(slot);
    next->by_name.emplace(product, ProductHandle{static_cast<uint32_t>(index), 1});
  }
  resident_sessions_.fetch_add(fresh, std::memory_order_relaxed);
  directory_.Publish(std::move(next));
  return Status::Ok();
}

Status Broker::CloseSession(std::string_view product) {
  std::lock_guard control(control_mu_);
  const Directory* current = directory_.Load();
  auto it = current->by_name.find(product);
  if (it == current->by_name.end()) {
    return Status::NotFound("unknown product '" + std::string(product) + "'");
  }
  SessionSlot* slot = current->slots[it->second.index];
  {
    // Taking the session lock fences out in-flight traffic; the state bump
    // (odd → even) makes every request that arrives afterwards — or that was
    // blocked on the lock — fail its re-check and return NotFound without
    // touching the (now destroyed) session.
    std::lock_guard session_lock(slot->mu);
    slot->state.store(it->second.generation + 1, std::memory_order_release);
    if (slot->evicted) {
      // Close-while-cold: discard the spill record, nothing to fault back
      // in. A quarantined slot already surrendered its record (its bytes
      // live on under `*.quarantined` and its accounting is zero), and an
      // unbuilt one never had one.
      if (!slot->quarantined && !slot->unbuilt) {
        spill_store_->Discard(std::span<const SpillRecord>(&slot->spill, 1));
      }
      spill_bytes_.fetch_sub(slot->spill.size, std::memory_order_relaxed);
      slot->spill = SpillRecord{};
      slot->evicted = false;
      slot->quarantined = false;
      slot->unbuilt = false;
    } else {
      slot->session.reset();
      resident_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  ++slots_tombstoned_;
  auto next = std::make_unique<Directory>(*current);
  next->by_name.erase(std::string(product));
  directory_.Publish(std::move(next));
  return Status::Ok();
}

Status Broker::Resolve(std::string_view product, ProductHandle* handle) const {
  if (handle == nullptr) return Status::InvalidArgument("null handle output");
  const Directory* dir = directory_.Load();
  auto it = dir->by_name.find(product);
  if (it == dir->by_name.end()) {
    *handle = ProductHandle{};
    return Status::NotFound("unknown product '" + std::string(product) + "'");
  }
  *handle = it->second;
  return Status::Ok();
}

Broker::SessionSlot* Broker::ProbeHandle(ProductHandle handle) const {
  if (!handle.valid() || (handle.generation & 1) == 0) return nullptr;
  const Directory* dir = directory_.Load();
  if (handle.index >= dir->slots.size()) return nullptr;
  SessionSlot* slot = dir->slots[handle.index];
  if (slot->state.load(std::memory_order_acquire) != handle.generation) {
    return nullptr;
  }
  return slot;
}

Broker::SessionSlot* Broker::ProbeTicket(uint64_t ticket, uint32_t* state_out) const {
  uint64_t base = ticket >> 40;
  if (base == 0) return nullptr;
  size_t index = static_cast<size_t>(base - 1);
  const Directory* dir = directory_.Load();
  if (index >= dir->slots.size()) return nullptr;
  SessionSlot* slot = dir->slots[index];
  uint32_t state = slot->state.load(std::memory_order_acquire);
  if ((state & 1) == 0) return nullptr;
  *state_out = state;
  return slot;
}

void Broker::QuarantineLocked(SessionSlot* slot, std::string_view bytes) {
  // Keep the damaged bytes for forensics under `*.quarantined`; the slot
  // flag (not the file) is what short-circuits every later touch to
  // DataLoss. A missing pack simply has nothing to copy.
  spill_store_->Quarantine(slot->spill, bytes);
  spill_bytes_.fetch_sub(slot->spill.size, std::memory_order_relaxed);
  slot->spill = SpillRecord{};
  slot->quarantined = true;
  metrics_.spill_corruptions.Increment();
}

Status Broker::FaultInLocked(SessionSlot* slot, size_t index) {
  if (slot->quarantined) {
    return Status::DataLoss(
        "session state lost: spill quarantined after corruption");
  }
  // Timed end to end — spill read, decode, engine rebuild, restore,
  // tombstone — into the fault-in histogram; this is the latency a request
  // pays when it lands on a cold session (DESIGN.md §12/§13).
  const auto fault_start = std::chrono::steady_clock::now();
  PDM_CHECK(slot->recipe != nullptr);  // only recipe sessions are evicted
  const RebuildRecipe& recipe = *slot->recipe;
  SessionPtr session;
  if (slot->unbuilt) {
    // Opened past the cap: the recipe builds exactly the session a built,
    // spilled and restored twin would hold.
    session = MakePooledSession(recipe.names[index - recipe.first_unbuilt],
                                scenario::MechanismRegistry::Builtin().Build(recipe.spec,
                                                                             recipe.info),
                                TicketBaseForIndex(index));
  } else {
    Status restored = RestoreSpillLocked(slot, index, &session);
    if (!restored.ok()) return restored;
  }
  slot->session = std::move(session);
  slot->evicted = false;
  slot->unbuilt = false;
  spill_bytes_.fetch_sub(slot->spill.size, std::memory_order_relaxed);
  slot->spill = SpillRecord{};
  resident_sessions_.fetch_add(1, std::memory_order_relaxed);
  fault_ins_.fetch_add(1, std::memory_order_relaxed);
  metrics_.fault_in_ns.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - fault_start)
          .count()));
  return Status::Ok();
}

Status Broker::RestoreSpillLocked(SessionSlot* slot, size_t index, SessionPtr* out) {
  // One read buffer per request thread, reused by every fault-in.
  thread_local std::string bytes;
  switch (spill_store_->Read(slot->spill, &bytes)) {
    case SpillStore::ReadResult::kOk:
      break;
    case SpillStore::ReadResult::kMissing:
      // An evicted slot whose pack vanished has no state left to restore.
      QuarantineLocked(slot, {});
      return Status::DataLoss("spill pack missing for evicted session");
    case SpillStore::ReadResult::kError:
      // The bytes are presumably still on disk — a retry may succeed, so
      // this is NOT a quarantine.
      return Status::Unavailable("spill read failed (transient I/O error)");
  }
  SessionSnapshot snapshot;
  Status decoded = DecodeSessionSnapshot(bytes, &snapshot);
  if (!decoded.ok()) {
    QuarantineLocked(slot, bytes);
    return Status::DataLoss("corrupt spill quarantined: " + decoded.message());
  }
  SessionPtr session = MakePooledSession(
      snapshot.product,
      scenario::MechanismRegistry::Builtin().Build(slot->recipe->spec,
                                                   slot->recipe->info),
      TicketBaseForIndex(index));
  // Restore is bit-exact: the snapshot carries raw IEEE-754 bit patterns,
  // and the rebuilt engine restores the knowledge set, counters,
  // symmetrization phase, and every outstanding ticket (same ticket base —
  // the slot never moved), so the resumed session is indistinguishable from
  // one that was never evicted (pinned in tests/broker_test.cc).
  Status restored = session->Restore(snapshot);
  if (!restored.ok()) {
    // The checksum was intact but the state does not apply (e.g. a foreign
    // ticket base after an out-of-order recovery): the accumulated knowledge
    // set is unusable — data loss, not a retry.
    QuarantineLocked(slot, bytes);
    return Status::DataLoss("spill decoded but did not restore: " +
                            restored.message());
  }
  // The record is consumed. Tombstoning it in place, before the session
  // can move past it, is what keeps a restart from adopting it (DESIGN.md
  // §14). If that write fails the record is still live and so is the slot's
  // claim on it: the touch fails Unavailable, the slot stays evicted, and a
  // retry faults in again.
  if (!spill_store_->Consume(slot->spill)) {
    return Status::Unavailable("spill tombstone write failed (transient I/O error)");
  }
  *out = std::move(session);
  return Status::Ok();
}

Broker::LockedSlot Broker::AcquireHandle(ProductHandle handle) {
  LockedSlot acquired;
  SessionSlot* slot = ProbeHandle(handle);
  if (slot == nullptr) {
    acquired.error = StaleHandleError();
    return acquired;
  }
  std::unique_lock<std::mutex> lock(slot->mu);
  // A slot an eviction wave owns is unchanged until the wave commits it.
  wave_done_.wait(lock, [slot] { return !slot->in_wave; });
  // Re-check under the lock: a close may have won the race after the probe.
  // `state` is only written under `mu`, so relaxed is sufficient here.
  if (slot->state.load(std::memory_order_relaxed) != handle.generation) {
    acquired.error = StaleHandleError();
    return acquired;
  }
  if (slot->evicted) {
    Status faulted = FaultInLocked(slot, handle.index);
    if (!faulted.ok()) {
      acquired.error = std::move(faulted);
      return acquired;
    }
  }
  // LRU touch: a plain relaxed store — never a shared RMW on the hot path.
  slot->last_touch_epoch.store(sweep_epoch_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  acquired.slot = slot;
  acquired.lock = std::move(lock);
  return acquired;
}

Broker::LockedSlot Broker::AcquireTicket(uint64_t ticket) {
  LockedSlot acquired;
  uint32_t state = 0;
  SessionSlot* slot = ProbeTicket(ticket, &state);
  if (slot == nullptr) {
    acquired.error = Status::NotFound("ticket " + std::to_string(ticket) +
                                      " references no open session");
    return acquired;
  }
  std::unique_lock<std::mutex> lock(slot->mu);
  wave_done_.wait(lock, [slot] { return !slot->in_wave; });
  if (slot->state.load(std::memory_order_relaxed) != state) {
    acquired.error = Status::NotFound("ticket " + std::to_string(ticket) +
                                      " references no open session");
    return acquired;
  }
  if (slot->evicted) {
    Status faulted =
        FaultInLocked(slot, static_cast<size_t>((ticket >> 40) - 1));
    if (!faulted.ok()) {
      acquired.error = std::move(faulted);
      return acquired;
    }
  }
  slot->last_touch_epoch.store(sweep_epoch_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  acquired.slot = slot;
  acquired.lock = std::move(lock);
  return acquired;
}

void Broker::EnforceResidencyLimit() {
  size_t limit = config_.max_resident_sessions;
  if (limit == 0 || config_.spill_dir.empty()) return;
  if (resident_sessions_.load(std::memory_order_relaxed) <= limit) return;
  // Try-lock: if another thread is already sweeping (or the control plane
  // is mutating the directory), this request proceeds un-throttled rather
  // than convoying — the cap is a soft target.
  std::unique_lock control(control_mu_, std::try_to_lock);
  if (!control.owns_lock()) return;
  // Sweep W − 1 below the cap: the wave spills W victims at once, and the
  // next W − 1 fault-ins find headroom and pay no sweep (DESIGN.md §12).
  const size_t wave = WaveSizeForCap(limit);
  EvictLocked(limit - (wave - 1), wave);
}

size_t Broker::EvictIdleSessions(size_t max_resident) {
  if (config_.spill_dir.empty()) return 0;
  std::lock_guard control(control_mu_);
  return EvictLocked(max_resident, kMaxWave);
}

size_t Broker::EvictLocked(size_t max_resident, size_t wave_size) {
  std::vector<WaveVictim> wave;
  size_t evicted = 0;
  bool waved = false;
  if (resident_sessions_.load(std::memory_order_relaxed) > max_resident) {
    // Advance the sweep epoch first: sessions touched after this point stamp
    // the new epoch and read as recently-used in this sweep — a CLOCK-style
    // LRU approximation that costs the hot path nothing.
    const uint64_t sweep = sweep_epoch_.fetch_add(1, std::memory_order_relaxed);
    const Directory* dir = directory_.Load();
    const size_t n = dir->slots.size();
    wave.reserve(wave_size);
    // Incremental CLOCK hand: resume scanning where the previous sweep
    // stopped instead of rebuilding and sorting an O(N) candidate vector per
    // over-cap fault (at 100k products that sort dominated fault-in
    // latency). Pass 0 takes only slots untouched since before the previous
    // sweep (touched < sweep); if the cap is still exceeded after a full
    // revolution, pass 1 relaxes to everything touched at or before this
    // sweep's start (touched == sweep) — the same candidate set the old
    // sorted sweep considered, minus the exact-staleness ordering, which no
    // caller depends on. Waves share the walk, so one sweep still visits
    // each slot at most once per pass.
    int pass = 0;
    size_t scanned = 0;
    auto threshold = [&] { return sweep - 1 + static_cast<uint64_t>(pass); };
    // The next slot under the hand that may be a victim, or nullptr once
    // both passes are done. Touches racing with this sweep stamp the
    // post-bump epoch (sweep + 1) and are skipped; the per-victim re-check
    // happens under the slot lock.
    auto next_candidate = [&](size_t* index) -> SessionSlot* {
      for (; pass < 2; ++pass, scanned = 0) {
        while (scanned < n) {
          ++scanned;
          const size_t i = clock_hand_ % n;  // directory can grow between sweeps
          clock_hand_ = (clock_hand_ + 1) % n;
          SessionSlot* slot = dir->slots[i];
          if ((slot->state.load(std::memory_order_acquire) & 1) == 0) continue;
          if (slot->recipe == nullptr) continue;  // caller-built: not evictable
          if (slot->last_touch_epoch.load(std::memory_order_relaxed) > threshold()) {
            continue;
          }
          *index = i;
          return slot;
        }
      }
      return nullptr;
    };
    // A wave whose pack fails to land ends the sweep: a failing disk is
    // written once per sweep, and the next sweep retries.
    for (;;) {
      // Gather one wave in CLOCK order: each victim is locked, re-checked,
      // snapshotted and encoded, and marked `in_wave` — requests then wait
      // for the wave instead of changing a session it has snapshotted —
      // and unlocked, so the wave holds one slot lock at a time.
      while (wave.size() < wave_size &&
             resident_sessions_.load(std::memory_order_relaxed) > max_resident + wave.size()) {
        size_t index = 0;
        SessionSlot* slot = next_candidate(&index);
        if (slot == nullptr) break;
        std::lock_guard slot_lock(slot->mu);
        if ((slot->state.load(std::memory_order_relaxed) & 1) == 0) continue;
        if (slot->evicted || slot->in_wave || slot->session == nullptr) continue;
        if (slot->last_touch_epoch.load(std::memory_order_relaxed) > threshold()) continue;
        SessionSnapshot snapshot;
        SpillRecord record;
        // Engines without snapshot support are skipped — they simply stay
        // resident — as is a record that would push the pack past 4 GiB.
        if (!slot->session->Snapshot(&snapshot).ok() ||
            !spill_store_->Append(snapshot, &record)) {
          continue;
        }
        slot->in_wave = true;
        wave.push_back(WaveVictim{slot, index, record});
      }
      if (wave.empty()) break;
      waved = true;
      if (!SpillWave(&wave, &evicted)) break;
    }
  }
  // Even a sweep that evicts nothing cleans the sparse packs and unlinks
  // the packs that died before it.
  if (!waved) SpillWave(&wave, &evicted);
  return evicted;
}

bool Broker::SpillWave(std::vector<WaveVictim>* wave, size_t* evicted) {
  // The pack cleaner (DESIGN.md §12): copy the live records of every sparse
  // pack, bytes unchanged, into this wave's pack. Their slots are only
  // try-locked — a slot a request holds stays put until a later wave — and
  // the wave owns each one it copies until the old copy retires.
  std::vector<Relocation> moves;
  for (const SparseOwner& owner : spill_store_->SparseOwners()) {
    SessionSlot* slot = slots_[owner.owner];
    std::unique_lock slot_lock(slot->mu, std::try_to_lock);
    if (!slot_lock.owns_lock()) continue;
    if ((slot->state.load(std::memory_order_relaxed) & 1) == 0 || !slot->evicted ||
        slot->quarantined || slot->unbuilt || slot->in_wave ||
        slot->spill.pack != owner.pack) {
      continue;  // a stale owner: the slot has left this pack
    }
    SpillRecord copy;
    if (!spill_store_->AppendCopy(slot->spill, &copy)) continue;
    slot->in_wave = true;
    moves.push_back(Relocation{slot, owner.owner, copy});
  }
  // The victims' envelopes, encoded in CLOCK order during the gather, and
  // the relocated copies are in the pending pack; one write, fsync, rename
  // and directory fsync land them all (DESIGN.md §12, §14). At no instant
  // does a pack name reference torn bytes, and once the directory fsync
  // returns the pack survives an OS crash. A failed pack keeps every victim
  // resident and every relocated slot on its old record — losing residency
  // headroom beats losing state.
  bool landed = true;
  uint64_t pack = 0;
  if (!wave->empty() || !moves.empty()) {
    std::vector<uint32_t> owners;
    owners.reserve(wave->size() + moves.size());
    for (const WaveVictim& victim : *wave) owners.push_back(static_cast<uint32_t>(victim.index));
    for (const Relocation& move : moves) owners.push_back(move.index);
    landed = spill_store_->CommitPack(owners, &pack);
  }
  // Only now that the new copies are durable does each old copy retire: a
  // crash in between leaves two byte-identical records, and the startup
  // sweep keeps the newer. A failed retire leaves the slot on its old
  // record and retires the new copy instead.
  for (Relocation& move : moves) {
    std::lock_guard slot_lock(move.slot->mu);
    if (landed) {
      move.copy.pack = pack;
      if (spill_store_->Consume(move.slot->spill)) {
        move.slot->spill = move.copy;
        relocations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        spill_store_->Discard(std::span<const SpillRecord>(&move.copy, 1));
      }
    }
    move.slot->in_wave = false;
  }
  // The packs this wave's retires emptied, and those fault-ins emptied
  // since the previous wave, go before the victims are released: after that
  // the sweep goes straight on to gather the next wave.
  spill_store_->UnlinkDeadPacks();
  for (const WaveVictim& victim : *wave) {
    SessionSlot* slot = victim.slot;
    std::lock_guard slot_lock(slot->mu);
    if (landed) {
      slot->session.reset();
      slot->evicted = true;
      slot->spill = victim.record;
      slot->spill.pack = pack;
      spill_bytes_.fetch_add(victim.record.size, std::memory_order_relaxed);
      resident_sessions_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      ++*evicted;
    }
    slot->in_wave = false;
  }
  if (!landed) metrics_.spill_write_errors.Add(wave->size());
  wave->clear();
  wave_done_.notify_all();
  return landed;
}

void Broker::SumTotals(BrokerStats* stats) const {
  const Directory* dir = directory_.Load();
  for (const SessionSlot* slot : dir->slots) {
    stats->quotes += slot->quotes.value();
    stats->accepts += slot->accepts.value();
    stats->rejects += slot->rejects.value();
    stats->regret_proxy += slot->rejected_value.value();
  }
  stats->open_sessions = dir->by_name.size();
  stats->resident_sessions = resident_sessions_.load(std::memory_order_relaxed);
  stats->evictions = evictions_.load(std::memory_order_relaxed);
  stats->fault_ins = fault_ins_.load(std::memory_order_relaxed);
  stats->spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
  stats->spill_file_bytes = spill_store_ != nullptr ? spill_store_->file_bytes() : 0;
  stats->relocations = relocations_.load(std::memory_order_relaxed);
}

void Broker::Collect() {
  BrokerStats now;
  SumTotals(&now);
  // The evicted gauge counts every open session without a live engine,
  // quarantined ones included; an open or close in flight can briefly put
  // the resident count ahead of the directory.
  now.evicted_sessions =
      now.open_sessions - std::min(now.resident_sessions, now.open_sessions);
  // Add only what changed since the previous scrape: brokers sharing a
  // registry then report their sum, and counters never step back.
  auto gauge_delta = [](size_t after, size_t before) {
    return static_cast<double>(after) - static_cast<double>(before);
  };
  collected_.quotes.Add(now.quotes - reported_.quotes);
  collected_.accepts.Add(now.accepts - reported_.accepts);
  collected_.rejects.Add(now.rejects - reported_.rejects);
  collected_.evictions.Add(now.evictions - reported_.evictions);
  collected_.fault_ins.Add(now.fault_ins - reported_.fault_ins);
  collected_.regret.Add(now.regret_proxy - reported_.regret_proxy);
  collected_.resident.Add(gauge_delta(now.resident_sessions, reported_.resident_sessions));
  collected_.evicted.Add(gauge_delta(now.evicted_sessions, reported_.evicted_sessions));
  collected_.open_products.Add(gauge_delta(now.open_sessions, reported_.open_sessions));
  collected_.spill.Add(gauge_delta(now.spill_bytes, reported_.spill_bytes));
  collected_.spill_files.Add(gauge_delta(now.spill_file_bytes, reported_.spill_file_bytes));
  collected_.relocations.Add(now.relocations - reported_.relocations);
  batch_sizes_.CollectInto(&collected_.batch_size);
  reported_ = now;
}

BrokerStats Broker::Stats() const {
  BrokerStats stats;
  std::lock_guard control(control_mu_);
  SumTotals(&stats);
  const Directory* dir = directory_.Load();
  stats.slab_total_slots = slots_.size();
  stats.slab_tombstoned_slots = slots_tombstoned_;
  stats.slab_live_slots = slots_.size() - slots_tombstoned_;
  stats.slab_free_capacity = kMaxSessions - slots_.size();
  for (SessionSlot* slot : dir->slots) {
    if ((slot->state.load(std::memory_order_acquire) & 1) == 0) continue;
    std::lock_guard slot_lock(slot->mu);
    if ((slot->state.load(std::memory_order_relaxed) & 1) == 0) continue;
    if (slot->quarantined) {
      ++stats.quarantined_sessions;
    } else if (slot->evicted) {
      ++stats.evicted_sessions;
    } else if (slot->session != nullptr) {
      stats.retired_ticket_slots += slot->session->retired_ticket_slots();
    }
  }
  {
    std::lock_guard arena_lock(const_cast<Broker*>(this)->arena_mu_);
    stats.arena_bytes_reserved = arena_.bytes_reserved();
    stats.arena_bytes_used = arena_.bytes_used();
  }
  return stats;
}

Status Broker::PostPrice(ProductHandle handle, std::span<const double> features,
                         double reserve, Quote* quote) {
  if (quote == nullptr) return Status::InvalidArgument("null quote output");
  const HandleRequest request{handle, features, reserve};
  return PostPrices(std::span<const HandleRequest>(&request, 1),
                    std::span<Quote>(quote, 1));
}

Status Broker::PostPrice(const PriceRequest& request, Quote* quote) {
  if (quote == nullptr) return Status::InvalidArgument("null quote output");
  ProductHandle handle;
  Status resolved = Resolve(request.product, &handle);
  if (!resolved.ok()) {
    quote->ticket = 0;
    quote->status = resolved.code();
    return resolved;
  }
  return PostPrice(handle, request.features, request.reserve, quote);
}

Status Broker::PostGroup(std::span<const HandleRequest> group, std::span<Quote> quotes,
                         size_t* error_index) {
  LockedSlot acquired = AcquireHandle(group.front().handle);
  if (!acquired) {
    for (Quote& quote : quotes) {
      quote.ticket = 0;
      quote.status = acquired.error.code();
    }
    *error_index = 0;
    return std::move(acquired.error);
  }
  // The session prices the group through its batched entry point: batched
  // engines then spend one matrix–panel pass per kQuoteTile-sized run
  // (DESIGN.md §11) instead of one mat-vec per request, still under the
  // single lock acquisition.
  Status status = acquired.session()->PostPrices(group, quotes, error_index);
  uint64_t issued = 0;
  for (const Quote& quote : quotes) issued += quote.status == StatusCode::kOk ? 1 : 0;
  // Counted on the slot this group holds locked: no shared line touched.
  acquired.slot->quotes.Add(issued);
  return status;
}

Status Broker::PostPricesGrouped(std::span<const HandleRequest> requests,
                                 std::span<Quote> quotes, size_t* error_index) {
  batch_sizes_.Record(requests.size());
  *error_index = requests.size();
  if (requests.empty()) return Status::Ok();
  // One session (every single PostPrice, and a client's per-product batch):
  // the batch is its own group, handed over in place.
  const ProductHandle leader = requests.front().handle;
  if (std::all_of(requests.begin(), requests.end(),
                  [leader](const HandleRequest& r) { return r.handle == leader; })) {
    return PostGroup(requests, quotes, error_index);
  }
  // Group by session: the first unprocessed request opens its session's
  // group and gathers every later request for the same session in batch
  // order. O(batch × groups) scans, zero allocations, and — crucially — one
  // lock acquisition per session per batch instead of one per request.
  // Groups execute in leader order, not batch order, so "first failure" is
  // tracked by batch position: `positions` is increasing, so a group's
  // lowest failing position is its first.
  Status first_error;
  BatchScratch& scratch = Scratch();
  scratch.ResetDone(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (scratch.Done(i)) continue;
    const ProductHandle handle = requests[i].handle;
    scratch.positions.clear();
    scratch.group_requests.clear();
    scratch.group_quotes.clear();
    for (size_t j = i; j < requests.size(); ++j) {
      if (scratch.Done(j) || requests[j].handle != handle) continue;
      scratch.MarkDone(j);
      scratch.positions.push_back(j);
      scratch.group_requests.push_back(requests[j]);
      scratch.group_quotes.push_back(quotes[j]);
    }
    size_t group_error = 0;
    Status status = PostGroup(scratch.group_requests, scratch.group_quotes, &group_error);
    for (size_t g = 0; g < scratch.positions.size(); ++g) {
      quotes[scratch.positions[g]] = scratch.group_quotes[g];
    }
    if (!status.ok() && scratch.positions[group_error] < *error_index) {
      *error_index = scratch.positions[group_error];
      first_error = std::move(status);
    }
  }
  return first_error;
}

Status Broker::PostPrices(std::span<const HandleRequest> requests,
                          std::span<Quote> quotes) {
  if (requests.size() != quotes.size()) {
    return Status::InvalidArgument(
        "request/quote span size mismatch: " + std::to_string(requests.size()) +
        " vs " + std::to_string(quotes.size()));
  }
  EnforceResidencyLimit();
  size_t error_index = 0;
  return PostPricesGrouped(requests, quotes, &error_index);
}

Status Broker::PostPrices(std::span<const PriceRequest> requests,
                          std::span<Quote> quotes) {
  if (requests.size() != quotes.size()) {
    return Status::InvalidArgument(
        "request/quote span size mismatch: " + std::to_string(requests.size()) +
        " vs " + std::to_string(quotes.size()));
  }
  EnforceResidencyLimit();
  // Lower names onto the handle path once per batch. Runs of the same
  // product (the common client pattern) resolve once; the grouped handle
  // batch then takes each session lock once. The returned Status is the
  // failure at the *lowest batch position*, whether it came from name
  // resolution here or from the session level inside the grouped batch —
  // resolution failures keep their "unknown product" message.
  Status resolve_error;
  size_t resolve_error_index = requests.size();
  BatchScratch& scratch = Scratch();
  scratch.handle_requests.resize(requests.size());
  std::string_view cached_product;
  ProductHandle cached_handle;
  Status cached_status;
  bool have_cached = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!have_cached || requests[i].product != cached_product) {
      cached_status = Resolve(requests[i].product, &cached_handle);
      cached_product = requests[i].product;
      have_cached = true;
    }
    if (!cached_status.ok() && i < resolve_error_index) {
      resolve_error = cached_status;
      resolve_error_index = i;
    }
    scratch.handle_requests[i] = {cached_handle, requests[i].features,
                                  requests[i].reserve};
  }
  size_t batch_error_index = requests.size();
  Status batch_error = PostPricesGrouped(
      std::span<const HandleRequest>(scratch.handle_requests), quotes,
      &batch_error_index);
  // At equal positions the resolution error wins: it names the product.
  if (resolve_error_index <= batch_error_index && !resolve_error.ok()) {
    return resolve_error;
  }
  return batch_error;
}

Status Broker::Observe(uint64_t ticket, bool accepted) {
  const FeedbackRequest feedback{ticket, accepted};
  return Observes(std::span<const FeedbackRequest>(&feedback, 1));
}

Status Broker::Observes(std::span<const FeedbackRequest> feedback,
                        std::span<StatusCode> codes) {
  if (!codes.empty() && codes.size() != feedback.size()) {
    return Status::InvalidArgument(
        "feedback/code span size mismatch: " + std::to_string(feedback.size()) +
        " vs " + std::to_string(codes.size()));
  }
  EnforceResidencyLimit();
  batch_sizes_.Record(feedback.size());
  if (feedback.empty()) return Status::Ok();
  // One session (every single Observe, and a client's per-product batch):
  // the batch is its own group, handed over in place.
  const uint64_t leader = feedback.front().ticket >> 40;
  if (std::all_of(feedback.begin(), feedback.end(), [leader](const FeedbackRequest& f) {
        return (f.ticket >> 40) == leader;
      })) {
    size_t group_error = 0;
    return ObserveGroup(feedback, codes, &group_error);
  }
  // Same grouping discipline as the batched PostPrices: one session lock
  // acquisition per distinct ticket base per batch, items in batch order,
  // and the first failure by batch position.
  Status first_error;
  size_t error_index = feedback.size();
  BatchScratch& scratch = Scratch();
  scratch.ResetDone(feedback.size());
  for (size_t i = 0; i < feedback.size(); ++i) {
    if (scratch.Done(i)) continue;
    const uint64_t base = feedback[i].ticket >> 40;
    scratch.positions.clear();
    scratch.group_feedback.clear();
    for (size_t j = i; j < feedback.size(); ++j) {
      if (scratch.Done(j) || (feedback[j].ticket >> 40) != base) continue;
      scratch.MarkDone(j);
      scratch.positions.push_back(j);
      scratch.group_feedback.push_back(feedback[j]);
    }
    scratch.group_codes.resize(scratch.positions.size());
    size_t group_error = 0;
    Status status = ObserveGroup(scratch.group_feedback, scratch.group_codes, &group_error);
    if (!codes.empty()) {
      for (size_t g = 0; g < scratch.positions.size(); ++g) {
        codes[scratch.positions[g]] = scratch.group_codes[g];
      }
    }
    if (!status.ok() && scratch.positions[group_error] < error_index) {
      error_index = scratch.positions[group_error];
      first_error = std::move(status);
    }
  }
  return first_error;
}

Status Broker::ObserveGroup(std::span<const FeedbackRequest> group,
                            std::span<StatusCode> codes, size_t* error_index) {
  LockedSlot acquired = AcquireTicket(group.front().ticket);
  if (!acquired) {
    for (StatusCode& code : codes) code = acquired.error.code();
    *error_index = 0;
    return std::move(acquired.error);
  }
  // Outcomes are tallied here and added to the slot while its lock is still
  // held — no shared line touched.
  Status first_error;
  *error_index = group.size();
  uint64_t accepts = 0;
  uint64_t rejects = 0;
  uint64_t retired = 0;
  double rejected_value = 0.0;
  for (size_t g = 0; g < group.size(); ++g) {
    ObserveResult result;
    Status status = acquired.session()->Observe(group[g].ticket, group[g].accepted, &result);
    if (!codes.empty()) codes[g] = status.code();
    if (!status.ok()) {
      if (*error_index == group.size()) {
        *error_index = g;
        first_error = std::move(status);
      }
      continue;
    }
    if (result.accepted) {
      ++accepts;
    } else {
      ++rejects;
      rejected_value += result.price;
    }
    if (result.slot_retired) ++retired;
  }
  acquired.slot->accepts.Add(accepts);
  acquired.slot->rejects.Add(rejects);
  acquired.slot->rejected_value.Add(rejected_value);
  // About once per 2^20 tickets on a slot: rare enough to push.
  if (retired != 0) metrics_.retirements.Add(retired);
  return first_error;
}

Status Broker::EstimateValue(ProductHandle handle, std::span<const double> features,
                             ValueInterval* out) const {
  // Acquire* may fault an evicted session back in: physically mutating,
  // logically const (the observable pricing state is unchanged).
  LockedSlot acquired = const_cast<Broker*>(this)->AcquireHandle(handle);
  if (!acquired) return std::move(acquired.error);
  return acquired.session()->EstimateValue(features, out);
}

Status Broker::EstimateValue(std::string_view product, std::span<const double> features,
                             ValueInterval* out) const {
  ProductHandle handle;
  Status resolved = Resolve(product, &handle);
  if (!resolved.ok()) return resolved;
  return EstimateValue(handle, features, out);
}

Status Broker::Snapshot(std::string_view product, SessionSnapshot* out) const {
  ProductHandle handle;
  Status resolved = Resolve(product, &handle);
  if (!resolved.ok()) return resolved;
  LockedSlot acquired = const_cast<Broker*>(this)->AcquireHandle(handle);
  if (!acquired) return std::move(acquired.error);
  return acquired.session()->Snapshot(out);
}

Status Broker::Restore(std::string_view product, const SessionSnapshot& snapshot) {
  ProductHandle handle;
  Status resolved = Resolve(product, &handle);
  if (!resolved.ok()) return resolved;
  LockedSlot acquired = AcquireHandle(handle);
  if (!acquired) return std::move(acquired.error);
  return acquired.session()->Restore(snapshot);
}

Status Broker::GetSessionInfo(std::string_view product, SessionInfo* out) const {
  if (out == nullptr) return Status::InvalidArgument("null info output");
  ProductHandle handle;
  Status resolved = Resolve(product, &handle);
  if (!resolved.ok()) return resolved;
  LockedSlot acquired = const_cast<Broker*>(this)->AcquireHandle(handle);
  if (!acquired) return std::move(acquired.error);
  const PricingSession& session = *acquired.session();
  out->product = session.product();
  out->engine_name = session.engine().name();
  out->pending = session.pending_count();
  out->quotes_issued = session.quotes_issued();
  out->feedback_received = session.feedback_received();
  out->posted_value = session.posted_value();
  out->accepted_value = session.accepted_value();
  out->counters = session.engine().counters();
  return Status::Ok();
}

std::vector<std::string> Broker::Products() const {
  const Directory* dir = directory_.Load();
  std::vector<std::string> names;
  names.reserve(dir->by_name.size());
  for (const auto& [name, handle] : dir->by_name) names.push_back(name);
  // The snapshot map is unordered; keep the public listing deterministic.
  std::sort(names.begin(), names.end());
  return names;
}

size_t Broker::session_count() const {
  return directory_.Load()->by_name.size();
}

const PricingEngine* Broker::FindEngine(std::string_view product) const {
  ProductHandle handle;
  if (!Resolve(product, &handle).ok()) return nullptr;
  LockedSlot acquired = const_cast<Broker*>(this)->AcquireHandle(handle);
  if (!acquired) return nullptr;
  return &acquired.session()->engine();
}

}  // namespace pdm::broker
