#ifndef PDM_BROKER_BROKER_H_
#define PDM_BROKER_BROKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "broker/session.h"
#include "broker/spill_store.h"
#include "common/arena.h"
#include "common/concurrency.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_spec.h"

/// \file
/// The serving front end: one `Broker` owns many named `PricingSession`s —
/// one per data product — behind a contention-free routing layer
/// (DESIGN.md §9).
///
/// This is the production-facing redesign of the public surface: where the
/// simulation layers expose "one engine in a loop", the broker exposes a
/// concurrency-safe request/feedback API in the style of an exchange front
/// end. Requests name their product (or carry a resolved `ProductHandle`);
/// quotes carry ticket ids whose high bits route feedback back to the owning
/// session without any global ticket table; feedback may be delayed and
/// interleaved across products. There is one request path: a single
/// `PostPrice`/`Observe` is a `PostPrices`/`Observes` batch of one. Misuse
/// (unknown product, stale handle,
/// duplicate/unknown ticket, dimension mismatch) returns a `pdm::Status` —
/// the broker never aborts on client input.
///
/// Concurrency model (full treatment in DESIGN.md §9): the product directory
/// is an immutable snapshot published through one atomic pointer
/// (`common/concurrency.h`), so request traffic performs *zero* atomic
/// read-modify-writes on shared state — a plain acquire load finds the
/// session, and the only lock taken is that session's own cache-line-padded
/// mutex. Sessions live in a grow-only slab (slots are tombstoned on close,
/// never reused), which is what makes `ProductHandle`s and ticket bases
/// stable for the broker's life. Steady-state PostPrice/Observe round trips
/// perform zero heap allocations (tests/allocation_test.cc);
/// `bench/bench_broker_throughput` and `bench/bench_broker_scaling` track
/// the multi-threaded round-trip rate and its scaling curve.
///
/// Memory model at scale (DESIGN.md §12): slot and session objects live in a
/// slab arena (`common/arena.h`) — slots are bump-allocated and never freed
/// (their lifetime IS the broker's), session objects recycle through an
/// `ArenaPool` as products close, evict, and fault back in. A configurable
/// cold tier bounds resident engine state: when more than
/// `max_resident_sessions` sessions hold live engines, the least-recently
/// touched evictable sessions are spilled to `spill_dir` as checksummed
/// `pdm.snap` blobs, in waves that each land as one crash-atomic pack file
/// (broker/spill_store.h, DESIGN.md §12, §14), and their in-memory state is
/// dropped; the next request
/// that touches an evicted product faults it back in transparently, and the
/// snapshot round trip makes the resumed session *bit-identical* to one that
/// was never evicted. Registry opens past the cap start *unbuilt*: no
/// engine and nothing on disk until their first touch builds them from the
/// recipe. Handles and outstanding tickets remain valid across
/// the round trip — the slot (and its ticket base) never moves.

namespace pdm::broker {

struct BrokerConfig {
  /// Cold-tier spill directory (created on demand). Empty disables the cold
  /// tier entirely: nothing is ever evicted and `max_resident_sessions` is
  /// ignored.
  std::string spill_dir;
  /// Soft cap on sessions holding live in-memory engines. 0 = unlimited.
  /// When the resident count exceeds the cap, request-path entry points
  /// trigger an eviction sweep (least-recently-touched first) down to
  /// cap − (W − 1), where W = WaveSizeForCap(cap) = min(64, max(1, cap / 32))
  /// is the cap's eviction-wave size (DESIGN.md §12): W victims spill as one
  /// pack file, and the next W − 1 fault-ins then pay no sweep. Caps below
  /// 64 keep a single-victim sweep down to the cap itself. Registry opens
  /// that would take the resident count past the cap open unbuilt (the
  /// first touch builds them, counted as a fault-in), so a bulk open never
  /// holds more than the cap in memory. Only registry-opened
  /// sessions (those with a rebuild recipe) are evictable; sessions opened
  /// with caller-built engines always stay resident, as does any session
  /// whose snapshot is not currently capturable.
  size_t max_resident_sessions = 0;
  /// Telemetry gateway (DESIGN.md §13). The broker resolves its instruments
  /// and registers its scrape-time collector in the constructor. The request
  /// path is the same with or without a gateway: it writes only the slot it
  /// holds locked and the calling thread's batch-size cell. Null leaves the few
  /// cold-path push instruments on the default sink handles. The gateway
  /// must outlive the broker.
  metrics::MetricGateway* metrics = nullptr;
};

/// What the startup sweep and spill adoption did (DESIGN.md §14); `pdm_serve`
/// prints this as its RECOVERY handshake line and tools/check_recovery.py
/// reconciles it against the pre-restart spill manifest.
struct RecoveryReport {
  /// Files with nothing live deleted at construction: `*.tmp` halves of
  /// torn pack writes, and packs whose every record was consumed.
  size_t tmp_reclaimed = 0;
  /// Valid spill records inventoried at construction (adoption
  /// candidates), one per product.
  size_t spills_found = 0;
  /// Spill records that failed checksum/decode at construction and were
  /// moved to `*.quarantined`.
  size_t corrupt_quarantined = 0;
  /// Inventoried spills adopted by OpenSession(s) so far.
  size_t adopted = 0;
  /// Unclaimed spills discarded by SweepUnclaimedSpills, plus older
  /// duplicates of a product's spill discarded at construction.
  size_t orphans_reclaimed = 0;
  /// Bytes freed by tmp + orphan reclamation.
  size_t bytes_reclaimed = 0;
};

/// A resolved fast-path reference to one open product: slab index plus the
/// slot's open-generation stamp. Steady-state clients `Resolve` once and
/// skip the name hash on every subsequent request. Handles stay valid until
/// the product is closed (eviction to the cold tier does NOT invalidate
/// handles); a stale handle fails with NotFound (never UB — slots are never
/// reused, so a retired handle can only miss). Handles are broker-specific;
/// presenting one to a different Broker is misuse and gets NotFound at best.
struct ProductHandle {
  static constexpr uint32_t kInvalidIndex = 0xFFFFFFFFu;
  /// Slab index of the session slot.
  uint32_t index = kInvalidIndex;
  /// The slot's state stamp observed at resolve time (odd = open).
  uint32_t generation = 0;

  bool valid() const { return index != kInvalidIndex; }
  friend bool operator==(const ProductHandle&, const ProductHandle&) = default;
};

/// One price request of the name-keyed batched entry point.
struct PriceRequest {
  /// Product (session) name.
  std::string_view product;
  /// Raw feature vector x_t; its length must match the session engine's
  /// input dimension.
  std::span<const double> features;
  /// Reserve price q_t.
  double reserve = 0.0;
};

/// One price request of the handle-keyed batched entry point (the
/// steady-state fast path: no string hashing anywhere).
struct HandleRequest {
  ProductHandle handle;
  std::span<const double> features;
  double reserve = 0.0;
};

/// One feedback item of the batched `Observes` entry point.
struct FeedbackRequest {
  uint64_t ticket = 0;
  bool accepted = false;
};

/// Monitoring/test surface for one session.
struct SessionInfo {
  std::string product;
  std::string engine_name;
  int64_t pending = 0;
  int64_t quotes_issued = 0;
  int64_t feedback_received = 0;
  /// Cumulative value-space regret-proxy inputs (see
  /// PricingSession::posted_value).
  double posted_value = 0.0;
  double accepted_value = 0.0;
  EngineCounters counters;
};

/// Broker-wide request totals plus memory and occupancy counters
/// (monitoring surface; `pdm_serve` prints them on shutdown). The request
/// totals and the occupancy/cold-tier fields come from the same summation
/// that feeds the `pdm_broker_*` scrape, so the two cannot disagree.
struct BrokerStats {
  /// Request totals over the broker's life, summed over every slot it ever
  /// opened (closed ones included, so these never decrease): quotes issued,
  /// feedback by outcome, and the value-space price of every rejected quote
  /// (the regret proxy).
  uint64_t quotes = 0;
  uint64_t accepts = 0;
  uint64_t rejects = 0;
  double regret_proxy = 0.0;
  /// Products currently open (directory size).
  size_t open_sessions = 0;
  /// Open sessions holding a live in-memory engine.
  size_t resident_sessions = 0;
  /// Open sessions in the cold tier: spilled, or opened unbuilt and not yet
  /// touched.
  size_t evicted_sessions = 0;
  /// Open sessions whose spill was quarantined as corrupt (DataLoss).
  size_t quarantined_sessions = 0;
  /// Slab occupancy: slots serving an open session / tombstoned by close /
  /// total ever allocated / remaining lifetime capacity.
  size_t slab_live_slots = 0;
  size_t slab_tombstoned_slots = 0;
  size_t slab_total_slots = 0;
  size_t slab_free_capacity = 0;
  /// Cumulative cold-tier traffic.
  uint64_t evictions = 0;
  uint64_t fault_ins = 0;
  /// Bytes of the live spill records.
  size_t spill_bytes = 0;
  /// Bytes of the pack files that hold a live record. For records of one
  /// size this stays within 8× `spill_bytes` once a sweep has run
  /// (DESIGN.md §12).
  size_t spill_file_bytes = 0;
  /// Live records the pack cleaner has moved out of sparse packs.
  uint64_t relocations = 0;
  /// Ticket slots permanently retired at the generation bound, summed over
  /// resident sessions (evicted sessions' retirements reappear on fault-in).
  int64_t retired_ticket_slots = 0;
  /// Slab-arena footprint (slot + session blocks).
  size_t arena_bytes_reserved = 0;
  size_t arena_bytes_used = 0;
};

/// The broker is its own scrape-time metrics collector (DESIGN.md §13): it
/// registers with the configured gateway at construction and unregisters
/// first thing in its destructor, while its slots are still alive.
class Broker : private metrics::MetricCollector {
 public:
  explicit Broker(const BrokerConfig& config = {});
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // ------------------------------------------------------ control plane

  /// Opens a session serving `product` with a caller-built engine. Such a
  /// session has no rebuild recipe and is therefore never evicted. Errors:
  /// InvalidArgument (empty name, null engine), FailedPrecondition
  /// (duplicate product).
  Status OpenSession(std::string product, std::unique_ptr<PricingEngine> engine);

  /// Registry path: builds the engine for `spec` (mechanism name, link,
  /// geometry) through `scenario::MechanismRegistry::Builtin()` and opens a
  /// session named `product`. The (spec, info) pair is retained as the
  /// session's rebuild recipe, making it cold-tier evictable. Errors:
  /// additionally InvalidArgument for an unknown mechanism name.
  Status OpenSession(std::string product, const scenario::ScenarioSpec& spec,
                     const scenario::WorkloadInfo& info);

  /// Bulk registry open: every product in `products` gets its own session
  /// built from the shared (spec, info) recipe, all published in ONE
  /// directory snapshot. This is the scale path: a directory publish copies
  /// the whole name map, so opening N products one by one costs O(N²) map
  /// work and retains N snapshot generations, while one batch costs O(N)
  /// and retains one (DESIGN.md §12). All-or-nothing: on any validation
  /// failure (empty/duplicate name, unknown mechanism, slab exhaustion)
  /// nothing is opened.
  Status OpenSessions(std::span<const std::string> products,
                      const scenario::ScenarioSpec& spec,
                      const scenario::WorkloadInfo& info);

  /// Closes a session; its tickets and any resolved handles become
  /// unroutable (→ NotFound). Reopening the same name later creates a fresh
  /// slot — old handles stay dead. Closing an evicted session discards its
  /// spill record without faulting it in.
  Status CloseSession(std::string_view product);

  /// Resolves `product` to a fast-path handle (one immutable-map lookup).
  /// Errors: NotFound (unknown product), InvalidArgument (null output).
  Status Resolve(std::string_view product, ProductHandle* handle) const;

  // ------------------------------------------------- request fast path

  /// Prices one request against a resolved handle, filling `*quote`
  /// (ticket, price, flags): PostPrices of one. Errors: NotFound
  /// (stale/closed/foreign handle), plus the session-level statuses
  /// (dimension mismatch, ...).
  Status PostPrice(ProductHandle handle, std::span<const double> features,
                   double reserve, Quote* quote);

  /// Handle-keyed batch: prices `requests[i]` into `quotes[i]`, grouping
  /// the batch by session so each session's lock is taken once per batch
  /// (not once per request). Within one session, requests are processed in
  /// batch order. Individual request failures do not abort the batch — each
  /// failed quote carries its status code (and ticket 0) and the returned
  /// Status is the failure at the lowest batch position. Errors:
  /// InvalidArgument when the spans' sizes differ.
  Status PostPrices(std::span<const HandleRequest> requests, std::span<Quote> quotes);

  /// Name-keyed wrappers over the handle path (one directory lookup per
  /// distinct name run, then identical routing).
  Status PostPrice(const PriceRequest& request, Quote* quote);
  Status PostPrices(std::span<const PriceRequest> requests, std::span<Quote> quotes);

  /// Routes accept/reject feedback to the ticket's session: Observes of
  /// one. Errors: NotFound (ticket of a closed session, unknown or
  /// already-resolved ticket — duplicate feedback lands here).
  Status Observe(uint64_t ticket, bool accepted);

  /// Batched feedback, grouped by owning session exactly like PostPrices
  /// (one lock acquisition per session per batch, items in batch order
  /// within a session). `codes`, when non-empty, must match `feedback` in
  /// size and receives the per-item outcome; the returned Status is the
  /// failure at the lowest batch position. Errors: InvalidArgument on a
  /// size mismatch.
  Status Observes(std::span<const FeedbackRequest> feedback,
                  std::span<StatusCode> codes = {});

  // ----------------------------------------------------- cold tier

  /// Evicts least-recently-touched evictable sessions until at most
  /// `max_resident` remain resident (or no candidates are left) — down to
  /// `max_resident` itself, without the request path's W − 1 headroom — in
  /// waves of up to 64 victims, each spilled as one pack file. A wave whose
  /// pack fails to land ends the sweep: its victims stay resident and the
  /// next sweep retries. Returns the number evicted. Every call runs at
  /// least one wave, which relocates the live records of sparse packs and
  /// unlinks the packs that died since the previous wave. A no-op (returns
  /// 0) when the broker has no spill_dir. Also the manual monitoring hook —
  /// the request path runs the same sweep automatically when
  /// `max_resident_sessions` is exceeded.
  size_t EvictIdleSessions(size_t max_resident);

  /// Discards inventoried spill records no OpenSession(s) call has adopted
  /// (tombstoned, or unlinked with their pack) and returns how many were
  /// reclaimed. Call once the serving fleet is open
  /// (pdm_serve does): anything still unclaimed belonged to a product this
  /// process will never serve — the spill-leak fix for unclean shutdowns.
  /// Previously-quarantined files are deliberately left on disk as evidence.
  size_t SweepUnclaimedSpills();

  /// Snapshot of the recovery bookkeeping (startup sweep + adoptions so far).
  RecoveryReport recovery_report() const;

  /// Broker-wide request totals and occupancy/memory counters (takes each
  /// live slot's lock briefly for the quarantine/eviction split; intended
  /// for monitoring cadence, not the request path).
  BrokerStats Stats() const;

  /// Lock-free counter reads, cheap enough for the request path (the memory
  /// soak bench classifies per-touch latency by watching fault_in_count()
  /// move across a touch).
  uint64_t fault_in_count() const {
    return fault_ins_.load(std::memory_order_relaxed);
  }
  uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t resident_count() const {
    return resident_sessions_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------- diagnostics

  /// Current knowledge-set bounds for a query (diagnostic surface).
  Status EstimateValue(std::string_view product, std::span<const double> features,
                       ValueInterval* out) const;
  Status EstimateValue(ProductHandle handle, std::span<const double> features,
                       ValueInterval* out) const;

  /// Captures the product's full resumable session state.
  Status Snapshot(std::string_view product, SessionSnapshot* out) const;

  /// Restores a snapshot into the product's session (engine families must
  /// match; see PricingSession::Restore for the ticket-base contract).
  Status Restore(std::string_view product, const SessionSnapshot& snapshot);

  /// Monitoring/test surface.
  Status GetSessionInfo(std::string_view product, SessionInfo* out) const;
  std::vector<std::string> Products() const;
  size_t session_count() const;

  /// The session's engine, for read-only diagnostics while no concurrent
  /// traffic targets the product (tests, the driver); nullptr when unknown.
  /// Faults an evicted session in like any other touch.
  const PricingEngine* FindEngine(std::string_view product) const;

 private:
  /// How a registry-opened session is rebuilt at fault-in time: the same
  /// (spec, info) pair that built its engine at open. Shared across a bulk
  /// open, so a million-product batch stores ONE recipe, not a million.
  /// It also keeps the names of the batch's unbuilt products, which have
  /// no session or spill to carry one: slot `first_unbuilt + i` is named
  /// `names[i]`.
  struct RebuildRecipe {
    scenario::ScenarioSpec spec;
    scenario::WorkloadInfo info;
    size_t first_unbuilt = 0;
    std::vector<std::string> names;
  };

  /// Pooled-session deleter: returns the object's storage to the broker's
  /// arena pool instead of the heap (see common/arena.h).
  struct PoolDeleter {
    // Explicit constructors (not an NSDMI): a nested class's default member
    // initializers only parse at the enclosing class's closing brace, which
    // would leave unique_ptr's default constructor unusable inside Broker.
    PoolDeleter() : broker(nullptr) {}
    explicit PoolDeleter(Broker* b) : broker(b) {}
    void operator()(PricingSession* session) const;
    Broker* broker;
  };
  using SessionPtr = std::unique_ptr<PricingSession, PoolDeleter>;

  /// One slab slot: the per-session lock plus the session it guards, padded
  /// to its own cache line so traffic on neighbouring sessions never
  /// false-shares. `state` is the open-generation stamp (odd = open, even =
  /// closed); it is bumped under `mu`, so holders of `mu` may read it
  /// relaxed, while the lock-free pre-check uses acquire.
  ///
  /// Wrap-safety: slots are tombstoned on close and never reused, so one
  /// slot's stamp only ever steps 0 → 1 (open) → 2 (closed) — the uint32_t
  /// cannot wrap however hard open/close churns, because churn consumes
  /// fresh slots, not fresh generations. The churn bound lives in the slab
  /// instead: a broker refuses to open more than 2^24 - 2 sessions over its
  /// lifetime (FailedPrecondition "session-slot space exhausted"), which is
  /// also what keeps ticket bases unique forever (DESIGN.md §9).
  ///
  /// Cold-tier state: an *evicted* slot keeps its odd `state` (handles and
  /// tickets stay routable) but holds no session — `evicted` is true and
  /// `spill` says where its serialized bytes sit: which pack file, at what
  /// offset, how many bytes (broker/spill_store.h). `last_touch_epoch` is the
  /// eviction sweep's LRU clock: Acquire* stamps it with the current sweep
  /// epoch using plain relaxed stores, so the request hot path stays free
  /// of shared read-modify-writes (DESIGN.md §9's core invariant).
  ///
  /// Request counters: the product's quote and feedback tallies live here,
  /// next to the LRU stamp, because the request already holds `mu` — so
  /// counting costs a load and a store on a line it owns, and the scrape
  /// sums them lock-free (DESIGN.md §13). They belong to the slot, not the
  /// session, so they survive eviction, fault-in and close.
  ///
  /// Eviction waves: from a victim's snapshot to its commit, and from a
  /// relocated record's copy to its retire, the wave owns the slot without
  /// holding its lock — `in_wave` is set, and Acquire* waits on
  /// `wave_done_` until the wave has committed it (DESIGN.md §12).
  ///
  /// Layout (glibc, 40-byte mutex): line 0 holds `state`, the four
  /// cold-tier flags (in the padding before `mu`), `mu` and `session`;
  /// line 1 holds everything else.
  struct alignas(kCacheLineSize) SessionSlot {
    std::atomic<uint32_t> state{0};
    /// Guarded by `mu`.
    bool evicted = false;
    /// The slot's spill failed checksum or decode on fault-in: its bytes
    /// were copied to `*.quarantined`, its record retired, and every touch
    /// answers DataLoss without retrying the bytes (DESIGN.md §14).
    /// Guarded by `mu`.
    bool quarantined = false;
    /// Opened past the cap and never touched since: `evicted` is set too,
    /// but there is no spill record — the first touch builds the session
    /// from `recipe`, which keeps its name. Guarded by `mu`.
    bool unbuilt = false;
    /// An eviction wave owns the slot (see above). Guarded by `mu`.
    bool in_wave = false;
    std::mutex mu;
    /// Guarded by `mu` (+ a state check: non-null iff state is odd and the
    /// slot is not evicted).
    SessionPtr session;
    /// The slot's spill record (all zero unless evicted and not
    /// quarantined). Guarded by `mu`.
    SpillRecord spill;
    /// Immutable after the slot is published; null for caller-built engines
    /// (such sessions are never evicted). Owned by `recipes_`.
    const RebuildRecipe* recipe = nullptr;
    /// LRU clock stamp (see above). Plain loads/stores only.
    std::atomic<uint64_t> last_touch_epoch{0};
    /// Request counters (see above): written under `mu`, read by SumTotals.
    SingleWriterCounter<uint64_t> quotes;
    SingleWriterCounter<uint64_t> accepts;
    SingleWriterCounter<uint64_t> rejects;
    /// Value-space price of every rejected quote (the regret proxy).
    SingleWriterCounter<double> rejected_value;
  };
  static_assert(sizeof(std::mutex) != 40 || sizeof(SessionSlot) == 2 * kCacheLineSize,
                "SessionSlot outgrew its two cache lines");

  /// Transparent string hashing so hot name lookups take string_views.
  struct StringViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// The immutable directory snapshot: name → handle for resolution, plus
  /// the grow-only slot view for index routing (tickets, handles). A new
  /// snapshot is published on every open/close; readers see either the old
  /// or the new one, both internally consistent. Eviction and fault-in do
  /// NOT republish — they change only slot-local state.
  struct Directory {
    std::unordered_map<std::string, ProductHandle, StringViewHash, std::equal_to<>>
        by_name;
    std::vector<SessionSlot*> slots;
  };

  /// Loads the current directory and validates `handle` against it without
  /// locking. Returns the slot when the handle *may* be live (the caller
  /// must re-check `state` under the slot lock), nullptr when certainly
  /// stale/foreign.
  SessionSlot* ProbeHandle(ProductHandle handle) const;

  /// Maps a ticket to its owning slot (no liveness guarantee; same re-check
  /// contract as ProbeHandle).
  SessionSlot* ProbeTicket(uint64_t ticket, uint32_t* state_out) const;

  /// A slot acquired through the full probe → lock → re-check protocol;
  /// empty (`slot == nullptr`) when the target is stale or closed. Single
  /// point of truth for the close-race guarantee: every read-side method
  /// goes through Acquire*. Acquire* also services the cold tier: touching
  /// an evicted slot faults the session back in (still under only the slot
  /// lock — fault-in never takes control_mu_, so it cannot deadlock with an
  /// eviction sweep holding control_mu_ and waiting on slot locks). A slot
  /// an eviction wave owns is waited for, with its lock released, until the
  /// wave commits it. A LockedSlot is the only slot lock its thread holds.
  struct LockedSlot {
    SessionSlot* slot = nullptr;
    std::unique_lock<std::mutex> lock;
    /// Why the acquisition failed when `slot == nullptr`: NotFound for a
    /// stale/closed/foreign target, DataLoss for a quarantined spill,
    /// Unavailable for a transient fault-in read failure. OK otherwise.
    Status error;
    explicit operator bool() const { return slot != nullptr; }
    PricingSession* session() const { return slot->session.get(); }
  };
  LockedSlot AcquireHandle(ProductHandle handle);
  LockedSlot AcquireTicket(uint64_t ticket);

  /// Allocates one slot from the arena and registers it for teardown.
  SessionSlot* NewSlot();

  /// Builds a session object in the arena pool.
  SessionPtr MakePooledSession(std::string product,
                               std::unique_ptr<PricingEngine> engine,
                               uint64_t ticket_base);

  /// Restores an evicted slot's session from its spill record, or builds
  /// an unbuilt slot's session from its recipe. Requires `slot->mu` held
  /// and `slot->evicted`. On failure the slot stays evicted
  /// and the status says why: Unavailable for a transient read error or a
  /// failed tombstone write (the record is still live on disk — a retry may
  /// succeed), DataLoss when the spill failed checksum/decode/restore and
  /// was quarantined (every later touch short-circuits to DataLoss). On
  /// success the consumed record is tombstoned in place and released; the
  /// next wave unlinks its pack once no record in it is live.
  Status FaultInLocked(SessionSlot* slot, size_t index);

  /// FaultInLocked's spill half: reads, decodes and restores the slot's
  /// record into `*out`, then tombstones it. Quarantines a record that
  /// fails checksum, decode or restore.
  Status RestoreSpillLocked(SessionSlot* slot, size_t index, SessionPtr* out);

  /// Marks the slot's spill corrupt: copies `bytes` (the record as read) to
  /// `*.quarantined`, retires the record, drops it from the spill
  /// accounting, and flips the slot's quarantined flag. Requires
  /// `slot->mu` held.
  void QuarantineLocked(SessionSlot* slot, std::string_view bytes);

  /// Constructor-time spill_dir sweep (DESIGN.md §14) through
  /// SpillStore::Sweep: deletes `*.tmp` halves and dead packs, quarantines
  /// corrupt records, and inventories every live record into
  /// `recovered_spills_` by the product name inside it; adoption then
  /// points a fresh slot at the record in place, so nothing is renamed and
  /// no unclaimed record can be overwritten. Runs before the broker is
  /// visible to any other thread.
  void SweepSpillDirOnStartup();

  /// Request-path residency enforcement: when the resident count exceeds
  /// the configured cap, runs one eviction sweep down to cap − (W − 1) in
  /// waves of W (see BrokerConfig::max_resident_sessions). Called with NO
  /// locks held (takes control_mu_ with try-lock so concurrent requests
  /// never convoy behind one sweep).
  void EnforceResidencyLimit();

  /// The sweep core; control_mu_ must be held. Walks the CLOCK hand,
  /// gathering waves of up to `wave_size` victims until at most
  /// `max_resident` sessions stay resident, no candidate is left, or a
  /// wave's pack fails to land, and runs each through SpillWave. Every call
  /// runs at least one (possibly victimless) wave, so it also cleans the
  /// sparse packs and unlinks every pack that died before it.
  size_t EvictLocked(size_t max_resident, size_t wave_size);

  /// One eviction-wave victim (defined in broker.cc): its slot, owned by
  /// the wave from snapshot to commit, and where its envelope sits in the
  /// pending pack.
  struct WaveVictim;
  /// One record a wave moves out of a sparse pack (defined in broker.cc).
  struct Relocation;

  /// Runs one eviction wave; control_mu_ must be held, and the gather has
  /// marked every victim's slot `in_wave` and appended its envelope to the
  /// store's pending pack. Appends copies of the sparse packs' live records
  /// (their owners are only try-locked, then marked too), lands the pack
  /// (SpillStore::CommitPack: one write, fsync, rename and directory fsync
  /// on the calling thread), retires each relocated record's old copy and
  /// points its slot at the new one, unlinks the packs that died, commits
  /// the victims in order, and wakes the requests waiting on them. If the
  /// pack failed, every victim stays resident and every relocated slot
  /// keeps its old record. Adds the number evicted to `*evicted`, leaves
  /// `wave` empty, and returns whether the pack landed (true when there
  /// was none).
  bool SpillWave(std::vector<WaveVictim>* wave, size_t* evicted);

  /// Push instruments, resolved once from `config.metrics` at construction
  /// (DESIGN.md §13): only events that fire at most once per fault-in,
  /// spill, or ticket-slot retirement, so their shared cells never sit on
  /// the request path. Default-constructed handles point at process-wide
  /// sink cells, so every site writes unconditionally, wired or not.
  struct Instruments {
    metrics::Counter retirements;
    metrics::Histogram fault_in_ns;
    /// Fault-tolerance counters (DESIGN.md §14).
    metrics::Counter spill_corruptions;
    metrics::Counter spill_write_errors;
    metrics::Counter spill_adopted;
    metrics::Counter spill_orphans_reclaimed;
  };

  /// Pull instruments (DESIGN.md §13): written only by Collect(), which
  /// adds what SumTotals and the batch-size cells gained since the previous
  /// scrape.
  struct Collected {
    metrics::Counter quotes;
    metrics::Counter accepts;
    metrics::Counter rejects;
    metrics::Counter evictions;
    metrics::Counter fault_ins;
    metrics::Gauge regret;
    metrics::Gauge resident;
    metrics::Gauge evicted;
    metrics::Gauge open_products;
    metrics::Gauge spill;
    metrics::Gauge spill_files;
    metrics::Counter relocations;
    metrics::Histogram batch_size;
  };

  /// The one summation behind both the scrape and Stats(), all lock-free
  /// reads: the slot request counters over every slot in the directory
  /// (tombstones included), the directory size, and the control-plane
  /// occupancy and cold-tier atomics. Fills `quotes`, `accepts`,
  /// `rejects`, `regret_proxy`, `open_sessions`, `resident_sessions`,
  /// `evictions`, `fault_ins`, `spill_bytes`, `spill_file_bytes` and
  /// `relocations`; leaves the rest alone.
  /// O(slots ever opened) per call.
  void SumTotals(BrokerStats* stats) const;

  /// metrics::MetricCollector: adds what SumTotals and the batch-size cells
  /// gained since the previous call to the `Collected` handles. The gateway
  /// serializes calls, which is what guards `reported_`.
  void Collect() override;

  /// The grouped batch core behind both PostPrices overloads. `*error_index`
  /// receives the batch position of the returned failure (`requests.size()`
  /// when everything succeeded), letting the name-keyed wrapper merge
  /// resolution failures by position. A batch whose requests all name one
  /// handle goes to PostGroup as it is; a mixed batch is split into
  /// per-session groups, each gathered, run through PostGroup and scattered
  /// back.
  Status PostPricesGrouped(std::span<const HandleRequest> requests,
                           std::span<Quote> quotes, size_t* error_index);

  /// The group body of both PostPrices paths: prices `group`, whose
  /// requests all name one handle, into `quotes` under one acquisition of
  /// that session's slot, and counts the quotes issued on the slot. Each
  /// failure sits in its quote's status (a failed acquisition fails every
  /// request); the returned Status is the group's first failure and
  /// `*error_index` its group position (`group.size()` when none).
  Status PostGroup(std::span<const HandleRequest> group, std::span<Quote> quotes,
                   size_t* error_index);

  /// The group body of both Observes paths: applies `group`, whose tickets
  /// all share one session, under one acquisition of that session's slot,
  /// and tallies the outcomes on the slot. `codes`, when non-empty, receives
  /// each item's outcome; the returned Status and `*error_index` are the
  /// group's first failure and its group position, as for PostGroup.
  Status ObserveGroup(std::span<const FeedbackRequest> group, std::span<StatusCode> codes,
                      size_t* error_index);

  BrokerConfig config_;

  /// Serializes directory mutations (open/close) and eviction sweeps; never
  /// taken on the request path (fault-in included). Session-state mutations
  /// (Restore, feedback) need only the slot lock. Lock order: control_mu_ →
  /// slot locks → the leaf locks (`arena_mu_`, the spill store's live-pack
  /// table). An eviction wave, like Stats(), holds one slot lock at a time:
  /// the slots it owns are marked `in_wave` rather than kept locked, and
  /// the slots whose records it relocates are only try-locked.
  mutable std::mutex control_mu_;
  /// Notified when a wave has committed its slots (see SessionSlot).
  std::condition_variable_any wave_done_;
  /// Backing store for slot and session objects (DESIGN.md §12): slots are
  /// bump-allocated and live until ~Broker; session objects recycle through
  /// the pool as products close/evict/fault-in. `arena_mu_` guards both —
  /// pool mutations happen on open/close (control plane) and on fault-in
  /// (request threads, under a slot lock), so they need their own tiny lock.
  std::mutex arena_mu_;
  SlabArena arena_;
  ArenaPool<PricingSession> session_pool_{&arena_};
  /// Slot registry for teardown (slots are trivially reachable through the
  /// directory too, but tombstoned slots leave the directory's by_name map;
  /// this vector is the complete list). Guarded by control_mu_.
  std::vector<SessionSlot*> slots_;
  size_t slots_tombstoned_ = 0;
  /// Every rebuild recipe ever opened with; slots point into it. Slots live
  /// as long as the broker, so their recipes do too. Guarded by control_mu_.
  std::vector<std::unique_ptr<const RebuildRecipe>> recipes_;

  SnapshotPtr<Directory> directory_;

  /// Cold-tier bookkeeping. The atomics are read on the request path
  /// (EnforceResidencyLimit) but only ever *modified* under either
  /// control_mu_ (eviction) or a slot lock (fault-in). They are the only
  /// record of these events: the scrape reads them through SumTotals.
  std::atomic<uint64_t> sweep_epoch_{1};
  std::atomic<size_t> resident_sessions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> fault_ins_{0};
  std::atomic<size_t> spill_bytes_{0};
  std::atomic<uint64_t> relocations_{0};
  /// Incremental CLOCK hand: the directory index where the next eviction
  /// sweep resumes, so consecutive over-cap faults keep walking forward
  /// instead of rescanning (and re-sorting) the whole slot table from zero.
  /// Guarded by control_mu_.
  size_t clock_hand_ = 0;
  /// Every spill file operation (DESIGN.md §12); null without a spill_dir.
  std::unique_ptr<SpillStore> spill_store_;
  /// Spill records inventoried by the startup sweep and not yet adopted:
  /// decoded product name → record. Guarded by control_mu_.
  std::unordered_map<std::string, SpillRecord> recovered_spills_;
  /// Recovery bookkeeping (startup sweep + adoptions). Guarded by control_mu_.
  RecoveryReport recovery_report_;
  Instruments metrics_;
  Collected collected_;
  /// What Collect() has added to `collected_` so far. Its `evicted_sessions`
  /// holds the evicted gauge's value, which counts quarantined sessions too.
  BrokerStats reported_;
  /// The size of every PostPrices/Observes call, recorded by the calling
  /// thread into a cell no other thread writes (DESIGN.md §13); Collect()
  /// adds what the cells gained to `collected_.batch_size`.
  metrics::PerThreadHistogram batch_sizes_;
};

/// The ticket base a broker assigns to its i-th session (index+1 in the
/// high 24 bits; the session fills the low 40 with slot index + generation,
/// see PricingSession's ticket layout).
uint64_t TicketBaseForIndex(size_t session_index);

/// The eviction-wave size W of a residency cap: min(64, max(1, cap / 32))
/// victims per pack file (see BrokerConfig::max_resident_sessions).
size_t WaveSizeForCap(size_t cap);

}  // namespace pdm::broker

#endif  // PDM_BROKER_BROKER_H_
