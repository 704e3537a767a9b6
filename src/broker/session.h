#ifndef PDM_BROKER_SESSION_H_
#define PDM_BROKER_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "broker/snapshot.h"
#include "common/concurrency.h"
#include "common/status.h"
#include "pricing/engine_state.h"
#include "pricing/pricing_engine.h"

/// \file
/// One data product's pricing session: a `PricingEngine` behind a ticketed
/// request/feedback surface (DESIGN.md §9).
///
/// Where the simulation layer's `RunMarket` enforces the Fig. 2 strict
/// PostPrice/Observe alternation (and `PDM_CHECK`-aborts on misuse), a
/// session is a *serving* object: `PostPrices` returns `Quote`s carrying
/// ticket ids, the engine writes each round's posting-time cut context
/// straight into its ticket slot, and `Observe(ticket, accepted)` may arrive
/// later, in any order, interleaved with further quotes. A single
/// `PostPrice` is a batch of one. Client-facing misuse (dimension mismatch,
/// unknown or already-resolved ticket) returns a `pdm::Status` instead of
/// aborting the process.
///
/// Feedback semantics under delay: cut contexts are applied to the knowledge
/// set in the order feedback *arrives*, each with its posting-time support.
/// When feedback is immediate (every quote answered before the next request)
/// this is bit-identical to the classic alternating protocol — pinned
/// against `RunMarket` in tests/broker_test.cc.
///
/// A session is not internally synchronized; `Broker` guards each session
/// with its own cache-line-padded lock (DESIGN.md §9). Steady-state
/// PostPrice/Observe round trips perform zero heap allocations (ticket
/// slots, their direction buffers, and the panel workspaces are all
/// recycled — tests/allocation_test.cc).

namespace pdm::broker {

/// One request of the session-level batched entry point (the broker gathers
/// each session's share of a mixed batch into a span of these).
struct SessionRequest {
  /// Raw feature vector x_t; length must match the engine's input dimension.
  std::span<const double> features;
  /// Reserve price q_t.
  double reserve = 0.0;
};

/// The serving-side answer to one price request.
struct Quote {
  /// Feedback ticket; 0 when the request failed (see `status`).
  uint64_t ticket = 0;
  /// The price shown to the consumer (value space).
  double price = 0.0;
  /// True if the exploratory (bisection) price was chosen.
  bool exploratory = false;
  /// True when the engine proved no price ≥ the reserve can sell; the offer
  /// should be withheld (accounting still treats the quote as posted).
  bool certain_no_sale = false;
  /// Per-request outcome for the batched entry point (kOk on success).
  StatusCode status = StatusCode::kOk;
};

/// Per-feedback outcome detail for the metrics layer (DESIGN.md §13): the
/// value-space price the resolved quote had posted, whether the consumer
/// accepted, and whether the ticket slot retired at the generation bound.
/// The broker tallies these per session group and adds the tallies to the
/// counters on the session's slot while it still holds the slot's lock.
struct ObserveResult {
  double price = 0.0;
  bool accepted = false;
  bool slot_retired = false;
};

class PricingSession {
 public:
  /// Default base for standalone sessions (a broker passes a per-slot base).
  static constexpr uint64_t kDefaultTicketBase = uint64_t{1} << 40;

  /// Ticket id layout: [63..40] session base, [39..20] slot index inside the
  /// session's ticket table, [19..0] per-slot generation. Feedback routing is
  /// therefore O(1) end to end — broker → session from the high bits, session
  /// → slot from the middle bits — with the generation guarding against
  /// duplicate or stale tickets after a slot is recycled.
  ///
  /// The generation never wraps: a slot whose generation reaches `kGenMask`
  /// is *retired* on resolution instead of returning to the free list
  /// (wrapping would let a ticket issued 2^20 recycles ago alias a freshly
  /// issued one — ABA). One slot therefore serves at most 2^20 - 1 tickets,
  /// and a session at most ~2^40 over its lifetime, after which PostPrice
  /// saturates with FailedPrecondition (bounds: DESIGN.md §9).
  static constexpr int kSlotBits = 20;
  static constexpr int kGenBits = 20;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kGenMask = (uint64_t{1} << kGenBits) - 1;

  /// Takes ownership of the engine. `ticket_base` is OR-ed into every issued
  /// ticket id; the broker uses the high bits to route feedback to the
  /// owning session without a global ticket table.
  PricingSession(std::string product, std::unique_ptr<PricingEngine> engine,
                 uint64_t ticket_base = kDefaultTicketBase);

  PricingSession(const PricingSession&) = delete;
  PricingSession& operator=(const PricingSession&) = delete;

  const std::string& product() const { return product_; }
  const PricingEngine& engine() const { return *engine_; }
  uint64_t ticket_base() const { return ticket_base_; }

  /// Prices one request: PostPrices of one. On success fills `*quote` (with
  /// a fresh ticket). Errors: InvalidArgument (dimension mismatch, null
  /// quote), FailedPrecondition (ticket-slot space exhausted at 2^20
  /// outstanding quotes).
  Status PostPrice(std::span<const double> features, double reserve, Quote* quote);

  /// Panel tile of the batched quoting path: PostPrices hands the engine at
  /// most this many queries per PostPriceBatch call, so the packing scratch
  /// is compile-time bounded (kQuoteTile × dim doubles) no matter how large
  /// a batch a client sends.
  static constexpr int kQuoteTile = 32;

  /// Prices `requests[i]` into `quotes[i]` in batch order. `Request` is any
  /// type with `features` and `reserve` members: `SessionRequest`, or the
  /// broker's `HandleRequest`, which a one-session batch hands over in
  /// place. Each kQuoteTile-sized run is priced with one
  /// PricingEngine::PostPriceBatch call (a lone valid request is passed as
  /// its own panel, larger runs are packed) — bit-identical to sequential
  /// PostPrice calls, including the issued ticket ids (slots are allocated
  /// in request order, exactly as one-at-a-time calls would). Individual
  /// request failures do not abort the batch: each failed quote carries its
  /// status (and ticket 0), the returned Status is the failure at the
  /// lowest batch position, and `*error_index` (when non-null) receives
  /// that position (`requests.size()` when everything succeeded). Errors:
  /// InvalidArgument when the spans' sizes differ.
  template <typename Request>
  Status PostPrices(std::span<const Request> requests, std::span<Quote> quotes,
                    size_t* error_index = nullptr);

  /// Applies accept/reject feedback for `ticket` and retires it — O(1), the
  /// ticket encodes its slot. `result`, when non-null, receives the resolved
  /// quote's posted price and outcome (the metrics layer's per-batch
  /// aggregation input); it is only written on success. Errors: NotFound
  /// (unknown, foreign, or already-resolved ticket — duplicate feedback
  /// lands here, the ticket was retired by its first resolution and the slot
  /// generation rejects it).
  Status Observe(uint64_t ticket, bool accepted, ObserveResult* result = nullptr);

  /// Current knowledge-set bounds for a query (diagnostic surface).
  Status EstimateValue(std::span<const double> features, ValueInterval* out) const;

  /// Quotes issued and still awaiting feedback.
  int64_t pending_count() const { return pending_count_; }
  int64_t quotes_issued() const { return quotes_issued_; }
  int64_t feedback_received() const { return feedback_received_; }
  /// Ticket slots permanently retired at the generation bound (never
  /// recycled again — the wrap-refusal path; monitoring/test surface).
  int64_t retired_ticket_slots() const { return slots_retired_; }
  /// Cumulative value-space accounting behind the regret proxy (DESIGN.md
  /// §13): the sum of every posted price, and the sum over accepted quotes.
  /// The difference is revenue quoted but not (yet) captured — pending
  /// tickets count as posted until their feedback arrives.
  double posted_value() const { return posted_value_; }
  double accepted_value() const { return accepted_value_; }

  /// Captures the full resumable session state. Errors: Unimplemented (the
  /// engine has no snapshot support).
  Status Snapshot(SessionSnapshot* out) const;

  /// Restores state captured by Snapshot on a session with a compatible
  /// engine (same family and dimension — typically built from the same
  /// `ScenarioSpec`). Outstanding tickets are restored verbatim; their ids
  /// embed the snapshotting session's ticket base, so restore into a broker
  /// slot with the same base (or drain feedback before snapshotting). The
  /// slot allocator is reproduced exactly, so future ticket ids are
  /// bit-identical to the uninterrupted session — the cold-tier eviction
  /// contract (DESIGN.md §12). Everything is validated before anything is
  /// mutated: a refused snapshot leaves the session as it was.
  /// Errors: FailedPrecondition (engine/snapshot mismatch, foreign ticket
  /// base on a pending ticket, a pending cut the engine cannot apply —
  /// PricingEngine::AcceptsCut — or an inconsistent ticket table).
  Status Restore(const SessionSnapshot& snapshot);

 private:
  /// One buffered quote awaiting feedback. Slots are recycled through
  /// `free_slots_`, so their cut contexts' direction buffers reach a steady
  /// capacity and stop allocating. Cache-line-padded: two sessions' ticket
  /// tables are touched by different threads under different locks, and
  /// padding keeps their entries (and the allocator blocks around them)
  /// from ever sharing a line (DESIGN.md §9).
  struct alignas(kCacheLineSize) TicketSlot {
    uint64_t ticket = 0;  ///< 0 = free
    /// Bumped on every issue from this slot (the ticket's low bits).
    uint32_t generation = 0;
    /// Issue-order stamp (the value of quotes_issued_ at issue time);
    /// orders the pending table in snapshots.
    uint64_t issued_at = 0;
    /// Value-space posted price (the regret-proxy input; `cut.price` is NOT
    /// usable for this — wrapped engines store it in link space).
    double price = 0.0;
    PendingCut cut;
  };

  /// The first failure of a batch, by batch position.
  struct FirstError {
    Status status;
    size_t index;
    void Record(size_t i, Status s) {
      if (i < index) {
        index = i;
        status = std::move(s);
      }
    }
  };

  /// One kQuoteTile-sized run's valid requests, in request order: where
  /// each one's features and reserve are, the ticket slot it was given and
  /// its batch position. Lives on PostPrices' stack. The arrays are left
  /// uninitialized, because clearing 1 KiB would cost a lone request more
  /// than the rest of its bookkeeping; Admit fills them front to back and
  /// only the first `size` entries are read.
  struct Tile {
    explicit Tile(size_t input_dim) : dim(input_dim) {}
    const size_t dim;
    size_t size = 0;
    const double* features[kQuoteTile];
    double reserves[kQuoteTile];
    size_t slots[kQuoteTile];
    size_t positions[kQuoteTile];
  };

  /// PostPrices' first pass over one request: resets `*quote`, validates
  /// the dimension and allocates a ticket slot — the same free-list pops
  /// one-at-a-time calls would perform, so the issued ticket ids are
  /// identical — and appends the request to `tile`. A failure goes into the
  /// quote's status and `*error` instead.
  void Admit(std::span<const double> features, double reserve, size_t position,
             Quote* quote, Tile* tile, FirstError* error);

  /// One engine pass for the tile's requests, then their tickets in request
  /// order (generation bumps, issue-order stamps and counters land exactly
  /// as one-at-a-time calls would).
  void PriceTile(const Tile& tile, std::span<Quote> quotes);

  /// Pops (or grows) a free ticket slot, retiring generation-saturated
  /// candidates along the way. Fails with FailedPrecondition when the slot
  /// space is exhausted. Runs *before* the engine is consulted, so a failed
  /// allocation never prices a round that has nowhere to keep its cut.
  Status AllocateSlot(size_t* out_index);

  /// Per-quote tail of PostPrices: bumps the slot generation, stamps issue
  /// order, composes the ticket id, updates the session counters, and fills
  /// `*quote` from `posted`. The slot's cut context must already be
  /// populated.
  void FinishIssue(size_t index, const PostedPrice& posted, Quote* quote);

  std::string product_;
  std::unique_ptr<PricingEngine> engine_;
  uint64_t ticket_base_;
  int64_t pending_count_ = 0;
  int64_t quotes_issued_ = 0;
  int64_t feedback_received_ = 0;
  int64_t slots_retired_ = 0;
  double posted_value_ = 0.0;
  double accepted_value_ = 0.0;
  /// Bridge buffer for EstimateValue: span request → the Vector
  /// EstimateValueInterval takes.
  Vector features_buf_;
  std::vector<TicketSlot> slots_;
  std::vector<size_t> free_slots_;

  /// A tile of two or more packs its features into this panel (bounded by
  /// kQuoteTile × input dim) and takes its posted prices in this table,
  /// both reused across batches so quoting is allocation-free in steady
  /// state. A lone request needs neither, and every other per-tile table
  /// lives on the stack (Tile).
  Vector panel_buf_;
  std::vector<PostedPrice> posted_buf_;
};

template <typename Request>
Status PricingSession::PostPrices(std::span<const Request> requests,
                                  std::span<Quote> quotes, size_t* error_index) {
  if (requests.size() != quotes.size()) {
    if (error_index != nullptr) *error_index = 0;
    return Status::InvalidArgument(
        "request/quote span size mismatch: " + std::to_string(requests.size()) +
        " vs " + std::to_string(quotes.size()));
  }
  FirstError error{Status(), requests.size()};
  const size_t dim = static_cast<size_t>(engine_->input_dim());
  for (size_t start = 0; start < requests.size();
       start += static_cast<size_t>(kQuoteTile)) {
    const size_t end =
        std::min(requests.size(), start + static_cast<size_t>(kQuoteTile));
    Tile tile(dim);
    for (size_t i = start; i < end; ++i) {
      Admit(requests[i].features, requests[i].reserve, i, &quotes[i], &tile, &error);
    }
    PriceTile(tile, quotes);
  }
  if (error_index != nullptr) *error_index = error.index;
  return std::move(error.status);
}

}  // namespace pdm::broker

#endif  // PDM_BROKER_SESSION_H_
