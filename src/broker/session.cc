#include "broker/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pdm::broker {

PricingSession::PricingSession(std::string product,
                               std::unique_ptr<PricingEngine> engine,
                               uint64_t ticket_base)
    : product_(std::move(product)),
      engine_(std::move(engine)),
      ticket_base_(ticket_base) {
  PDM_CHECK(!product_.empty());
  PDM_CHECK(engine_ != nullptr);
}

Status PricingSession::PostPrice(std::span<const double> features, double reserve,
                                 Quote* quote) {
  if (quote == nullptr) return Status::InvalidArgument("null quote output");
  const SessionRequest request{features, reserve};
  return PostPrices(std::span<const SessionRequest>(&request, 1),
                    std::span<Quote>(quote, 1));
}

Status PricingSession::AllocateSlot(size_t* out_index) {
  // A slot whose generation has reached kGenMask is never reissued: bumping
  // past the mask would wrap the generation back to a value a long-stale
  // ticket may still carry, and that stale id would then alias a live quote
  // (ABA). Observe retires such slots instead of freeing them; the pop loop
  // below re-checks defensively (restored tables can carry arbitrary
  // generations).
  size_t index = slots_.size();
  while (!free_slots_.empty()) {
    size_t candidate = free_slots_.back();
    free_slots_.pop_back();
    if (slots_[candidate].generation < kGenMask) {
      index = candidate;
      break;
    }
    ++slots_retired_;
  }
  if (index == slots_.size()) {
    if (slots_.size() <= kSlotMask) {
      slots_.emplace_back();
    } else {
      return Status::FailedPrecondition(
          "product '" + product_ + "': ticket-slot space exhausted (" +
          std::to_string(pending_count_) + " quotes outstanding, " +
          std::to_string(slots_retired_) + " slots retired at the generation "
          "bound)");
    }
  }
  *out_index = index;
  return Status::Ok();
}

void PricingSession::FinishIssue(size_t index, const PostedPrice& posted, Quote* quote) {
  TicketSlot& slot = slots_[index];
  // The slot index goes into the ticket's middle bits (O(1) feedback
  // routing); the bumped generation makes recycled slots reject duplicate
  // or stale tickets. No mask on the bump: AllocateSlot guarantees
  // generation < kGenMask, so the increment saturates at kGenMask instead of
  // ever wrapping to an already-issued value.
  slot.generation = slot.generation + 1;
  slot.issued_at = static_cast<uint64_t>(quotes_issued_);
  slot.price = posted.price;
  slot.ticket = ticket_base_ | (static_cast<uint64_t>(index) << kGenBits) |
                slot.generation;
  ++pending_count_;
  ++quotes_issued_;
  posted_value_ += posted.price;

  quote->ticket = slot.ticket;
  quote->price = posted.price;
  quote->exploratory = posted.exploratory;
  quote->certain_no_sale = posted.certain_no_sale;
}

void PricingSession::Admit(std::span<const double> features, double reserve,
                           size_t position, Quote* quote, Tile* tile, FirstError* error) {
  quote->ticket = 0;
  quote->status = StatusCode::kOk;
  if (features.size() != tile->dim) {
    quote->status = StatusCode::kInvalidArgument;
    error->Record(position, Status::InvalidArgument(
                                "dimension mismatch for product '" + product_ +
                                "': got " + std::to_string(features.size()) +
                                " features, engine expects " +
                                std::to_string(tile->dim)));
    return;
  }
  size_t index = 0;
  Status alloc = AllocateSlot(&index);
  if (!alloc.ok()) {
    quote->status = alloc.code();
    error->Record(position, std::move(alloc));
    return;
  }
  const size_t m = tile->size++;
  tile->features[m] = features.data();
  tile->reserves[m] = reserve;
  tile->slots[m] = index;
  tile->positions[m] = position;
}

void PricingSession::PriceTile(const Tile& tile, std::span<Quote> quotes) {
  const size_t m = tile.size;
  if (m == 0) return;
  // A lone query's features are its own panel and its price needs no
  // table; more are packed query-major into the workspaces.
  const double* panel = tile.features[0];
  PostedPrice lone;
  PostedPrice* posted = &lone;
  if (m > 1) {
    panel_buf_.resize(m * tile.dim);
    for (size_t j = 0; j < m; ++j) {
      std::copy(tile.features[j], tile.features[j] + tile.dim,
                panel_buf_.begin() + j * tile.dim);
    }
    panel = panel_buf_.data();
    posted_buf_.resize(m);
    posted = posted_buf_.data();
  }
  // The cut pointers are taken only now: every allocation is done, so
  // `slots_` can no longer reallocate under them. The engine writes each
  // cut context straight into its ticket slot.
  PendingCut* cuts[kQuoteTile];
  for (size_t j = 0; j < m; ++j) cuts[j] = &slots_[tile.slots[j]].cut;
  engine_->PostPriceBatch(panel, static_cast<int>(m), tile.reserves, posted, cuts);
  for (size_t j = 0; j < m; ++j) {
    FinishIssue(tile.slots[j], posted[j], &quotes[tile.positions[j]]);
  }
}

Status PricingSession::Observe(uint64_t ticket, bool accepted,
                               ObserveResult* result) {
  size_t index = static_cast<size_t>((ticket >> kGenBits) & kSlotMask);
  if (ticket == 0 || index >= slots_.size() || slots_[index].ticket != ticket) {
    return Status::NotFound("product '" + product_ +
                            "': unknown or already-resolved ticket " +
                            std::to_string(ticket));
  }
  TicketSlot& slot = slots_[index];
  engine_->ObserveDetached(slot.cut, accepted);
  if (accepted) accepted_value_ += slot.price;
  if (result != nullptr) {
    result->price = slot.price;
    result->accepted = accepted;
    result->slot_retired = false;
  }
  slot.ticket = 0;
  if (slot.generation < kGenMask) {
    free_slots_.push_back(index);
  } else {
    // Generation saturated: retire the slot forever rather than wrap its
    // generation into values old tickets may still carry (ABA; see the
    // ticket-layout contract in session.h and DESIGN.md §9).
    ++slots_retired_;
    if (result != nullptr) result->slot_retired = true;
  }
  --pending_count_;
  ++feedback_received_;
  return Status::Ok();
}

Status PricingSession::EstimateValue(std::span<const double> features,
                                     ValueInterval* out) const {
  if (out == nullptr) return Status::InvalidArgument("null interval output");
  int want = engine_->input_dim();
  if (static_cast<int>(features.size()) != want) {
    return Status::InvalidArgument(
        "dimension mismatch for product '" + product_ + "': got " +
        std::to_string(features.size()) + " features, engine expects " +
        std::to_string(want));
  }
  // EstimateValueInterval is a const observer; the bridge buffer is the only
  // mutable touch, so cast rather than making the whole session mutable.
  Vector* buf = const_cast<Vector*>(&features_buf_);
  buf->assign(features.begin(), features.end());
  *out = engine_->EstimateValueInterval(*buf);
  return Status::Ok();
}

Status PricingSession::Snapshot(SessionSnapshot* out) const {
  if (out == nullptr) return Status::InvalidArgument("null snapshot output");
  SessionSnapshot snap;
  if (!engine_->SaveSnapshot(&snap.engine)) {
    return Status::Unimplemented("product '" + product_ + "': engine '" +
                                 engine_->name() + "' has no snapshot support");
  }
  snap.product = product_;
  snap.quotes_issued = quotes_issued_;
  snap.feedback_received = feedback_received_;
  snap.pending.reserve(static_cast<size_t>(pending_count_));
  std::vector<uint64_t> issue_order;
  issue_order.reserve(static_cast<size_t>(pending_count_));
  for (const TicketSlot& slot : slots_) {
    if (slot.ticket == 0) continue;
    snap.pending.push_back({slot.ticket, slot.price, slot.cut});
    issue_order.push_back(slot.issued_at);
  }
  // Issue order, so restore replays the table deterministically.
  std::vector<size_t> order(snap.pending.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&issue_order](size_t a, size_t b) {
    return issue_order[a] < issue_order[b];
  });
  std::vector<PendingTicketState> sorted;
  sorted.reserve(snap.pending.size());
  for (size_t i : order) sorted.push_back(std::move(snap.pending[i]));
  snap.pending = std::move(sorted);
  // Value totals ride along, so a faulted-in session keeps its regret-proxy
  // accounting.
  snap.posted_value = posted_value_;
  snap.accepted_value = accepted_value_;
  // Full allocator state, so a restored session issues bit-identical future
  // tickets (the cold-tier eviction contract — see SessionSnapshot).
  snap.slot_generations.reserve(slots_.size());
  for (const TicketSlot& slot : slots_) snap.slot_generations.push_back(slot.generation);
  snap.free_slots.reserve(free_slots_.size());
  for (size_t index : free_slots_) {
    snap.free_slots.push_back(static_cast<uint32_t>(index));
  }
  snap.slots_retired = slots_retired_;
  *out = std::move(snap);
  return Status::Ok();
}

Status PricingSession::Restore(const SessionSnapshot& snapshot) {
  // Validate everything before mutating anything, so a rejected snapshot
  // leaves the session exactly as it was.
  std::vector<uint64_t> seen_slots;
  seen_slots.reserve(snapshot.pending.size());
  for (const PendingTicketState& p : snapshot.pending) {
    if ((p.ticket >> (kSlotBits + kGenBits)) != (ticket_base_ >> (kSlotBits + kGenBits)) ||
        p.ticket == 0) {
      return Status::FailedPrecondition(
          "pending ticket " + std::to_string(p.ticket) +
          " does not belong to this session's ticket base; drain feedback "
          "before migrating across broker slots");
    }
    // A decoded blob may be structurally valid yet carry a cut context this
    // engine cannot apply (corruption, foreign writers, another engine
    // family). Reject it here: once restored it would abort inside
    // ObserveDetached instead of returning a Status.
    if (!engine_->AcceptsCut(p.cut)) {
      return Status::FailedPrecondition(
          "pending ticket " + std::to_string(p.ticket) + " carries a cut (kind " +
          std::to_string(p.cut.kind) + ") engine '" + engine_->name() +
          "' cannot apply");
    }
    seen_slots.push_back((p.ticket >> kGenBits) & kSlotMask);
  }
  std::sort(seen_slots.begin(), seen_slots.end());
  if (std::adjacent_find(seen_slots.begin(), seen_slots.end()) != seen_slots.end()) {
    return Status::FailedPrecondition(
        "two pending tickets collide on one ticket slot");
  }
  // The table must cover every pending slot, and its free stack must name
  // distinct slots that no pending ticket occupies.
  size_t table_size = snapshot.slot_generations.size();
  if (table_size > kSlotMask + 1) {
    return Status::FailedPrecondition("ticket table exceeds the slot space");
  }
  if (!seen_slots.empty() && seen_slots.back() >= table_size) {
    return Status::FailedPrecondition(
        "pending ticket names a slot outside the snapshot's ticket table");
  }
  std::vector<uint64_t> occupied = seen_slots;
  for (uint32_t index : snapshot.free_slots) {
    if (index >= table_size) {
      return Status::FailedPrecondition(
          "free-stack entry outside the snapshot's ticket table");
    }
    occupied.push_back(index);
  }
  std::sort(occupied.begin(), occupied.end());
  if (std::adjacent_find(occupied.begin(), occupied.end()) != occupied.end()) {
    return Status::FailedPrecondition(
        "free-stack entry collides with a pending ticket or repeats");
  }
  if (!engine_->LoadSnapshot(snapshot.engine)) {
    return Status::FailedPrecondition(
        "product '" + product_ + "': engine '" + engine_->name() +
        "' cannot load a '" + snapshot.engine.engine + "' (dim " +
        std::to_string(snapshot.engine.dim) + ") snapshot");
  }
  quotes_issued_ = snapshot.quotes_issued;
  feedback_received_ = snapshot.feedback_received;
  slots_.clear();
  slots_.resize(table_size);
  pending_count_ = static_cast<int64_t>(snapshot.pending.size());
  posted_value_ = snapshot.posted_value;
  accepted_value_ = snapshot.accepted_value;
  // Pending tickets return to the slots their ids encode; issue-order
  // stamps restart at 0..n-1, which stay below every future stamp
  // (quotes_issued_ ≥ n).
  for (size_t i = 0; i < snapshot.pending.size(); ++i) {
    const PendingTicketState& p = snapshot.pending[i];
    TicketSlot& slot = slots_[(p.ticket >> kGenBits) & kSlotMask];
    slot.ticket = p.ticket;
    slot.generation = static_cast<uint32_t>(p.ticket & kGenMask);
    slot.issued_at = i;
    slot.price = p.posted_price;
    slot.cut = p.cut;
  }
  // Exact allocator state: free-slot generations, recycle-stack order, and
  // the retired count all come back verbatim, so future ticket ids are
  // bit-identical to the uninterrupted session. Slots holding a pending
  // ticket already took their generation from the ticket itself (the id is
  // authoritative — fast-forwarded snapshots rewrite only the ticket).
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ticket == 0) slots_[i].generation = snapshot.slot_generations[i];
  }
  free_slots_.assign(snapshot.free_slots.begin(), snapshot.free_slots.end());
  slots_retired_ = snapshot.slots_retired;
  return Status::Ok();
}

}  // namespace pdm::broker
