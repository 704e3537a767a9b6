#ifndef PDM_PRICING_PRICING_ENGINE_H_
#define PDM_PRICING_PRICING_ENGINE_H_

#include <cstdint>
#include <string>

#include "common/check.h"
#include "linalg/vector_ops.h"
#include "pricing/engine_state.h"

/// \file
/// The posted-price mechanism interface.
///
/// Protocol per round t (Fig. 2): the broker receives a query with feature
/// vector x_t and reserve price q_t, posts a price, shows it to the
/// consumer, then learns from the binary accept/reject feedback.
///
/// Every engine implements that loop once, as a batch: `PostPriceBatch`
/// prices k queries and writes each round's posting-time cut context into a
/// caller-owned `PendingCut`; `ObserveDetached` applies one round's feedback
/// with its cut context. Engines hold no pending round, so whoever owns the
/// cut contexts decides when feedback arrives — the serving layer
/// (src/broker, DESIGN.md §9) keeps one per ticket. `PostPrice`/`Observe`
/// are the classic strictly alternating loop: a batch of one into a cut
/// context this base class owns.

namespace pdm {

/// The broker's decision for one round.
struct PostedPrice {
  /// The price shown to the consumer. Always ≥ the round's reserve when the
  /// engine enforces the reserve constraint.
  double price = 0.0;
  /// True if the exploratory (bisection) price was chosen; false for the
  /// conservative price.
  bool exploratory = false;
  /// True when the engine has proven q_t ≥ p̄_t + δ, i.e. no price ≥ q_t can
  /// sell (Lines 8–10 of Algorithm 2). The posted price is still ≥ q_t so
  /// accounting stays uniform, but the sale is (w.h.p.) impossible and the
  /// knowledge set will not be refined.
  bool certain_no_sale = false;
};

/// The engine's current estimate of a query's market-value interval
/// [p̲_t, p̄_t] (value space, after any link function).
struct ValueInterval {
  double lower = 0.0;
  double upper = 0.0;
  double width() const { return upper - lower; }
  double midpoint() const { return 0.5 * (lower + upper); }
};

class PricingEngine {
 public:
  virtual ~PricingEngine() = default;

  /// Feature dimension this engine prices over.
  virtual int dim() const = 0;

  /// Raw feature dimension the engine accepts. Equals dim() except for
  /// engines wrapping a dimension-changing feature map (the broker validates
  /// request dimensions against this, not against the z-space dim()).
  virtual int input_dim() const { return dim(); }

  /// Chooses the price for a query: a batch of one whose cut context stays
  /// in this object until Observe. `reserve` is q_t (ignored by engines
  /// configured without the reserve constraint). PostPrice and Observe must
  /// strictly alternate.
  PostedPrice PostPrice(const Vector& features, double reserve) {
    PDM_CHECK(!round_open_);
    PDM_CHECK(static_cast<int>(features.size()) == input_dim());
    PostedPrice posted;
    PendingCut* cut = &round_cut_;
    PostPriceBatch(features.data(), 1, &reserve, &posted, &cut);
    round_open_ = true;
    return posted;
  }

  /// Reports whether the price posted by the last PostPrice was accepted
  /// (p_t ≤ v_t).
  void Observe(bool accepted) {
    PDM_CHECK(round_open_);
    round_open_ = false;
    ObserveDetached(round_cut_, accepted);
  }

  /// Prices k queries against the knowledge set as it stands. `panel` packs
  /// the raw feature vectors query-major (query j occupies panel +
  /// j·input_dim()), `reserves[j]` is query j's reserve, `posted[j]`
  /// receives the decision and `*cuts[j]` the round's cut context. No
  /// knowledge-set update happens inside the batch, so query j's price is
  /// exactly what a batch of one would post for it (DESIGN.md §11).
  virtual void PostPriceBatch(const double* panel, int k, const double* reserves,
                              PostedPrice* posted, PendingCut* const* cuts) = 0;

  /// Applies accept/reject feedback for a round priced by PostPriceBatch on
  /// this engine. Cut contexts are applied in the order feedback arrives,
  /// each against the *current* knowledge set with its *posting-time*
  /// support (see DESIGN.md §9 for the semantics under delayed feedback).
  virtual void ObserveDetached(const PendingCut& cut, bool accepted) = 0;

  /// True when ObserveDetached can apply `cut`: a kind this engine issues,
  /// shaped for its dimension. Cut contexts from PostPriceBatch always
  /// qualify; this vets the ones that arrive from elsewhere (a restored
  /// snapshot), so a corrupt or foreign context is refused with a Status
  /// instead of aborting inside ObserveDetached.
  virtual bool AcceptsCut(const PendingCut& cut) const = 0;

  /// True when PostPriceBatch prices the whole panel in one kernel pass
  /// (rather than query by query), i.e. when batching pays.
  virtual bool SupportsBatchedQuotes() const { return false; }

  /// Current knowledge-set bounds on the market value of `features`.
  virtual ValueInterval EstimateValueInterval(const Vector& features) const = 0;

  virtual const EngineCounters& counters() const = 0;

  /// Short identifier used in bench/table output (e.g. "reserve+uncertainty").
  virtual std::string name() const = 0;

  /// Writes the engine's full persistent state (knowledge set, thresholds,
  /// counters) into `*out`; returns false when unsupported. Cut contexts are
  /// not engine state: they belong to their owners (the broker's ticket
  /// table, or PostPrice's open round).
  virtual bool SaveSnapshot(EngineSnapshot* out) const {
    (void)out;
    return false;
  }

  /// Restores state previously produced by SaveSnapshot on a compatible
  /// engine (same family tag and dimension). Returns false on a mismatch;
  /// on success subsequent prices are bit-identical to the engine that was
  /// snapshotted.
  virtual bool LoadSnapshot(const EngineSnapshot& snapshot) {
    (void)snapshot;
    return false;
  }

 private:
  /// The cut context of the round PostPrice opened, awaiting Observe.
  PendingCut round_cut_;
  bool round_open_ = false;
};

}  // namespace pdm

#endif  // PDM_PRICING_PRICING_ENGINE_H_
