#ifndef PDM_PRICING_ENGINE_STATE_H_
#define PDM_PRICING_ENGINE_STATE_H_

#include <cstdint>
#include <string>

#include "ellipsoid/ellipsoid.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

/// \file
/// The values an engine's state is made of (DESIGN.md §9).
///
/// The Fig. 2 protocol binds a price to its feedback: the knowledge-set
/// update needs the *posting-time* context of the round being answered (the
/// support interval the ellipsoid engine probed, the feature scalar of the
/// 1-d engine). Engines do not keep that context themselves — every quote
/// writes it into a caller-owned `PendingCut`, and the feedback hands it
/// back. A serving broker keeps one per ticket, so feedback may arrive late,
/// out of order across products, and in batches; `PricingEngine::PostPrice`
/// keeps one for the classic alternating loop.
///
///  - `PendingCut` is the posting-time cut context of one quoted round,
///    written by PricingEngine::PostPriceBatch and consumed by
///    ObserveDetached when that round's feedback arrives.
///  - `EngineCounters` are the Table I-style behaviour counters.
///  - `EngineSnapshot` is the full persistent state of an engine between
///    rounds — knowledge set, effective threshold, counters — used by the
///    broker's session checkpoint/migration path.
///
/// The structs reuse their vector buffers on assignment, so a broker that
/// recycles `PendingCut` slots keeps the steady-state zero-allocation
/// guarantee of DESIGN.md §6.

namespace pdm {

/// Posting-time feedback context of one round, held outside the engine so
/// the accept/reject bit can be applied later (and interleaved with other
/// rounds' contexts). Which fields are meaningful depends on the engine
/// family; `kind` is the engine's own PendingKind encoding and is only ever
/// round-tripped back into the engine that produced it.
struct PendingCut {
  /// Engine-specific pending-round kind (0 = none/idle).
  int kind = 0;
  /// The posted (z-space, for wrapped engines) price of the round.
  double price = 0.0;
  /// 1-d engines: the pending feature scalar x_t.
  double x = 0.0;
  /// Generalized adapter: the round was short-circuited by the link range
  /// check and never reached the base engine.
  bool wrapped_skip = false;
  /// Ellipsoid engines: the support interval probed at posting time. Its
  /// `direction` buffer is reused across slot recycles.
  SupportInterval support;
};

/// Cumulative behaviour counters (exposed for the regret analysis benches:
/// Lemma 6/7 bound `exploratory_rounds`).
struct EngineCounters {
  int64_t rounds = 0;
  int64_t exploratory_rounds = 0;
  int64_t conservative_rounds = 0;
  int64_t skipped_rounds = 0;  ///< certain-no-sale rounds
  int64_t cuts_applied = 0;
  int64_t cuts_discarded = 0;  ///< feedback outside the valid α window
};

/// Full serializable state of a pricing engine between rounds. One flat
/// struct covers every built-in family; `engine` tags which fields are live
/// ("ellipsoid", "interval", "baseline", or "generalized(<base>)" for the
/// link/feature-map adapter, whose own wrapper adds no persistent state).
struct EngineSnapshot {
  /// Engine family tag; LoadSnapshot refuses a mismatched tag.
  std::string engine;
  /// Engine (z-space) dimension.
  int dim = 0;
  /// Effective exploration threshold ε in use (after defaulting).
  double epsilon = 0.0;
  /// Uncertainty buffer δ.
  double delta = 0.0;
  /// Ellipsoid state: center c_t and shape A_t of the knowledge set, plus
  /// the drift-control phase (cuts since the last re-symmetrization,
  /// DESIGN.md §3) — restoring it keeps the resumed cut sequence
  /// bit-identical to an uninterrupted run.
  Vector center;
  Matrix shape{0, 0};
  int cuts_since_symmetrize = 0;
  /// Interval (1-d) state: K_t = [lo, hi].
  double lo = 0.0;
  double hi = 0.0;
  EngineCounters counters;
};

}  // namespace pdm

#endif  // PDM_PRICING_ENGINE_STATE_H_
