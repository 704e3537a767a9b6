#ifndef PDM_PRICING_ELLIPSOID_ENGINE_H_
#define PDM_PRICING_ELLIPSOID_ENGINE_H_

#include <cstdint>
#include <string>

#include "ellipsoid/ellipsoid.h"
#include "pricing/pricing_engine.h"

/// \file
/// The paper's contribution: ellipsoid-based contextual dynamic pricing with
/// the reserve price constraint (Algorithms 1 and 2), for feature dimension
/// n ≥ 2. Four published variants are configurations of this one class:
///
///   Algorithm 1* "pure":                    use_reserve=false, delta=0
///   Algorithm 2* "with uncertainty":        use_reserve=false, delta>0
///   Algorithm 1  "with reserve":            use_reserve=true,  delta=0
///   Algorithm 2  "with reserve+uncertainty":use_reserve=true,  delta>0
///
/// Per round: compute [p̲, p̄] from the ellipsoid; skip if q ≥ p̄ + δ; post
/// the exploratory price max(q, (p̲+p̄)/2) when p̄ − p̲ > ε, else the
/// conservative price max(q, p̲ − δ). Exploratory feedback cuts the ellipsoid
/// at the effective price p ± δ when the cut position α lies in the paper's
/// validity window; conservative prices never cut (Lemma 8 shows allowing
/// them admits an O(T)-regret adversary — the `allow_conservative_cuts`
/// ablation switch exists to demonstrate exactly that).

namespace pdm {

struct EllipsoidEngineConfig {
  /// Feature dimension n ≥ 2 (use IntervalPricingEngine for n = 1).
  int dim = 2;
  /// Horizon T used for the default threshold ε = max(n²/T, 4nδ) (Theorem 1).
  int64_t horizon = 10000;
  /// Initial knowledge-set ball radius R (‖θ* − initial_center‖ ≤ R must
  /// hold).
  double initial_radius = 1.0;
  /// Initial knowledge-set center c₁ (empty = origin, the paper's setup).
  /// A broker usually knows coarse market levels (e.g. the average price), so
  /// centering the prior there is the production-sensible choice; the regret
  /// analysis only needs θ* ∈ E₁.
  Vector initial_center;
  /// Exploration threshold ε on p̄ − p̲; ≤ 0 selects the Theorem 1 default.
  double epsilon = -1.0;
  /// Uncertainty buffer δ (Algorithm 2); 0 recovers Algorithm 1.
  double delta = 0.0;
  /// Enforce the reserve-price constraint (Algorithm 1/2 vs the * variants).
  bool use_reserve = true;
  /// ABLATION ONLY: also cut on conservative-price feedback. Unsafe — see
  /// Lemma 8 / bench_lemma8_adversarial.
  bool allow_conservative_cuts = false;
  /// Store the shape matrix packed (upper triangle only): n(n+1)/2 doubles
  /// instead of n², halving the dominant per-product bytes at serving scale
  /// (DESIGN.md §12). Semantically the same algorithm; numerically a
  /// documented-tolerance twin of the dense default (which stays
  /// bit-identical to every published pin). Within packed mode all
  /// determinism contracts hold, including bit-identical snapshot resume.
  bool packed_shape = false;
};

/// Theorem 1's threshold choice ε = max(n²/T, 4nδ); see the implementation
/// note for why the 4nδ clamp is required for stable dynamics.
double DefaultEllipsoidEpsilon(int dim, int64_t horizon, double delta);

class EllipsoidPricingEngine : public PricingEngine {
 public:
  explicit EllipsoidPricingEngine(const EllipsoidEngineConfig& config);

  int dim() const override { return config_.dim; }
  ValueInterval EstimateValueInterval(const Vector& features) const override;
  const EngineCounters& counters() const override { return counters_; }
  std::string name() const override;

  /// One Ellipsoid::SupportBatch pass covers the whole panel (DESIGN.md
  /// §11), writing each query's support interval into its cut context; then
  /// the Algorithm 2 decision ladder runs per query.
  bool SupportsBatchedQuotes() const override { return true; }
  void PostPriceBatch(const double* panel, int k, const double* reserves,
                      PostedPrice* posted, PendingCut* const* cuts) override;
  /// Cuts the knowledge set with the round's posting-time support and price.
  void ObserveDetached(const PendingCut& cut, bool accepted) override;
  /// Kinds 1–3, never `wrapped_skip`, and a support direction of length
  /// dim() whenever the probe was not degenerate (half_width > 0).
  bool AcceptsCut(const PendingCut& cut) const override;

  /// Snapshots carry the full ellipsoid state (center, shape,
  /// symmetrization phase) plus counters.
  bool SaveSnapshot(EngineSnapshot* out) const override;
  bool LoadSnapshot(const EngineSnapshot& snapshot) override;

  /// The knowledge set E_t (diagnostics, tests, Lemma 6/7 volume tracking).
  const Ellipsoid& knowledge_set() const { return ellipsoid_; }
  const EllipsoidEngineConfig& config() const { return config_; }
  /// Effective ε in use (after defaulting).
  double epsilon() const { return epsilon_; }

 private:
  /// PendingCut::kind values (serialized with pending tickets).
  enum class PendingKind { kNone, kExploratory, kConservative, kSkip };

  EllipsoidEngineConfig config_;
  double epsilon_;
  Ellipsoid ellipsoid_;
  EngineCounters counters_;

  // PostPriceBatch's table of where each query's support lands (its cut
  // context), grown to the high-water batch size and then reused.
  std::vector<SupportInterval*> support_out_;
};

}  // namespace pdm

#endif  // PDM_PRICING_ELLIPSOID_ENGINE_H_
