#ifndef PDM_PRICING_GENERALIZED_ENGINE_H_
#define PDM_PRICING_GENERALIZED_ENGINE_H_

#include <memory>
#include <string>

#include "pricing/feature_maps.h"
#include "pricing/link_functions.h"
#include "pricing/pricing_engine.h"

/// \file
/// Adapter that lifts any base (linear, z-space) pricing engine to the
/// non-linear market value model v = g(φ(x)ᵀθ*) of Theorem 2.
///
/// Per round: map x to φ(x); pull the reserve back through g⁻¹; let the base
/// engine choose a z-space price p_z with the reserve constraint g⁻¹(q); post
/// g(p_z) (≥ q because g is non-decreasing). Accept/reject feedback is passed
/// straight through — p ≤ v ⇔ p_z ≤ g⁻¹(v) for monotone g, so the z-space cut
/// semantics are unchanged.

namespace pdm {

class GeneralizedPricingEngine : public PricingEngine {
 public:
  /// `base` must be sized for the φ-image dimension (base->dim() ==
  /// map->output_dim(raw input dim)).
  GeneralizedPricingEngine(std::unique_ptr<PricingEngine> base,
                           std::shared_ptr<const LinkFunction> link,
                           std::shared_ptr<const FeatureMap> map);

  /// Raw input feature dimension is whatever the map accepts; dim() reports
  /// the base engine's (z-space) dimension for introspection.
  int dim() const override { return base_->dim(); }
  ValueInterval EstimateValueInterval(const Vector& features) const override;
  const EngineCounters& counters() const override { return base_->counters(); }
  std::string name() const override;

  const PricingEngine& base() const { return *base_; }

  /// Raw feature dimension the map accepts (≠ dim() for kernel maps).
  int input_dim() const override;

  /// Link-range skips are resolved in the wrapper and flagged on their cut
  /// contexts; the surviving queries are φ-mapped into a z-space panel and
  /// handed to the base engine's batch in one call (DESIGN.md §11).
  bool SupportsBatchedQuotes() const override {
    return base_->SupportsBatchedQuotes();
  }
  void PostPriceBatch(const double* panel, int k, const double* reserves,
                      PostedPrice* posted, PendingCut* const* cuts) override;
  void ObserveDetached(const PendingCut& cut, bool accepted) override;
  /// A link-range skip (`wrapped_skip`, kind 0) is the wrapper's own cut;
  /// anything else must suit the base engine.
  bool AcceptsCut(const PendingCut& cut) const override;

  /// The base engine's snapshot, re-tagged "generalized(<base>)" — the
  /// wrapper itself holds no persistent state.
  bool SaveSnapshot(EngineSnapshot* out) const override;
  bool LoadSnapshot(const EngineSnapshot& snapshot) override;

 private:
  /// Scratch buffers reused across rounds so steady-state calls perform no
  /// heap allocation (the workspace convention of README's Performance
  /// section). Mutable because EstimateValueInterval is a const observer on
  /// the adaptive-stream hot path; it gets its own buffer so interleaved
  /// diagnostic calls never clobber a batch's φ(x).
  struct Workspace {
    /// Per-query φ(x) target of MapInto in PostPriceBatch.
    Vector z_features;
    /// φ(x) target of MapInto in EstimateValueInterval.
    Vector z_estimate;
    /// PostPriceBatch scratch, grown to the high-water batch size: the raw
    /// feature bridge for MapInto, the packed z-space panel and reserves for
    /// the base engine, and the compacted posted/cut/position tables for the
    /// non-skipped queries.
    Vector raw_bridge;
    Vector z_panel;
    Vector z_reserves;
    std::vector<PostedPrice> z_posted;
    std::vector<PendingCut*> z_cuts;
    std::vector<int> z_positions;
  };

  std::unique_ptr<PricingEngine> base_;
  std::shared_ptr<const LinkFunction> link_;
  std::shared_ptr<const FeatureMap> map_;
  mutable Workspace ws_;
};

}  // namespace pdm

#endif  // PDM_PRICING_GENERALIZED_ENGINE_H_
