#include "pricing/generalized_engine.h"

#include <algorithm>
#include <string_view>

#include "common/check.h"
#include "pricing/engine_state.h"

namespace pdm {

GeneralizedPricingEngine::GeneralizedPricingEngine(std::unique_ptr<PricingEngine> base,
                                                   std::shared_ptr<const LinkFunction> link,
                                                   std::shared_ptr<const FeatureMap> map)
    : base_(std::move(base)), link_(std::move(link)), map_(std::move(map)) {
  PDM_CHECK(base_ != nullptr);
  PDM_CHECK(link_ != nullptr);
  PDM_CHECK(map_ != nullptr);
}

void GeneralizedPricingEngine::PostPriceBatch(const double* panel, int k,
                                              const double* reserves,
                                              PostedPrice* posted,
                                              PendingCut* const* cuts) {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && reserves != nullptr && posted != nullptr &&
            cuts != nullptr);
  const int in_dim = input_dim();
  const int z_dim = base_->dim();

  // Pass 1: resolve link-range skips in the wrapper (a reserve at or above
  // the range of g can never be met by any market value: certain no sale
  // without consulting the base engine) and φ-map the survivors into a
  // packed z-space panel. The scatter tables remember each survivor's batch
  // position so pass 3 can write results back in place.
  ws_.z_panel.resize(static_cast<size_t>(k) * static_cast<size_t>(z_dim));
  ws_.z_reserves.resize(static_cast<size_t>(k));
  ws_.z_posted.resize(static_cast<size_t>(k));
  ws_.z_cuts.resize(static_cast<size_t>(k));
  ws_.z_positions.resize(static_cast<size_t>(k));
  int m = 0;
  for (int j = 0; j < k; ++j) {
    if (reserves[j] >= link_->range_sup()) {
      // Price = reserve, certain no sale; the cut context (including its
      // support buffer) is left untouched apart from the wrapped_skip
      // routing fields.
      posted[j].price = reserves[j];
      posted[j].exploratory = false;
      posted[j].certain_no_sale = true;
      cuts[j]->kind = 0;
      cuts[j]->price = 0.0;
      cuts[j]->x = 0.0;
      cuts[j]->wrapped_skip = true;
      continue;
    }
    const double* x = panel + static_cast<size_t>(j) * in_dim;
    ws_.raw_bridge.assign(x, x + in_dim);
    map_->MapInto(ws_.raw_bridge, &ws_.z_features);
    PDM_CHECK(static_cast<int>(ws_.z_features.size()) == z_dim);
    std::copy(ws_.z_features.begin(), ws_.z_features.end(),
              ws_.z_panel.begin() + static_cast<size_t>(m) * z_dim);
    ws_.z_reserves[static_cast<size_t>(m)] = link_->Inverse(reserves[j]);
    ws_.z_cuts[static_cast<size_t>(m)] = cuts[j];
    ws_.z_positions[static_cast<size_t>(m)] = j;
    ++m;
  }
  if (m == 0) return;

  // Pass 2: one base-engine batch over the surviving z-space panel. The base
  // writes the cut contexts straight into the caller's slots.
  base_->PostPriceBatch(ws_.z_panel.data(), m, ws_.z_reserves.data(),
                        ws_.z_posted.data(), ws_.z_cuts.data());

  // Pass 3: scatter the z-space decisions back through the link, posting
  // max(g(p_z), q).
  for (int i = 0; i < m; ++i) {
    int j = ws_.z_positions[static_cast<size_t>(i)];
    PostedPrice out = ws_.z_posted[static_cast<size_t>(i)];
    out.price = std::max(link_->Apply(out.price), reserves[j]);
    posted[j] = out;
  }
}

ValueInterval GeneralizedPricingEngine::EstimateValueInterval(const Vector& features) const {
  // Adaptive streams call this every round; its own scratch keeps the call
  // allocation-free without touching the batch's φ(x) buffer.
  map_->MapInto(features, &ws_.z_estimate);
  ValueInterval z = base_->EstimateValueInterval(ws_.z_estimate);
  return ValueInterval{link_->Apply(z.lower), link_->Apply(z.upper)};
}

std::string GeneralizedPricingEngine::name() const {
  return base_->name() + "/" + link_->name();
}

int GeneralizedPricingEngine::input_dim() const {
  int raw = map_->input_dim();
  return raw > 0 ? raw : base_->dim();
}

void GeneralizedPricingEngine::ObserveDetached(const PendingCut& cut, bool accepted) {
  if (cut.wrapped_skip) return;  // the round never reached the base engine
  base_->ObserveDetached(cut, accepted);
}

bool GeneralizedPricingEngine::AcceptsCut(const PendingCut& cut) const {
  return cut.wrapped_skip ? cut.kind == 0 : base_->AcceptsCut(cut);
}

bool GeneralizedPricingEngine::SaveSnapshot(EngineSnapshot* out) const {
  PDM_CHECK(out != nullptr);
  if (!base_->SaveSnapshot(out)) return false;
  out->engine = "generalized(" + out->engine + ")";
  return true;
}

bool GeneralizedPricingEngine::LoadSnapshot(const EngineSnapshot& snapshot) {
  constexpr std::string_view kPrefix = "generalized(";
  if (snapshot.engine.size() < kPrefix.size() + 1 ||
      snapshot.engine.compare(0, kPrefix.size(), kPrefix) != 0 ||
      snapshot.engine.back() != ')') {
    return false;
  }
  EngineSnapshot unwrapped = snapshot;
  unwrapped.engine =
      snapshot.engine.substr(kPrefix.size(), snapshot.engine.size() - kPrefix.size() - 1);
  return base_->LoadSnapshot(unwrapped);
}

}  // namespace pdm
