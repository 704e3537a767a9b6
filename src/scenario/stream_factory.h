#ifndef PDM_SCENARIO_STREAM_FACTORY_H_
#define PDM_SCENARIO_STREAM_FACTORY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/avazu_like.h"
#include "market/airbnb_market.h"
#include "market/avazu_market.h"
#include "market/round.h"
#include "scenario/linear_workload.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_spec.h"

/// \file
/// Builds any of the five `QueryStream`s from a `ScenarioSpec`, caching the
/// heavy shared artifacts (precomputed linear workloads, the Airbnb offline
/// fit, the Avazu click log + FTRL model) so a batch of scenarios over the
/// same workload pays for it once.
///
/// Two-phase protocol, mirroring the runner's job lifecycle:
///
///   1. `Prepare(spec)` — called serially, one spec at a time, before any
///      scenario worker starts. Builds (or reuses) the shared immutable
///      workload and returns the engine-facing geometry (`WorkloadInfo`)
///      that `MechanismRegistry::Build` consumes. A linear workload's
///      synthesis uses every core internally (`MakeLinearWorkload`), which
///      is why callers must not run Prepare from inside their own pools.
///   2. `CreateStream(spec, rng)` — on the worker thread, with the
///      scenario's own `Rng(sim_seed)`. Only reads the caches, so concurrent
///      calls for different scenarios are safe.
///
/// Determinism: every prepared artifact is a pure function of the spec's
/// workload parameters and `workload_seed` (each gets a fresh
/// `Rng(workload_seed)`), and kernel scenarios re-derive their stream from
/// the scenario Rng itself — so a spec's outcome is bit-identical to the
/// hand-wired construction the dedicated benches used (DESIGN.md §4).

namespace pdm::scenario {

class StreamFactory {
 public:
  StreamFactory() = default;
  StreamFactory(const StreamFactory&) = delete;
  StreamFactory& operator=(const StreamFactory&) = delete;

  /// Prepare phase (not thread-safe; may itself run on every core):
  /// ensures the spec's shared workload exists and reports the engine
  /// geometry. PDM_CHECKs Validate(spec).
  WorkloadInfo Prepare(const ScenarioSpec& spec);

  /// Worker phase (thread-safe w.r.t. other CreateStream calls): builds the
  /// per-scenario stream over the prepared workload. `rng` is the
  /// scenario's own generator; kernel streams consume a construction prefix
  /// from it, exactly like the legacy benches did.
  std::unique_ptr<QueryStream> CreateStream(const ScenarioSpec& spec, Rng* rng) const;

  /// Market noise σ a linear scenario's replay applies: the explicit
  /// `linear.noise_sigma` when ≥ 0, else the evaluation's default —
  /// σ = δ/(√(2·log 2)·log T) for uncertainty mechanisms, 0 otherwise.
  double LinearNoiseSigma(const ScenarioSpec& spec) const;

  /// Prepared-artifact accessors (nullptr before Prepare). Benches use them
  /// for offline-phase reporting (test MSE, FTRL log-loss, θ*).
  const LinearWorkload* FindLinearWorkload(const ScenarioSpec& spec) const;
  /// The Airbnb market's fit and listings. Its rounds carry no reserve; the
  /// spec's stream applies the reserve table of its ratio.
  const AirbnbMarket* FindAirbnbMarket(const ScenarioSpec& spec) const;
  const AvazuMarket* FindAvazuMarket(const ScenarioSpec& spec) const;

 private:
  struct AirbnbArtifacts {
    // The listings and offline fit, built once per (T, train fraction,
    // seed) with no reserve: the ratio only sets each round's reserve.
    AirbnbMarket market;
    // One reserve table per log-reserve ratio > 0, keyed by the ratio
    // itself (exact), built at Prepare.
    std::map<double, std::vector<double>> reserves;
  };

  struct AvazuArtifacts {
    // The stream replays impressions straight out of the click log, so the
    // log must stay alive alongside the trained market.
    std::unique_ptr<AvazuLikeClickLog> click_log;
    AvazuMarket market;
  };

  std::string LinearKey(const ScenarioSpec& spec) const;
  std::string AirbnbKey(const ScenarioSpec& spec) const;
  std::string AvazuKey(const ScenarioSpec& spec) const;

  std::map<std::string, LinearWorkload> linear_cache_;
  std::map<std::string, AirbnbArtifacts> airbnb_cache_;
  std::map<std::string, AvazuArtifacts> avazu_cache_;
};

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_STREAM_FACTORY_H_
