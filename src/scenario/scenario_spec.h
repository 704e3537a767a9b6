#ifndef PDM_SCENARIO_SCENARIO_SPEC_H_
#define PDM_SCENARIO_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>

/// \file
/// The declarative scenario layer's value type.
///
/// A `ScenarioSpec` is pure data: which workload stream, which mechanism,
/// which dimension/horizon/seeds — everything needed to reproduce one paper
/// exhibit run (or any point of a sweep grid), with no factories or wiring.
/// `StreamFactory` turns the stream half into a `QueryStream`,
/// `MechanismRegistry` turns the mechanism half into a `PricingEngine`, and
/// `ExperimentDriver` (experiment.h) lowers the whole spec onto a
/// `SimulationJob` for the thread-pooled `SimulationRunner`. Identical specs
/// produce bit-identical results (DESIGN.md §4); the pre-refactor bench
/// binaries' hand-wired runs are reproduced exactly by the specs in
/// `ScenarioRegistry::PaperExhibits()` (tested in tests/scenario_test.cc).

namespace pdm::scenario {

/// Which of the five workload streams produces the query sequence.
enum class StreamKind {
  /// Application 1 (Section V-A): precomputed noisy-linear-query workload
  /// replayed through `NoisyReplayStream`; market noise is added at replay
  /// time from the scenario's own seeded Rng.
  kLinear,
  /// The kernelized model (Section IV-A): `KernelQueryStream`, landmarks and
  /// θ* drawn from the scenario Rng at stream construction.
  kKernel,
  /// Application 2 (Section V-B): Airbnb-like accommodation rental replay
  /// under the log-linear model.
  kAirbnb,
  /// Application 3 (Section V-C): Avazu-like ad impressions under the
  /// logistic model.
  kAvazu,
  /// The Lemma 8 adaptive adversary (Appendix).
  kAdversarial,
};

/// Outer link function g of the market-value model v = g(φ(x)ᵀθ*).
enum class LinkKind { kIdentity, kExp, kLogistic };

const char* StreamKindName(StreamKind kind);
const char* LinkKindName(LinkKind kind);

/// Parameters of `StreamKind::kLinear`.
struct LinearStreamParams {
  /// Data owners behind the broker; at least n, one per sorted partition.
  int num_owners = 2000;
  /// Distinct precomputed queries; the replay wraps around. 0 = one per
  /// round (the figure benches' setup; the throughput bench uses 2048).
  int64_t workload_rounds = 0;
  /// Market-value noise σ added at replay. < 0 derives the evaluation's
  /// default: σ = δ/(√(2·log 2)·log T) when the mechanism carries the
  /// uncertainty flag, 0 otherwise. ≥ 0 is used verbatim (the δ-ablation
  /// fixes the noise while sweeping the engine buffer).
  double noise_sigma = -1.0;
};

/// Parameters of `StreamKind::kKernel`. The engine dimension is
/// `ScenarioSpec::n` = number of landmarks m (unless misspecified).
struct KernelStreamParams {
  /// Raw feature dimension of a product.
  int input_dim = 4;
  /// RBF bandwidth γ.
  double rbf_gamma = 0.5;
  /// Reserve as a fraction of market value (0 disables).
  double reserve_fraction = 0.6;
  /// Offset keeping market values positive.
  double value_offset = 2.0;
  /// Price over the raw features instead of φ(x): the misspecification
  /// study of bench_kernel_pricing (engine dim = input_dim, radius 4R).
  bool misspecified_linear = false;
};

/// Parameters of `StreamKind::kAirbnb`. The horizon doubles as the number of
/// generated listings (the paper streams each listing once); `n` must be the
/// engineered space's dimension (55).
struct AirbnbStreamParams {
  /// log q / log v ∈ {0.4, 0.6, 0.8} in Fig. 5(b); ≤ 0 disables the reserve.
  double log_reserve_ratio = 0.6;
  /// Offline OLS train split.
  double train_fraction = 0.8;
  /// > 0: center the initial knowledge set on the offline fit with this
  /// radius (the tight-prior regime of DESIGN.md §3); 0 = honest ball prior.
  double oracle_prior_radius = 0.0;
};

/// Parameters of `StreamKind::kAvazu`. `n` is the hashed dimension; in dense
/// mode the engine dimension shrinks to the learned support size.
struct AvazuStreamParams {
  /// Keep only non-zero-weight coordinates (Fig. 5(c)'s dense encoding).
  bool dense = false;
  /// Offline FTRL training examples.
  int64_t train_samples = 200000;
  /// Hold-out examples for the reported log-loss.
  int64_t eval_samples = 20000;
  /// > 0: tight prior around the offline FTRL fit (sparse mode only).
  double oracle_prior_radius = 0.0;
};

/// Parameters of `StreamKind::kAdversarial` (Lemma 8 uses R = 1, S = 1).
struct AdversarialStreamParams {
  /// θ* components along e₁/e₂; ‖θ*‖ ≤ 1 must hold.
  double theta1 = 0.3;
  double theta2 = 0.8;
};

/// One declarative scenario. Field semantics that depend on the stream kind
/// are documented on the per-stream parameter structs above.
struct ScenarioSpec {
  /// Unique registry key, path-style so globs select families
  /// ("fig4/b/reserve", "throughput/pure/n=20").
  std::string name;
  /// Exhibit family ("fig4", "throughput", ...) — reported in pdm.run.v1.
  std::string family;

  StreamKind stream = StreamKind::kLinear;
  LinearStreamParams linear;
  KernelStreamParams kernel;
  AirbnbStreamParams airbnb;
  AvazuStreamParams avazu;
  AdversarialStreamParams adversarial;

  /// `MechanismRegistry` key ("pure", "uncertainty", "reserve",
  /// "reserve+uncertainty", "reserve-unsafe", "risk-averse").
  std::string mechanism = "reserve";

  /// Feature dimension n: aggregation granularity (linear), landmark budget
  /// m (kernel), hashed dimension (avazu), engineered dim 55 (airbnb),
  /// adversary dimension (adversarial, ≥ 2).
  int n = 20;
  /// Horizon T.
  int64_t rounds = 10000;
  /// Uncertainty buffer δ; applied only by mechanisms carrying the
  /// uncertainty flag (matching the published variants).
  double delta = 0.0;
  /// Exploration threshold override; ≤ 0 keeps the Theorem 1/3 default.
  double epsilon = -1.0;
  /// Outer link g. Must match the stream's market-value model: identity for
  /// linear/kernel/adversarial, exp for airbnb, logistic for avazu.
  LinkKind link = LinkKind::kIdentity;

  /// Seed of the offline/workload phase (dataset generation, θ* draws,
  /// offline training). Streams that have no offline phase ignore it.
  uint64_t workload_seed = 1;
  /// Seed of the online simulation's Rng (the `SimulationJob` seed).
  uint64_t sim_seed = 99;
  /// Regret-series sampling stride (0 = no series).
  int64_t series_stride = 0;

  /// Packed (upper-triangular) shape storage for ellipsoid engines: halves
  /// the per-product shape bytes at serving scale (DESIGN.md §12). Off by
  /// default — the dense path stays bit-identical to every published pin;
  /// packed mode is a documented-tolerance twin. Interval engines ignore it.
  bool packed_shape = false;
};

/// Returns the empty string when `spec` is well-formed, else a
/// human-readable description of the first problem found (unknown mechanism,
/// link/stream mismatch, non-positive horizon, ...).
std::string Validate(const ScenarioSpec& spec);

/// Shrinks `spec` to at most `max_rounds` rounds without changing its
/// workload identity beyond what the horizon cap implies: recorded linear
/// workloads never outsize the capped horizon, and a series stride larger
/// than the horizon is dropped. `max_rounds <= 0` is a no-op. This is the
/// one capping rule every driver shares (`ExperimentDriver::Capped`,
/// `broker::RunScenariosThroughBroker`, the CI smoke grids).
ScenarioSpec CapRounds(const ScenarioSpec& spec, int64_t max_rounds);

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_SCENARIO_SPEC_H_
