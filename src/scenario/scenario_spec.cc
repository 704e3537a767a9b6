#include "scenario/scenario_spec.h"

#include <algorithm>

#include "features/airbnb_features.h"
#include "scenario/mechanism_registry.h"

namespace pdm::scenario {

const char* StreamKindName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kLinear:
      return "linear";
    case StreamKind::kKernel:
      return "kernel";
    case StreamKind::kAirbnb:
      return "airbnb";
    case StreamKind::kAvazu:
      return "avazu";
    case StreamKind::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

const char* LinkKindName(LinkKind kind) {
  switch (kind) {
    case LinkKind::kIdentity:
      return "identity";
    case LinkKind::kExp:
      return "exp";
    case LinkKind::kLogistic:
      return "logistic";
  }
  return "unknown";
}

std::string Validate(const ScenarioSpec& spec) {
  if (!MechanismRegistry::Builtin().Contains(spec.mechanism)) {
    return "unknown mechanism '" + spec.mechanism + "'";
  }
  if (spec.rounds <= 0) return "rounds must be positive";
  if (spec.n < 1) return "n must be >= 1";
  if (spec.delta < 0.0) return "delta must be >= 0";
  if (spec.series_stride < 0) return "series_stride must be >= 0";
  switch (spec.stream) {
    case StreamKind::kLinear:
      if (spec.link != LinkKind::kIdentity) {
        return "linear stream requires the identity link";
      }
      if (spec.linear.num_owners < spec.n) {
        return "linear stream needs num_owners >= n (one owner per sorted partition)";
      }
      if (spec.linear.workload_rounds < 0) {
        return "workload_rounds must be >= 0 (0 = one query per round)";
      }
      break;
    case StreamKind::kKernel:
      if (spec.link != LinkKind::kIdentity) {
        return "kernel stream requires the identity link (the kernel is the map)";
      }
      if (spec.kernel.input_dim < 1) return "kernel input_dim must be >= 1";
      break;
    case StreamKind::kAirbnb:
      if (spec.link != LinkKind::kExp) {
        return "airbnb stream models log-linear values: link must be exp";
      }
      if (spec.n != AirbnbFeatureSpace::kDim) {
        return "airbnb stream prices the engineered " +
               std::to_string(AirbnbFeatureSpace::kDim) + "-dim space: n must match";
      }
      break;
    case StreamKind::kAvazu:
      if (spec.link != LinkKind::kLogistic) {
        return "avazu stream models CTR values: link must be logistic";
      }
      if (spec.avazu.dense && spec.avazu.oracle_prior_radius > 0.0) {
        return "the oracle prior is defined over the sparse encoding only";
      }
      if (spec.avazu.train_samples < 1) return "avazu train_samples must be >= 1";
      break;
    case StreamKind::kAdversarial:
      if (spec.link != LinkKind::kIdentity) {
        return "adversarial stream requires the identity link";
      }
      if (spec.n < 2) return "the Lemma 8 adversary needs n >= 2";
      break;
  }
  return "";
}

ScenarioSpec CapRounds(const ScenarioSpec& spec, int64_t max_rounds) {
  ScenarioSpec capped = spec;
  if (max_rounds > 0 && capped.rounds > max_rounds) {
    capped.rounds = max_rounds;
    // Recorded workloads never need to outsize the capped horizon.
    if (capped.linear.workload_rounds > 0) {
      capped.linear.workload_rounds =
          std::min(capped.linear.workload_rounds, capped.rounds);
    }
    if (capped.series_stride > capped.rounds) capped.series_stride = 0;
  }
  return capped;
}

}  // namespace pdm::scenario
