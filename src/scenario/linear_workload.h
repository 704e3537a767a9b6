#ifndef PDM_SCENARIO_LINEAR_WORKLOAD_H_
#define PDM_SCENARIO_LINEAR_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "market/linear_market.h"
#include "market/round.h"

/// \file
/// Precomputed noisy-linear-query workload (Application 1, Section V-A),
/// shared read-only across every mechanism variant of an exhibit so all
/// variants price the identical query sequence. Formerly bench-private
/// machinery in the (now deleted) bench/bench_common.h; it moved into the
/// scenario layer so the `StreamFactory` can cache one workload per
/// (n, T, owners, seed) key across a whole batch.

namespace pdm::scenario {

/// The recorded workload. `rounds[t].value` is the *clean* market value
/// x_tᵀθ*; per-variant market noise is added at replay time.
struct LinearWorkload {
  std::vector<MarketRound> rounds;
  Vector theta;
  double recommended_radius = 0.0;
};

/// Rounds per unit of parallel work in MakeLinearWorkload.
inline constexpr int64_t kWorkloadChunkRounds = 64;

/// Draws contracts, θ*, and `rounds` queries from `Rng(seed)`: round t is
/// exactly the t-th `NoisyLinearQueryStream::Next` of a stream built from
/// that generator with σ = 0. Synthesis runs on every core: one serial pass
/// records the generator at each `kWorkloadChunkRounds` boundary, then
/// hardware_concurrency() workers claim chunks, re-draw their queries and
/// fill the rounds (`FillRound`, a pure function of the drawn query), so
/// the workload is bit-identical at any thread count. Callers invoke it
/// serially (`StreamFactory::Prepare`), never from inside another pool.
LinearWorkload MakeLinearWorkload(int dim, int64_t rounds, int num_owners,
                                  uint64_t seed);

/// Replays a precomputed workload in order (wrapping around), adding fresh
/// Gaussian market noise with standard deviation `noise_sigma` to each
/// round's clean value.
class NoisyReplayStream : public QueryStream {
 public:
  NoisyReplayStream(const std::vector<MarketRound>* rounds, double noise_sigma)
      : rounds_(rounds), noise_sigma_(noise_sigma) {}

  using QueryStream::Next;
  void Next(Rng* rng, MarketRound* round) override {
    *round = (*rounds_)[cursor_];  // copy-assign reuses the feature buffer
    cursor_ = (cursor_ + 1) % rounds_->size();
    if (noise_sigma_ > 0.0) {
      round->value += rng->NextGaussian(0.0, noise_sigma_);
    }
  }

 private:
  const std::vector<MarketRound>* rounds_;
  double noise_sigma_;
  size_t cursor_ = 0;
};

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_LINEAR_WORKLOAD_H_
