#include "scenario/linear_workload.h"

#include <algorithm>

#include "common/parallel.h"

namespace pdm::scenario {

LinearWorkload MakeLinearWorkload(int dim, int64_t rounds, int num_owners,
                                  uint64_t seed) {
  NoisyLinearMarketConfig config;
  config.feature_dim = dim;
  config.num_owners = num_owners;
  config.value_noise_sigma = 0.0;
  Rng rng(seed);
  const NoisyLinearQueryStream stream(config, &rng);
  LinearWorkload workload;
  workload.theta = stream.theta();
  workload.recommended_radius = stream.RecommendedRadius();
  // Feature buffers are allocated here, on the calling thread, so the
  // recorded workload lives in the caller's heap rather than in the worker
  // threads' malloc arenas; workers only write into them.
  workload.rounds.resize(static_cast<size_t>(rounds));
  for (MarketRound& round : workload.rounds) round.features.resize(static_cast<size_t>(dim));

  // With σ = 0 the query draws are the only Rng consumers, so one serial
  // pass records the generator at every chunk start. Each chunk then
  // re-draws its queries from that copy and fills its own rounds.
  const size_t chunks =
      static_cast<size_t>((rounds + kWorkloadChunkRounds - 1) / kWorkloadChunkRounds);
  std::vector<Rng> chunk_rngs;
  chunk_rngs.reserve(chunks);
  NoisyLinearQuery query;
  for (size_t c = 0; c < chunks; ++c) {
    chunk_rngs.push_back(rng);
    if (c + 1 == chunks) break;
    for (int64_t t = 0; t < kWorkloadChunkRounds; ++t) stream.DrawQuery(&rng, &query);
  }

  using Workspace = NoisyLinearQueryStream::Workspace;
  ParallelFor<Workspace>(chunks, /*threads=*/0, [&](size_t c, Workspace* ws) {
    Rng chunk_rng = chunk_rngs[c];
    const int64_t begin = static_cast<int64_t>(c) * kWorkloadChunkRounds;
    const int64_t end = std::min(rounds, begin + kWorkloadChunkRounds);
    for (int64_t t = begin; t < end; ++t) {
      stream.DrawQuery(&chunk_rng, &ws->query);
      stream.FillRound(ws->query, ws, &workload.rounds[static_cast<size_t>(t)]);
    }
  });
  return workload;
}

}  // namespace pdm::scenario
