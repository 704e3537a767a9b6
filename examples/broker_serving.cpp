// Serving quickstart: a Broker pricing several data products concurrently
// through the ticketed request/feedback API (DESIGN.md §9).
//
// Four things the simulation loop (examples/quickstart.cpp) cannot do:
//   1. multiple named products behind one front end, with batched pricing;
//   2. a resolve-once ProductHandle fast path that skips name hashing on
//      every steady-state request;
//   3. feedback delayed and interleaved across products via tickets;
//   4. checkpointing a live session and resuming it bit-identically.

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "pdm.h"

/// Every Status is checked: on failure, name the call and exit non-zero.
void Check(const pdm::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

int main() {
  std::printf("=== pdm broker serving quickstart ===\n\n");

  // Two data products: a 20-d linear market and a 1-d query market, both
  // built by name through the scenario registry's mechanism catalogue.
  pdm::scenario::StreamFactory factory;
  pdm::broker::Broker broker;

  pdm::scenario::ScenarioSpec wearables;
  wearables.name = "wearables/heart-rate";
  wearables.stream = pdm::scenario::StreamKind::kLinear;
  wearables.mechanism = "reserve+uncertainty";
  wearables.n = 20;
  wearables.rounds = 4000;
  wearables.delta = 0.01;
  wearables.workload_seed = 7;

  pdm::scenario::ScenarioSpec mobility;
  mobility.name = "mobility/trips";
  mobility.stream = pdm::scenario::StreamKind::kLinear;
  mobility.mechanism = "reserve";
  mobility.n = 1;
  mobility.rounds = 4000;
  mobility.workload_seed = 8;

  for (const pdm::scenario::ScenarioSpec& spec : {wearables, mobility}) {
    Check(broker.OpenSession(spec.name, spec, factory.Prepare(spec)), "OpenSession");
  }

  // Steady-state clients resolve each product once; every request after
  // that routes by handle — no string hashing, no directory contention.
  pdm::broker::ProductHandle wearables_handle, mobility_handle;
  Check(broker.Resolve(wearables.name, &wearables_handle), "Resolve");
  Check(broker.Resolve(mobility.name, &mobility_handle), "Resolve");

  // Client loop: batch-price both products, then answer tickets — the
  // feedback for one product may arrive while the other already has new
  // quotes outstanding; the broker buffers each ticket's cut context.
  pdm::Rng rng_a(wearables.sim_seed), rng_b(mobility.sim_seed);
  auto stream_a = factory.CreateStream(wearables, &rng_a);
  auto stream_b = factory.CreateStream(mobility, &rng_b);

  pdm::MarketRound round_a, round_b;
  std::vector<pdm::broker::HandleRequest> requests(2);
  std::vector<pdm::broker::Quote> quotes(2);
  int sales = 0;
  for (int t = 0; t < 500; ++t) {
    stream_a->Next(&rng_a, &round_a);
    stream_b->Next(&rng_b, &round_b);
    requests[0] = {wearables_handle, round_a.features, round_a.reserve};
    requests[1] = {mobility_handle, round_b.features, round_b.reserve};
    Check(broker.PostPrices(std::span<const pdm::broker::HandleRequest>(requests),
                            quotes),
          "PostPrices");
    // Consumers answer in their own time; tickets route the feedback.
    bool buy_a = !quotes[0].certain_no_sale && quotes[0].price <= round_a.value;
    bool buy_b = !quotes[1].certain_no_sale && quotes[1].price <= round_b.value;
    Check(broker.Observe(quotes[1].ticket, buy_b), "Observe");  // out of order
    Check(broker.Observe(quotes[0].ticket, buy_a), "Observe");
    sales += static_cast<int>(buy_a) + static_cast<int>(buy_b);
  }

  // Misuse is a Status, not a crash.
  pdm::broker::Quote bad;
  pdm::Status oops = broker.PostPrice({"no/such/product", round_a.features, 0.0}, &bad);
  std::printf("unknown product   -> %s\n", oops.ToString().c_str());
  oops = broker.Observe(quotes[0].ticket, true);
  std::printf("duplicate ticket  -> %s\n\n", oops.ToString().c_str());

  // Checkpoint the wearables session, keep trading, then roll back: the
  // restored session re-quotes the same prices the checkpoint would have.
  pdm::broker::SessionSnapshot snapshot;
  Check(broker.Snapshot(wearables.name, &snapshot), "Snapshot");
  std::string bytes = pdm::broker::EncodeSessionSnapshot(snapshot);

  stream_a->Next(&rng_a, &round_a);
  pdm::broker::Quote before, after;
  Check(broker.PostPrice({wearables.name, round_a.features, round_a.reserve}, &before),
        "PostPrice");
  Check(broker.Observe(before.ticket, false), "Observe");

  pdm::broker::SessionSnapshot restored;
  Check(pdm::broker::DecodeSessionSnapshot(bytes, &restored), "DecodeSessionSnapshot");
  Check(broker.Restore(wearables.name, restored), "Restore");
  Check(broker.PostPrice({wearables.name, round_a.features, round_a.reserve}, &after),
        "PostPrice");
  Check(broker.Observe(after.ticket, false), "Observe");
  std::printf("snapshot round-trip (%zu bytes): price %.6f == %.6f -> %s\n\n",
              bytes.size(), before.price, after.price,
              before.price == after.price ? "resumed bit-identically" : "MISMATCH");

  for (const std::string& product : broker.Products()) {
    pdm::broker::SessionInfo info;
    Check(broker.GetSessionInfo(product, &info), "GetSessionInfo");
    std::printf("%-22s engine=%-22s quotes=%lld feedback=%lld cuts=%lld\n",
                product.c_str(), info.engine_name.c_str(),
                static_cast<long long>(info.quotes_issued),
                static_cast<long long>(info.feedback_received),
                static_cast<long long>(info.counters.cuts_applied));
  }
  std::printf("\n%d sales across both products\n", sales);
  return 0;
}
