// Wire-serving quickstart: the broker behind a TCP server speaking
// pdm.wire.v1, exercised end to end on loopback (DESIGN.md §10).
//
// Three things examples/broker_serving.cpp cannot show:
//   1. the framed binary protocol round-tripping quotes bit-exactly over
//      a real socket (doubles travel as raw IEEE-754 bits);
//   2. pipelined requests coalescing server-side into the batched broker
//      paths — observable in the server stats;
//   3. graceful drain: Stop() answers everything already buffered before
//      closing the connections.

#include <cstdio>
#include <cstdlib>
#include <memory>
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
  std::printf("=== pdm TCP serving quickstart ===\n\n");

  // A product behind a broker, exactly as in the in-process example.
  pdm::scenario::StreamFactory factory;
  pdm::broker::Broker broker;

  pdm::scenario::ScenarioSpec spec;
  spec.name = "wearables/heart-rate";
  spec.stream = pdm::scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = 20;
  spec.rounds = 4000;
  spec.delta = 0.01;
  spec.workload_seed = 7;
  Check(broker.OpenSession(spec.name, spec, factory.Prepare(spec)), "OpenSession");

  // Put it on the wire: port 0 asks the kernel for an ephemeral port.
  pdm::server::TcpServer server(&broker);
  Check(server.Start(), "Start");
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  pdm::server::Client client;
  Check(client.Connect("127.0.0.1", server.port()), "Connect");

  // Resolve once, then price by handle — the same steady-state contract
  // as the in-process API, now one frame per call.
  pdm::broker::ProductHandle handle;
  Check(client.Resolve(spec.name, &handle), "Resolve");

  pdm::Rng rng(spec.sim_seed);
  std::unique_ptr<pdm::QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(broker.FindEngine(spec.name));

  // Pipelined batches: queue 8 PostPrice frames, flush once, read 8
  // responses. The server sees the whole run in one read and coalesces it
  // into a single batched PostPrices call on the broker.
  constexpr int kBatches = 50;
  constexpr int kBatch = 8;
  pdm::MarketRound round;
  std::vector<pdm::MarketRound> rounds(kBatch);
  std::vector<pdm::broker::Quote> quotes(kBatch);
  int sales = 0;
  for (int b = 0; b < kBatches; ++b) {
    for (int k = 0; k < kBatch; ++k) {
      stream->Next(&rng, &rounds[k]);
      client.QueuePostPrice(handle, rounds[k].features, rounds[k].reserve);
    }
    Check(client.Flush(), "Flush");
    for (int k = 0; k < kBatch; ++k) {
      pdm::server::Response resp;
      if (!client.ReadResponse(&resp).ok() || !resp.status.ok()) {
        std::fprintf(stderr, "PostPrice failed\n");
        return 1;
      }
      quotes[k] = resp.quote;
    }
    // Answer the tickets the same way (an Observe run coalesces too).
    for (int k = 0; k < kBatch; ++k) {
      bool accepted = !quotes[k].certain_no_sale && quotes[k].price <= rounds[k].value;
      sales += accepted ? 1 : 0;
      client.QueueObserve(quotes[k].ticket, accepted);
    }
    Check(client.Flush(), "Flush");
    for (int k = 0; k < kBatch; ++k) {
      pdm::server::Response resp;
      if (!client.ReadResponse(&resp).ok() || !resp.status.ok()) {
        std::fprintf(stderr, "Observe failed\n");
        return 1;
      }
    }
  }
  std::printf("priced %d rounds over the wire, %d sales\n", kBatches * kBatch, sales);

  // The coalescing is visible in the server's stats: nearly every frame
  // was answered through a batched broker call.
  pdm::server::ServerStats stats = server.stats();
  std::printf("server: %lld frames served, %lld coalesced in %lld runs\n",
              static_cast<long long>(stats.frames_served),
              static_cast<long long>(stats.frames_coalesced),
              static_cast<long long>(stats.coalesced_runs));

  // Graceful drain: everything buffered is answered before sockets close.
  server.Stop();
  std::printf("server drained and stopped\n");
  return 0;
}
