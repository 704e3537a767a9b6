// Serving-path throughput: multi-threaded clients driving ticketed pricing
// round trips (batched handle-keyed PostPrices + batched Observes) through
// the Broker front end (DESIGN.md §9).
//
// Where bench_throughput measures the bare engine loop, this bench measures
// the *serving overhead on top of it*: snapshot-directory routing, the
// per-session lock, panel packing, ticket issue with the cut context
// written into the ticket slot, and feedback routing. `--products`
// decouples the client count from the product count, so both regimes are
// measurable:
//
//   bench_broker_throughput                        # 8 clients, one product each
//   bench_broker_throughput --threads=8 --products=1   # all clients contend
//   bench_broker_throughput --threads=16 --batch=128
//   bench_broker_throughput --smoke                # short CI mode
//
// Emits a machine-readable BENCH_broker.json (schema pdm.bench_broker.v1,
// plus the products / per-thread-distribution fields added in PR 5) so the
// aggregate — and the per-thread min/median, which the aggregate can hide —
// can be compared across commits. The thread-count scaling *curve* lives in
// bench_broker_scaling (schema pdm.bench_broker.v2).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "broker_bench_util.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/memory.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "metrics/metrics.h"

int main(int argc, char** argv) {
  int64_t threads = 8;
  int64_t products = 0;
  int64_t rounds = 200000;
  int64_t batch = 64;
  pdm::broker_bench::ProductSetup setup;
  bool smoke = false;
  std::string out_path = "BENCH_broker.json";
  std::string metrics_mode = "none";
  pdm::FlagSet flags("bench_broker_throughput");
  flags.AddString("metrics", &metrics_mode,
                  "metric gateway: none (unwired) or live (a wired "
                  "MetricRegistry). Both run the same request path, whose "
                  "counters are pulled at scrape time, so the two should "
                  "match within noise");
  flags.AddInt64("threads", &threads, "client threads");
  flags.AddInt64("products", &products,
                 "distinct products; clients map round-robin (0 = one per "
                 "thread, 1 = fully contended)");
  flags.AddInt64("rounds", &rounds, "timed round trips per client");
  flags.AddInt64("batch", &batch, "requests per PostPrices batch");
  flags.AddInt64("dim", &setup.dim, "feature dimension n of every product");
  flags.AddInt64("workload_rounds", &setup.workload_rounds,
                 "distinct precomputed queries per product");
  flags.AddInt64("owners", &setup.num_owners, "data owners behind each workload");
  flags.AddDouble("delta", &setup.delta,
                  "uncertainty buffer for the *+uncertainty variants");
  flags.AddUint64("seed", &setup.seed, "base workload seed");
  flags.AddBool("smoke", &smoke, "short CI mode (caps rounds at 20000)");
  flags.AddString("out", &out_path, "machine-readable JSON output path ('' disables)");
  std::string faults_mode = "none";
  flags.AddString("faults", &faults_mode,
                  "fault injector on the hot path: none (disarmed) or "
                  "armed-but-idle (armed, zero sites) — the <3%% §14 gate "
                  "compares the two");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (smoke && rounds > 20000) rounds = 20000;
  if (products == 0) products = threads;
  if (threads < 1 || rounds < 1 || batch < 1 || setup.dim < 1 || products < 1 ||
      setup.workload_rounds < 1) {
    std::fprintf(stderr,
                 "threads/rounds/batch/dim/products/workload_rounds must be "
                 "positive\n");
    return 1;
  }
  if (metrics_mode != "none" && metrics_mode != "live") {
    std::fprintf(stderr, "--metrics must be 'none' or 'live'\n");
    return 1;
  }
  if (faults_mode != "none" && faults_mode != "armed-but-idle") {
    std::fprintf(stderr, "--faults must be 'none' or 'armed-but-idle'\n");
    return 1;
  }
  // armed-but-idle: the injector is armed with no sites configured, so every
  // ShouldFail() pays the full armed-path lookup and always misses — the
  // worst case for the disabled-fault hot path the <3% gate bounds.
  if (faults_mode == "armed-but-idle") pdm::fault::FaultInjector::Global().Arm();
  setup.rounds = rounds;

  // Serial setup: products with precomputed workloads and registry-built
  // engines; query sequences are recorded up front so the timed region
  // measures broker round trips only.
  pdm::scenario::StreamFactory factory;
  pdm::metrics::MetricRegistry registry;
  pdm::broker::BrokerConfig broker_config;
  if (metrics_mode == "live") broker_config.metrics = &registry;
  pdm::broker::Broker broker(broker_config);
  std::vector<pdm::broker_bench::ProductWorkload> workloads =
      pdm::broker_bench::OpenProducts(&factory, &broker, products, setup, "client");

  std::printf(
      "=== broker round-trip sweep: %ld clients x %ld rounds over %ld products, "
      "batch %ld, n=%ld, metrics=%s, faults=%s ===\n\n",
      static_cast<long>(threads), static_cast<long>(rounds),
      static_cast<long>(products), static_cast<long>(batch),
      static_cast<long>(setup.dim), metrics_mode.c_str(), faults_mode.c_str());

  pdm::broker_bench::RegionResult region =
      pdm::broker_bench::RunClients(&broker, workloads, threads, rounds, batch);
  pdm::broker_bench::ThreadRateStats rates =
      pdm::broker_bench::RateStats(region.clients);
  double aggregate_per_sec = region.aggregate_rounds_per_sec();
  int64_t rss_bytes = pdm::CurrentRssBytes();

  pdm::TablePrinter table({"client", "rounds/s", "ns/round"});
  for (const pdm::broker_bench::ClientResult& result : region.clients) {
    table.AddRow({result.product, pdm::FormatDouble(result.rounds_per_sec(), 0),
                  pdm::FormatDouble(result.wall_seconds * 1e9 /
                                        static_cast<double>(result.rounds),
                                    1)});
  }
  table.AddRow({"aggregate", pdm::FormatDouble(aggregate_per_sec, 0),
                pdm::FormatDouble(region.region_seconds * 1e9 /
                                      static_cast<double>(region.total_rounds),
                                  1)});
  table.Print(std::cout);
  std::printf(
      "\naggregate: %.2fM priced round trips/s over %ld clients "
      "(per-thread min %.2fM / median %.2fM, rss %.1f MiB)\n",
      aggregate_per_sec / 1e6, static_cast<long>(threads), rates.min / 1e6,
      rates.median / 1e6, static_cast<double>(rss_bytes) / (1024.0 * 1024.0));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    pdm::JsonWriter json(&out);
    json.BeginObject();
    json.Field("schema", "pdm.bench_broker.v1");
    json.Field("threads", threads);
    json.Field("products", products);
    json.Field("rounds_per_thread", rounds);
    json.Field("batch", batch);
    json.Field("dim", setup.dim);
    json.Field("workload_rounds", setup.workload_rounds);
    json.Field("delta", setup.delta);
    json.Field("metrics", metrics_mode);
    json.Field("faults", faults_mode);
    json.Key("aggregate");
    json.BeginObject();
    json.Field("rounds", region.total_rounds);
    json.Field("wall_seconds", region.region_seconds);
    json.Field("rounds_per_sec", aggregate_per_sec);
    json.Field("ns_per_round", region.region_seconds * 1e9 /
                                   static_cast<double>(region.total_rounds));
    json.Field("per_thread_min_rounds_per_sec", rates.min);
    json.Field("per_thread_median_rounds_per_sec", rates.median);
    json.Field("rss_bytes", rss_bytes);
    json.EndObject();
    json.Key("results");
    json.BeginArray();
    for (const pdm::broker_bench::ClientResult& result : region.clients) {
      double wall = result.wall_seconds;
      json.BeginObject();
      json.Field("scenario", result.product);
      json.Field("variant", result.variant);
      json.Field("dim", setup.dim);
      json.Field("rounds", result.rounds);
      json.Field("wall_seconds", wall);
      json.Field("rounds_per_sec", result.rounds_per_sec());
      json.Field("ns_per_round", wall * 1e9 / static_cast<double>(result.rounds));
      json.Field("rss_bytes", rss_bytes);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::printf("wrote %s (%zu clients, schema pdm.bench_broker.v1)\n",
                out_path.c_str(), region.clients.size());
  }
  return 0;
}
