// Standalone `pdm.wire.v1` TCP server: opens a fleet of bench products on a
// Broker and serves them until SIGINT/SIGTERM (or --max_seconds). The
// products are the deterministic (setup, prefix) fleet from
// broker_bench_util, so a `loadgen` started with the same --products/--dim/
// --seed flags reconstructs the product names and query rings on its own —
// no control-plane protocol needed (DESIGN.md §10).
//
//   pdm_serve                          # ephemeral port, printed on stdout
//   pdm_serve --port=7411 --products=4
//   pdm_serve --max_seconds=60         # CI smoke: self-terminating
//
// Prints exactly one "LISTENING <port>" line to stdout once ready, followed
// by one "METRICS <port>" line when the Prometheus scrape endpoint is
// enabled (scripts scrape both to find the ephemeral ports).
//
// One MetricRegistry backs the broker and server instruments, the scrape
// endpoint and the GetMetrics opcode. The shutdown stats printed below come
// from Broker::Stats() — the same summation the broker's scrape collector
// reports (DESIGN.md §13) — and ServerStats.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "broker_bench_util.h"
#include "common/fault.h"
#include "common/flags.h"
#include "metrics/metrics.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t metrics_port = 0;
  int64_t products = 2;
  int64_t max_seconds = 0;
  pdm::broker_bench::ProductSetup setup;
  pdm::FlagSet flags("pdm_serve");
  flags.AddString("host", &host, "IPv4 literal to bind");
  flags.AddInt64("port", &port, "TCP port (0 = ephemeral)");
  flags.AddInt64("metrics_port", &metrics_port,
                 "Prometheus scrape port (0 = ephemeral, -1 = disabled)");
  flags.AddInt64("products", &products, "bench products to open");
  flags.AddInt64("dim", &setup.dim, "feature dimension n of every product");
  flags.AddInt64("workload_rounds", &setup.workload_rounds,
                 "distinct precomputed queries per product");
  flags.AddInt64("owners", &setup.num_owners, "data owners behind each workload");
  flags.AddInt64("rounds", &setup.rounds, "spec horizon (engine schedule input)");
  flags.AddDouble("delta", &setup.delta,
                  "uncertainty buffer for the *+uncertainty variants");
  flags.AddUint64("seed", &setup.seed, "base workload seed");
  flags.AddInt64("max_seconds", &max_seconds,
                 "self-terminate after this many seconds (0 = run until signal)");
  std::string spill_dir;
  int64_t max_resident = 0;
  std::string faults;
  int64_t idle_timeout_ms = 0;
  flags.AddString("spill_dir", &spill_dir,
                  "cold-tier spill directory ('' disables eviction); restarting "
                  "on the same directory recovers pre-crash spills (§14)");
  flags.AddInt64("max_resident", &max_resident,
                 "soft cap on resident sessions (0 = unlimited)");
  flags.AddString("faults", &faults,
                  "fault-injection spec, e.g. 'seed=7,spill.write=0.01,"
                  "server.recv_reset@40' ('' keeps the injector disarmed)");
  flags.AddInt64("idle_timeout_ms", &idle_timeout_ms,
                 "reap wire connections idle this long (0 = never)");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (port < 0 || port > 65535 || metrics_port < -1 || metrics_port > 65535 ||
      products < 1) {
    std::fprintf(stderr, "bad --port/--metrics_port/--products\n");
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  if (!faults.empty()) {
    pdm::Status configured =
        pdm::fault::FaultInjector::Global().Configure(faults);
    if (!configured.ok()) {
      std::fprintf(stderr, "--faults: %s\n", configured.ToString().c_str());
      return 1;
    }
    pdm::fault::FaultInjector::Global().Arm();
  }

  pdm::metrics::MetricRegistry registry;
  pdm::scenario::StreamFactory factory;
  pdm::broker::BrokerConfig broker_config;
  broker_config.metrics = &registry;
  broker_config.spill_dir = spill_dir;
  broker_config.max_resident_sessions =
      max_resident > 0 ? static_cast<size_t>(max_resident) : 0;
  pdm::broker::Broker broker(broker_config);
  pdm::broker_bench::OpenProducts(&factory, &broker, products, setup, "serve/");
  // Everything the fleet didn't adopt is a leaked spill from some other
  // (or renamed) fleet — reclaim it now so the directory can't grow across
  // unclean restarts.
  broker.SweepUnclaimedSpills();

  pdm::server::ServerConfig config;
  config.host = host;
  config.port = static_cast<uint16_t>(port);
  config.metrics_port = static_cast<int>(metrics_port);
  config.metrics = &registry;
  config.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  pdm::server::TcpServer server(&broker, config);
  pdm::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "Start: %s\n", started.ToString().c_str());
    return 1;
  }
  // The RECOVERY handshake line precedes LISTENING so drill scripts can
  // awk-parse what the restart salvaged before any traffic lands.
  pdm::broker::RecoveryReport recovery = broker.recovery_report();
  std::printf("RECOVERY adopted=%zu tmp=%zu corrupt=%zu orphans=%zu\n",
              recovery.adopted, recovery.tmp_reclaimed,
              recovery.corrupt_quarantined, recovery.orphans_reclaimed);
  std::printf("LISTENING %u\n", server.port());
  if (metrics_port >= 0) std::printf("METRICS %u\n", server.metrics_port());
  std::fflush(stdout);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(max_seconds > 0 ? max_seconds : 0);
  while (!g_stop.load(std::memory_order_acquire)) {
    if (max_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Stop();
  pdm::server::ServerStats stats = server.stats();
  std::printf("served %lld frames (%lld coalesced in %lld runs) over %lld "
              "connections; %lld protocol errors\n",
              static_cast<long long>(stats.frames_served),
              static_cast<long long>(stats.frames_coalesced),
              static_cast<long long>(stats.coalesced_runs),
              static_cast<long long>(stats.connections_accepted),
              static_cast<long long>(stats.protocol_errors));
  pdm::broker::BrokerStats totals = broker.Stats();
  std::printf("quotes: %llu posted (%llu accepted, %llu rejected); regret "
              "proxy %.3f\n",
              static_cast<unsigned long long>(totals.quotes),
              static_cast<unsigned long long>(totals.accepts),
              static_cast<unsigned long long>(totals.rejects), totals.regret_proxy);
  std::printf("memory: %zu sessions (%zu resident, %zu evicted, %zu "
              "quarantined); slab slots %zu live / %zu tombstoned / %zu free; "
              "%llu evictions, %llu fault-ins, %zu spill bytes in %zu pack "
              "bytes, %llu relocations, %lld retired ticket slots\n",
              totals.open_sessions, totals.resident_sessions,
              totals.evicted_sessions, totals.quarantined_sessions,
              totals.slab_live_slots, totals.slab_tombstoned_slots,
              totals.slab_free_capacity,
              static_cast<unsigned long long>(totals.evictions),
              static_cast<unsigned long long>(totals.fault_ins), totals.spill_bytes,
              totals.spill_file_bytes, static_cast<unsigned long long>(totals.relocations),
              static_cast<long long>(totals.retired_ticket_slots));
  // The fault counters stay push instruments (they fire on rare cold-path
  // events), so their registry cells are current without a scrape.
  std::printf("faults: %llu spill corruptions, %llu spill write errors, %lld "
              "shed frames, %lld idle reaped\n",
              static_cast<unsigned long long>(
                  registry.GetCounter("pdm_broker_spill_corruptions_total", "")
                      .value()),
              static_cast<unsigned long long>(
                  registry.GetCounter("pdm_broker_spill_write_errors_total", "")
                      .value()),
              static_cast<long long>(stats.shed_frames),
              static_cast<long long>(stats.idle_reaped));
  return 0;
}
