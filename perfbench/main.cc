// The repository benchmark: one binary, four workloads, one result line.
//
//   pdm_perfbench --workload <replay|serve-tcp|broker-mt|cold-tier>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--work_dir <dir>] [--commit <id>]
//                 [--inject <below_reserve|tally_mismatch>]
//
// An untraced run prints the end-to-end metrics, a traced run the per-layer
// ones (README.md in this directory lists both and what each should move).
// Report lines come first; the last line of standard output is the JSON
// result. The exit code is non-zero when any correctness check failed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

const char* const kMechanismKeys[] = {"pure", "uncertainty", "reserve",
                                      "reserve_uncertainty"};

/// End-to-end metrics every workload reports (mirrored in BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>>& EndToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"regret_ratio", "ratio"},
      {"rounds_per_s", "1/s"},
      {"quote_p50_us", "us"},
  };
  return names;
}

/// Per-layer metrics every traced run reports (mirrored in BENCHMARK.json).
/// A layer a workload does not load reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"scenario.prepare_s.linear", "s"},
        {"scenario.prepare_s.airbnb", "s"},
        {"scenario.prepare_s.avazu", "s"},
        {"scenario.build_engine_us", "us"},
        {"market.run_s", "s"},
        {"pricing.post_price_ns", "ns"},
        {"pricing.observe_ns", "ns"},
        {"pricing.post_price_batch_ns_per_quote", "ns"},
    };
    for (const char* family : {"sale_rate", "exploratory_share",
                               "certain_no_sale_share", "cuts_applied"}) {
      for (const char* mechanism : kMechanismKeys) {
        v.push_back({std::string("pricing.") + family + "." + mechanism,
                     std::string(family) == "cuts_applied" ? "count" : "ratio"});
      }
    }
    std::vector<std::pair<std::string, std::string>> rest = {
        {"broker.post_prices_ns.t1", "ns"},
        {"broker.post_prices_ns.tN", "ns"},
        {"broker.observes_ns.t1", "ns"},
        {"broker.observes_ns.tN", "ns"},
        {"broker.efficiency", "ratio"},
        {"broker.open_sessions_s", "s"},
        {"broker.evictions", "count"},
        {"broker.fault_ins", "count"},
        {"broker.resident_hit_rate", "ratio"},
        {"broker.snapshot_ns", "ns"},
        {"broker.restore_ns", "ns"},
        {"broker.spill_bytes_per_session", "bytes"},
        {"broker.arena_used_bytes", "bytes"},
        {"broker.arena_reserved_bytes", "bytes"},
        {"server.coalesced_share", "ratio"},
        {"server.frames_per_run", "count"},
        {"server.shed_frames", "count"},
        {"server.protocol_errors", "count"},
        {"server.request_p50_us", "us"},
        {"server.broker_ns_per_tick", "ns"},
        {"client.queue_ns", "ns"},
        {"client.flush_us", "us"},
        {"client.read_wait_us", "us"},
        {"client.lateness_us", "us"},
        {"scenario.self_s", "s"},
        {"market.self_s", "s"},
        {"pricing.self_s", "s"},
        {"broker.self_s", "s"},
        {"client.self_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

void Usage() {
  std::fprintf(stderr,
               "usage: pdm_perfbench --workload <replay|serve-tcp|broker-mt|cold-tier> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--work_dir <dir>] "
               "[--commit <id>] [--inject <below_reserve|tally_mismatch>]\n");
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

/// Keeps exactly the names of `wanted`, filling absent layers with 0; a
/// missing end-to-end metric is a benchmark bug and fails the run.
std::map<std::string, Metric> Select(
    const std::map<std::string, Metric>& have,
    const std::vector<std::pair<std::string, std::string>>& wanted, bool fill_zero,
    perfbench::Checker* checker) {
  std::map<std::string, Metric> out;
  for (const auto& [name, unit] : wanted) {
    auto it = have.find(name);
    if (it == have.end()) {
      if (!fill_zero) checker->Error("metric " + name + " was not measured");
      out[name] = {0.0, unit};
      continue;
    }
    double value = it->second.value;
    if (!std::isfinite(value)) {
      checker->Error("metric " + name + " is not finite");
      value = 0.0;
    }
    checker->Expect(it->second.unit == unit, "metric " + name + " has unit " +
                                                 it->second.unit + ", not " + unit);
    out[name] = {value, unit};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--work_dir") {
      options.work_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--inject") {
      options.inject = value();
    } else {
      Usage();
      return 2;
    }
  }
  const std::map<std::string, std::function<void(const perfbench::Options&,
                                                 perfbench::Report*,
                                                 perfbench::Checker*)>>
      workloads = {{"replay", perfbench::RunReplay},
                   {"serve-tcp", perfbench::RunServeTcp},
                   {"broker-mt", perfbench::RunBrokerMt},
                   {"cold-tier", perfbench::RunColdTier}};
  auto workload = workloads.find(options.workload);
  if (!have_workload || workload == workloads.end() || !(options.seconds > 0.0) ||
      (!options.inject.empty() && options.inject != "below_reserve" &&
       options.inject != "tally_mismatch")) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  std::printf("machine: nproc=%ld hardware_concurrency=%u compiler=\"%s\" "
              "build_type=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");
  std::fflush(stdout);

  perfbench::Report report;
  perfbench::Checker checker;
  workload->second(options, &report, &checker);
  report.Set("peak_rss_mb", perfbench::PeakRssMiB(), "MiB");

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("report: %s\n", MetricsObject(report.extra).c_str());
  if (options.trace) {
    // A traced run's end-to-end figures carry tracing overhead: shown, not
    // reported as results.
    std::printf("traced end-to-end (not results): %s\n",
                MetricsObject(report.metrics).c_str());
  }
  std::printf("checked: %lld quotes\n", static_cast<long long>(checker.quotes_checked()));
  std::map<std::string, Metric> result =
      options.trace ? Select(report.layers, LayerNames(), true, &checker)
                    : Select(report.metrics, EndToEndNames(), false, &checker);
  for (const std::string& message : checker.messages()) {
    std::printf("check failed: %s\n", message.c_str());
  }
  const bool correct = checker.failed() == 0;
  int64_t attempted = std::max<int64_t>(1, report.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(checker.failed()), MetricsObject(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
