// Tests for the metrics subsystem (DESIGN.md §13): handle semantics and
// idempotent registration, the no-op gateway, Prometheus text exposition
// goldens (escaping, sparse histogram buckets, non-finite gauges), the
// pdm.metrics.v1 dump codec, and a registry hammered by concurrent writers
// while a reader renders — the latter is the TSan target: every cell access
// must be an atomic op, never a plain read racing a fetch_add.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "metrics/metrics.h"

namespace pdm::metrics {
namespace {

// ------------------------------------------------------------ handles/cells

TEST(MetricHandles, CounterIncrementAndAdd) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("t_total", "help");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricHandles, GaugeSetAddSub) {
  MetricRegistry registry;
  Gauge g = registry.GetGauge("t", "help");
  g.Set(10.0);
  g.Add(5.0);
  g.Sub(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.5);
}

TEST(MetricHandles, HistogramCountSumQuantile) {
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("t_ns", "help");
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  for (uint64_t v : {100u, 200u, 300u, 400u}) h.Record(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1000u);
  // Conservative quantiles land on bucket floors at or below the sample.
  EXPECT_LE(h.Quantile(0.5), 200u);
  EXPECT_GT(h.Quantile(0.5), 100u);
  EXPECT_LE(h.Quantile(1.0), 400u);
}

TEST(MetricRegistryTest, LookupsAreIdempotentSameCell) {
  // The reader contract: a second lookup of the same (name, labels) observes
  // what the first handle wrote. This is how shutdown stats and CI scrapes
  // read the hot path's cells without side plumbing.
  MetricRegistry registry;
  Counter a = registry.GetCounter("dup_total", "help");
  a.Add(7);
  Counter b = registry.GetCounter("dup_total", "help");
  EXPECT_EQ(b.value(), 7u);
  b.Increment();
  EXPECT_EQ(a.value(), 8u);

  Counter labeled = registry.GetCounter("dup_total", "help", {{"k", "v"}});
  EXPECT_EQ(labeled.value(), 0u);  // distinct label set → distinct cell
  labeled.Add(3);
  EXPECT_EQ(a.value(), 8u);
  EXPECT_EQ(registry.GetCounter("dup_total", "help", {{"k", "v"}}).value(), 3u);

  Gauge g1 = registry.GetGauge("dup_gauge", "help");
  g1.Set(1.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("dup_gauge", "help").value(), 1.5);

  Histogram h1 = registry.GetHistogram("dup_ns", "help");
  h1.Record(64);
  EXPECT_EQ(registry.GetHistogram("dup_ns", "help").count(), 1);
}

TEST(NoopGateway, SinkHandlesAcceptWritesAndRenderNothing) {
  MetricGateway* noop = MetricGateway::Noop();
  ASSERT_NE(noop, nullptr);
  EXPECT_EQ(noop, MetricGateway::Noop());  // process-wide singleton

  Counter c = noop->GetCounter("ignored_total", "ignored");
  Gauge g = noop->GetGauge("ignored", "ignored");
  Histogram h = noop->GetHistogram("ignored_ns", "ignored");
  c.Increment();
  g.Set(3.0);
  h.Record(1234);

  // Default-constructed handles alias the same sink cells.
  Counter default_counter;
  default_counter.Add(5);
  EXPECT_GE(c.value(), 6u);  // both writes landed in the shared sink
}

TEST(MetricHandles, HistogramAddGainAddsWhatSourcesGainedSinceTheLastCall) {
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("gain_ns", "help");
  h.Record(5);
  std::vector<HistogramCell> sources(2);
  HistogramCell seen;
  sources[0].RecordSingleWriter(5);
  sources[1].Record(100);
  h.AddGain(sources, &seen);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 110u);
  // The sources keep their samples; `seen` holds their sum.
  EXPECT_EQ(sources[0].count.load(), 1);
  EXPECT_EQ(sources[1].sum.load(), 100u);
  EXPECT_EQ(seen.count.load(), 2);
  EXPECT_EQ(seen.sum.load(), 105u);
  h.AddGain(sources, &seen);  // nothing gained, nothing added
  EXPECT_EQ(h.count(), 3);
  sources[1].RecordSingleWriter(7);
  h.AddGain(sources, &seen);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 117u);
  EXPECT_EQ(h.Quantile(1.0), 100u);
  EXPECT_EQ(h.Quantile(0.25), 5u);
}

TEST(PerThreadHistogram, ExitedThreadsReleaseTheirCells) {
  // Every predecessor gave its claim back on exit, so each of these
  // short-lived threads finds a cell of its own.
  constexpr size_t kCells = PerThreadHistogram::kExclusiveCells;
  for (size_t i = 0; i < 4 * kCells; ++i) {
    size_t cell = kCells;
    std::thread([&cell] { cell = PerThreadHistogram::CallingThreadCell(); }).join();
    EXPECT_LT(cell, kCells) << "thread " << i;
  }
}

TEST(PerThreadHistogram, AWaveWiderThanTheCellsSharesTheOverflowCellExactly) {
  // TSan target. The threads hold their claims while they record, so the
  // ones past kExclusiveCells share the overflow cell; a scrape loop races
  // them, and every count it sees is monotone and the last one exact.
  constexpr size_t kCells = PerThreadHistogram::kExclusiveCells;
  constexpr size_t kThreads = kCells + 4;
  constexpr uint64_t kRecords = 2000;
  MetricRegistry registry;
  Histogram target = registry.GetHistogram("wave", "help");
  PerThreadHistogram histogram;
  std::vector<size_t> cells(kThreads);
  std::atomic<size_t> claimed{0};
  std::atomic<size_t> running{kThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cells[t] = PerThreadHistogram::CallingThreadCell();
      claimed.fetch_add(1);
      while (claimed.load() < kThreads) std::this_thread::yield();
      for (uint64_t k = 0; k < kRecords; ++k) histogram.Record(k % 7 + 1);
      running.fetch_sub(1);
    });
  }
  int64_t last = 0;
  while (running.load() > 0) {
    histogram.CollectInto(&target);
    EXPECT_GE(target.count(), last);
    last = target.count();
  }
  for (std::thread& thread : threads) thread.join();
  histogram.CollectInto(&target);

  size_t overflow = 0;
  std::vector<bool> taken(kCells, false);
  for (size_t cell : cells) {
    if (cell == kCells) {
      ++overflow;
      continue;
    }
    ASSERT_LT(cell, kCells);
    EXPECT_FALSE(taken[cell]) << "two live threads hold cell " << cell;
    taken[cell] = true;
  }
  EXPECT_GE(overflow, kThreads - kCells);
  EXPECT_EQ(target.count(), static_cast<int64_t>(kThreads * kRecords));
  uint64_t per_thread_sum = 0;
  for (uint64_t k = 0; k < kRecords; ++k) per_thread_sum += k % 7 + 1;
  EXPECT_EQ(target.sum(), kThreads * per_thread_sum);
}

// --------------------------------------------------------------- collectors

/// A pull-model source: its total lives outside the registry, and each
/// Collect adds what changed since the previous one.
struct PulledCounter : MetricCollector {
  Counter counter;
  uint64_t total = 0;
  uint64_t reported = 0;
  int calls = 0;
  void Collect() override {
    ++calls;
    counter.Add(total - reported);
    reported = total;
  }
};

TEST(MetricCollectors, RunBeforeEveryRenderAndDumpAndOnceMoreOnRemoval) {
  MetricRegistry registry;
  PulledCounter source;
  source.counter = registry.GetCounter("pulled_total", "Pulled.");
  registry.AddCollector(&source);

  source.total = 5;
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP pulled_total Pulled.\n"
            "# TYPE pulled_total counter\n"
            "pulled_total 5\n");
  source.total = 7;
  MetricsDump dump;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("pulled_total"), 7u);
  EXPECT_EQ(source.calls, 2);

  // Removal collects once more, so the cell keeps everything the source
  // counted, and never calls it again.
  source.total = 9;
  registry.RemoveCollector(&source);
  EXPECT_EQ(source.calls, 3);
  source.total = 100;
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP pulled_total Pulled.\n"
            "# TYPE pulled_total counter\n"
            "pulled_total 9\n");
  registry.RemoveCollector(&source);  // no longer registered: a no-op
  EXPECT_EQ(source.calls, 3);
}

TEST(MetricCollectors, TwoSourcesOnOneInstrumentReportTheirSum) {
  MetricRegistry registry;
  PulledCounter a;
  PulledCounter b;
  a.counter = registry.GetCounter("pulled_total", "Pulled.");
  b.counter = registry.GetCounter("pulled_total", "Pulled.");
  registry.AddCollector(&a);
  registry.AddCollector(&b);
  a.total = 3;
  b.total = 4;
  MetricsDump dump;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("pulled_total"), 7u);
  a.total = 10;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("pulled_total"), 14u);
  registry.RemoveCollector(&a);
  registry.RemoveCollector(&b);
}

TEST(MetricCollectors, NoopGatewayIgnoresCollectors) {
  PulledCounter source;
  MetricGateway::Noop()->AddCollector(&source);
  MetricGateway::Noop()->RemoveCollector(&source);
  EXPECT_EQ(source.calls, 0);
}

// --------------------------------------------------------------- exposition

TEST(Exposition, CounterGolden) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("pdm_quotes_total", "Quotes issued.");
  c.Add(3);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP pdm_quotes_total Quotes issued.\n"
            "# TYPE pdm_quotes_total counter\n"
            "pdm_quotes_total 3\n");
}

TEST(Exposition, HelpAndLabelEscaping) {
  MetricRegistry registry;
  Counter c = registry.GetCounter("esc_total", "line1\nback\\slash",
                                  {{"op", "a\"b\\c\nd"}});
  c.Increment();
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP esc_total line1\\nback\\\\slash\n"
            "# TYPE esc_total counter\n"
            "esc_total{op=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(Exposition, LabeledInstrumentsRenderInRegistrationOrder) {
  MetricRegistry registry;
  registry.GetCounter("frames_total", "Frames.", {{"opcode", "ping"}}).Add(2);
  registry.GetCounter("frames_total", "Frames.", {{"opcode", "observe"}})
      .Add(5);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP frames_total Frames.\n"
            "# TYPE frames_total counter\n"
            "frames_total{opcode=\"ping\"} 2\n"
            "frames_total{opcode=\"observe\"} 5\n");
}

TEST(Exposition, NonFiniteGaugesAreNaNSafe) {
  MetricRegistry registry;
  registry.GetGauge("g_nan", "h").Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("g_pinf", "h").Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("g_ninf", "h").Set(-std::numeric_limits<double>::infinity());
  registry.GetGauge("g_half", "h").Set(2.5);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("g_nan NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_pinf +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_ninf -Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_half 2.5\n"), std::string::npos) << text;
}

TEST(Exposition, HistogramSparseOctaveBucketsGolden) {
  // Samples land in octaves 0 (value 5), 1 (value 100), and 14 (1 ms); the
  // twelve empty octaves between are elided, and the cumulative series stays
  // monotone through the gaps. Edges come from the shared log-linear grid:
  // BucketFloor(group_end) - 1.
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("lat_ns", "Latency.");
  h.Record(5);
  h.Record(5);
  h.Record(100);
  h.Record(1000000);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP lat_ns Latency.\n"
            "# TYPE lat_ns histogram\n"
            "lat_ns_bucket{le=\"63\"} 2\n"
            "lat_ns_bucket{le=\"127\"} 3\n"
            "lat_ns_bucket{le=\"1048575\"} 4\n"
            "lat_ns_bucket{le=\"+Inf\"} 4\n"
            "lat_ns_sum 1000110\n"
            "lat_ns_count 4\n");
}

TEST(Exposition, HistogramWithLabelsKeepsLeLast) {
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("req_ns", "h", {{"op", "ping"}});
  h.Record(10);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("req_ns_bucket{op=\"ping\",le=\"63\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("req_ns_bucket{op=\"ping\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("req_ns_sum{op=\"ping\"} 10\n"), std::string::npos);
  EXPECT_NE(text.find("req_ns_count{op=\"ping\"} 1\n"), std::string::npos);
}

// --------------------------------------------------------------- dump codec

/// Lowercase hex of a byte string, so a golden mismatch prints readably.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(DumpCodec, EncodesGoldenBytes) {
  // One labelled counter, one gauge, one sparse histogram (two occupied
  // buckets): the exact pdm.metrics.v1 bytes, not just a round trip.
  MetricRegistry registry;
  registry.GetCounter("c_total", "Count.", {{"op", "ping"}}).Add(5);
  registry.GetGauge("g", "Gauge.").Set(-2.25);
  Histogram h = registry.GetHistogram("h_ns", "Hist.");
  h.Record(5);
  h.Record(5);
  h.Record(1000000);
  EXPECT_EQ(Hex(registry.EncodeDump()),
            "50444d4d45545231010000000300000007000000635f746f74616c0600000043"
            "6f756e742e000100000001000000020000006f700400000070696e6705000000"
            "0000000001000000670600000047617567652e01010000000000000000000000"
            "000002c004000000685f6e7305000000486973742e0201000000000000000300"
            "0000000000004a420f000000000002000000050000000200000000000000ba03"
            "00000100000000000000");
}

TEST(DumpCodec, RoundTripAllInstrumentTypes) {
  MetricRegistry registry;
  registry.GetCounter("c_total", "counter help").Add(42);
  registry.GetCounter("c_total", "counter help", {{"opcode", "ping"}}).Add(7);
  registry.GetGauge("g", "gauge help").Set(-2.25);
  registry.GetGauge("g_nan", "h").Set(std::numeric_limits<double>::quiet_NaN());
  Histogram h = registry.GetHistogram("h_ns", "hist help");
  h.Record(100);
  h.Record(100);
  h.Record(1000000);

  MetricsDump dump;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  ASSERT_EQ(dump.instruments.size(), 5u);

  EXPECT_EQ(dump.CounterValue("c_total"), 42u);
  const DumpInstrument* labeled = dump.Find("c_total", "opcode", "ping");
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->counter, 7u);
  EXPECT_EQ(dump.Find("c_total", "opcode", "pong"), nullptr);

  const DumpInstrument* gauge = dump.Find("g");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->type, InstrumentType::kGauge);
  EXPECT_DOUBLE_EQ(gauge->gauge, -2.25);
  const DumpInstrument* nan_gauge = dump.Find("g_nan");
  ASSERT_NE(nan_gauge, nullptr);
  EXPECT_TRUE(std::isnan(nan_gauge->gauge));  // bit-exact through the codec

  const DumpInstrument* hist = dump.Find("h_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, InstrumentType::kHistogram);
  EXPECT_EQ(hist->hist_count, 3);
  EXPECT_EQ(hist->hist_sum, 1000200u);
  ASSERT_EQ(hist->hist_buckets.size(), 2u);  // two occupied buckets, sparse
  uint64_t total = 0;
  for (const auto& [index, bucket_count] : hist->hist_buckets) {
    total += bucket_count;
  }
  EXPECT_EQ(total, 3u);
  // The dump-side quantile matches the live handle's (same grid, same data).
  EXPECT_EQ(hist->HistogramQuantile(0.5), h.Quantile(0.5));
  EXPECT_EQ(hist->HistogramQuantile(0.99), h.Quantile(0.99));
}

TEST(DumpCodec, EmptyRegistryRoundTrips) {
  MetricRegistry registry;
  MetricsDump dump;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_TRUE(dump.instruments.empty());
  EXPECT_EQ(dump.CounterValue("absent_total"), 0u);
  EXPECT_EQ(dump.Find("absent"), nullptr);
}

TEST(DumpCodec, RejectsMalformedInput) {
  MetricsDump dump;
  EXPECT_FALSE(DecodeMetricsDump("", &dump).ok());
  EXPECT_FALSE(DecodeMetricsDump("NOTMAGIC", &dump).ok());

  MetricRegistry registry;
  registry.GetCounter("c_total", "h").Increment();
  std::string bytes = registry.EncodeDump();
  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeMetricsDump(std::string_view(bytes).substr(0, cut), &dump)
                     .ok())
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_FALSE(DecodeMetricsDump(bytes + "x", &dump).ok());  // trailing bytes
  EXPECT_TRUE(DecodeMetricsDump(bytes, &dump).ok());
}

// -------------------------------------------------------------- concurrency

TEST(MetricRegistryConcurrency, WritersRaceRenderAndDump) {
  // TSan target: 4 writer threads hammer one counter, one gauge, and one
  // histogram while the main thread renders + encodes in a loop. All cell
  // traffic is atomic; the registry mutex only guards structure. Final
  // values must be exact — relaxed ordering loses no increments.
  MetricRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  Counter counter = registry.GetCounter("race_total", "h");
  Gauge gauge = registry.GetGauge("race_gauge", "h");
  Histogram hist = registry.GetHistogram("race_ns", "h");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // Each thread resolves its own handles: registration races
      // registration and rendering, exactly the wiring-time contract.
      Counter c = registry.GetCounter("race_total", "h");
      Gauge g = registry.GetGauge("race_gauge", "h");
      Histogram h = registry.GetHistogram("race_ns", "h");
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.Increment();
        g.Add(1.0);
        h.Record(static_cast<uint64_t>((t + 1) * 100 + i % 50));
      }
    });
  }
  std::thread reader([&registry, &stop] {
    std::string text;
    MetricsDump dump;
    while (!stop.load(std::memory_order_acquire)) {
      text.clear();
      registry.RenderPrometheus(&text);
      ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_DOUBLE_EQ(gauge.value(), double(kThreads) * kOpsPerThread);
  EXPECT_EQ(hist.count(), int64_t{kThreads} * kOpsPerThread);

  MetricsDump dump;
  ASSERT_TRUE(DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("race_total"),
            uint64_t{kThreads} * kOpsPerThread);
  const DumpInstrument* h = dump.Find("race_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist_count, int64_t{kThreads} * kOpsPerThread);
}

}  // namespace
}  // namespace pdm::metrics
