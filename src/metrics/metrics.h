#ifndef PDM_METRICS_METRICS_H_
#define PDM_METRICS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/concurrency.h"
#include "common/histogram.h"
#include "common/status.h"

/// \file
/// Allocation-free serving metrics (DESIGN.md §13).
///
/// The layer splits into three pieces:
///
///   * **Cells** — cache-line-padded atomics (`CounterCell`, `GaugeCell`,
///     `HistogramCell`) that hold the actual state. A histogram cell reuses
///     `LatencyHistogram`'s log-linear bucket geometry so scraped quantiles
///     line up with the bench JSON quantiles bit for bit.
///     `PerThreadHistogram` gives each recording thread a cell of its own,
///     recorded without read-modify-writes.
///   * **Handles** — `Counter` / `Gauge` / `Histogram` are one-pointer
///     wrappers resolved once at wiring time. `Increment`/`Add`/`Record` on
///     the hot path are single relaxed atomic RMWs: no allocation, no lock,
///     and no branch beyond the handle deref. A default-constructed handle
///     points at a process-wide *sink* cell, so unwired code pays the same
///     (tiny) cost as wired code instead of branching on null.
///   * **Gateway** — `MetricGateway` is the abstract wiring surface
///     (coincenter-style abstract/void/live split). `NoopMetricGateway`
///     hands out sink-backed handles; `MetricRegistry` is the live
///     implementation that names instruments, renders Prometheus text
///     exposition format, and encodes the `pdm.metrics.v1` binary dump the
///     wire protocol's `GetMetrics` opcode returns.
///   * **Collectors** — the pull side. A layer that already counts events in
///     its own per-owner state (the broker's session slots) registers a
///     `MetricCollector` instead of pushing every event into a shared cell;
///     the registry runs it right before each render or dump, and it adds
///     what changed since its previous run to its instruments' cells.
///
/// Instruments are identified by (family name, label set). Lookups are
/// idempotent: asking twice for the same instrument returns handles on the
/// same cell. Push instruments are therefore readable through a second
/// handle at any time; collected ones are only current inside a render or
/// dump, so readers take a dump (or the owning layer's own stats).

namespace pdm::metrics {

// ---------------------------------------------------------------------------
// Cells

struct alignas(kCacheLineSize) CounterCell {
  std::atomic<uint64_t> value{0};
};

struct alignas(kCacheLineSize) GaugeCell {
  std::atomic<double> value{0.0};

  /// Relaxed add: x86-64 has no atomic f64 fetch_add, so this is a CAS loop;
  /// uncontended it is one cycle of the loop.
  void Add(double delta) {
    double cur = value.load(std::memory_order_relaxed);
    while (!value.compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
    }
  }
};

/// Atomic counterpart of `LatencyHistogram`: same log-linear bucket grid,
/// per-bucket relaxed counters plus exact count and nanosecond sum. Record is
/// three relaxed fetch_adds (bucket, count, sum); rendering reads the buckets
/// relaxed, so a concurrent scrape sees a consistent-enough snapshot (counts
/// may trail the buckets by in-flight samples, never the reverse by more
/// than the same in-flight window).
struct alignas(kCacheLineSize) HistogramCell {
  std::atomic<uint64_t> buckets[LatencyHistogram::kBucketCount];
  std::atomic<int64_t> count{0};
  std::atomic<uint64_t> sum{0};

  HistogramCell() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }

  void Record(uint64_t nanos) {
    buckets[LatencyHistogram::BucketIndex(nanos)].fetch_add(
        1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(nanos, std::memory_order_relaxed);
  }

  /// Record for a cell that one thread at a time writes: a relaxed load
  /// plus a store per field, never a read-modify-write (the
  /// `SingleWriterCounter` contract). A later writer must be ordered after
  /// the earlier one's last record, as PerThreadHistogram's claims are.
  void RecordSingleWriter(uint64_t nanos) {
    std::atomic<uint64_t>& bucket = buckets[LatencyHistogram::BucketIndex(nanos)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    sum.store(sum.load(std::memory_order_relaxed) + nanos, std::memory_order_relaxed);
  }
};

namespace internal {
/// Process-wide sink cells backing default-constructed handles. Writing to
/// a sink is defined and cheap; reading one is meaningless.
CounterCell* SinkCounterCell();
GaugeCell* SinkGaugeCell();
HistogramCell* SinkHistogramCell();
}  // namespace internal

// ---------------------------------------------------------------------------
// Handles

/// Monotonic counter. Copyable, trivially destructible, default = no-op sink.
class Counter {
 public:
  Counter() : cell_(internal::SinkCounterCell()) {}
  explicit Counter(CounterCell* cell) : cell_(cell) {}

  void Increment() { cell_->value.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { cell_->value.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return cell_->value.load(std::memory_order_relaxed); }

 private:
  CounterCell* cell_;
};

/// Last-write-wins double gauge with merge-safe Add/Sub deltas.
class Gauge {
 public:
  Gauge() : cell_(internal::SinkGaugeCell()) {}
  explicit Gauge(GaugeCell* cell) : cell_(cell) {}

  void Set(double v) { cell_->value.store(v, std::memory_order_relaxed); }
  void Add(double delta) { cell_->Add(delta); }
  void Sub(double delta) { cell_->Add(-delta); }
  double value() const { return cell_->value.load(std::memory_order_relaxed); }

 private:
  GaugeCell* cell_;
};

/// Log-linear histogram handle (`HistogramMetric` in the DESIGN.md naming:
/// the instrument type wrapping `common/histogram`'s bucket geometry).
class Histogram {
 public:
  Histogram() : cell_(internal::SinkHistogramCell()) {}
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}

  void Record(uint64_t nanos) { cell_->Record(nanos); }
  /// Adds to this histogram what the `sources` gained, together, since the
  /// previous call that passed `seen`, and leaves their current sum in
  /// `seen`: the scrape-time merge of cells their writers keep recording
  /// into. The sources are only read, never reset, so a single-writer
  /// record is never raced by a second writer. Every field of a source only
  /// grows, so each call adds a non-negative amount, and a field a writer
  /// bumps concurrently lands in this call or the next, exactly once.
  /// Calls that share `seen` must be serialized.
  void AddGain(std::span<const HistogramCell> sources, HistogramCell* seen);
  int64_t count() const { return cell_->count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return cell_->sum.load(std::memory_order_relaxed); }
  /// Conservative q-quantile over the relaxed bucket snapshot (same contract
  /// as LatencyHistogram::Quantile). 0 when empty.
  uint64_t Quantile(double q) const;

 private:
  HistogramCell* cell_;
};

using HistogramMetric = Histogram;

namespace internal {
/// One thread's process-wide claim on a PerThreadHistogram cell number:
/// taken on the thread's first record, given back when the thread exits.
/// Taking a number acquires and giving it back releases, so a number's next
/// holder starts after its previous holder's last record.
class CellClaim {
 public:
  CellClaim();
  ~CellClaim();
  CellClaim(const CellClaim&) = delete;
  CellClaim& operator=(const CellClaim&) = delete;
  size_t cell() const { return cell_; }

 private:
  size_t cell_;
};
}  // namespace internal

/// A histogram that many threads record into without a read-modify-write
/// (DESIGN.md §13): the broker's batch sizes. A thread claims one of
/// kExclusiveCells cell numbers on its first Record and holds it until it
/// exits. Claims are process-wide, so while a thread lives no other thread
/// writes its cell of any PerThreadHistogram, and its Record is a relaxed
/// load plus a store per field. Threads that find every number claimed
/// share one overflow cell, which records with atomic adds, so the
/// histogram stays exact with any number of threads. The owner's collector
/// merges the cells into a registry histogram with CollectInto.
class PerThreadHistogram {
 public:
  static constexpr size_t kExclusiveCells = 8;

  PerThreadHistogram();
  PerThreadHistogram(const PerThreadHistogram&) = delete;
  PerThreadHistogram& operator=(const PerThreadHistogram&) = delete;

  void Record(uint64_t value) {
    const size_t cell = CallingThreadCell();
    if (cell < kExclusiveCells) {
      cells_[cell].RecordSingleWriter(value);
    } else {
      cells_[kExclusiveCells].Record(value);
    }
  }

  /// Adds what the cells gained since the previous call to `target`.
  /// Calls must be serialized (a registry runs its collectors under one
  /// lock).
  void CollectInto(Histogram* target);

  /// The calling thread's cell number: its own claim below kExclusiveCells,
  /// or kExclusiveCells for the overflow cell. The first call claims.
  static size_t CallingThreadCell() {
    thread_local const internal::CellClaim claim;
    return claim.cell();
  }

 private:
  /// kExclusiveCells claimable cells, the overflow cell, then the cells'
  /// sum as of the previous CollectInto.
  std::unique_ptr<HistogramCell[]> cells_;
};

// ---------------------------------------------------------------------------
// Gateway

struct Label {
  std::string name;
  std::string value;

  friend bool operator==(const Label& a, const Label& b) {
    return a.name == b.name && a.value == b.value;
  }
};

/// A scrape-time value source (the pull model, DESIGN.md §13). The owner
/// resolves its handles at wiring time like any push instrument, then
/// registers itself with `MetricGateway::AddCollector`. Before every render
/// or dump the registry calls `Collect()`, which reads the owner's own
/// counters and adds what changed since the previous call to the handles —
/// so several collectors feeding one instrument report their sum, and
/// counters stay monotone. Calls are serialized under the registry's mutex;
/// `Collect()` must not call back into the registry.
class MetricCollector {
 public:
  virtual ~MetricCollector() = default;
  virtual void Collect() = 0;
};

/// Abstract wiring surface. Layers take a `MetricGateway*` (null treated as
/// no-op) and resolve their instrument handles once at construction; after
/// that the gateway is never consulted again, so the hot path is identical
/// whether the process wired a live registry or nothing at all.
class MetricGateway {
 public:
  virtual ~MetricGateway() = default;

  virtual Counter GetCounter(std::string_view name, std::string_view help,
                             std::vector<Label> labels) = 0;
  virtual Gauge GetGauge(std::string_view name, std::string_view help,
                         std::vector<Label> labels) = 0;
  virtual Histogram GetHistogram(std::string_view name, std::string_view help,
                                 std::vector<Label> labels) = 0;

  /// Registers `collector` to run before every render and dump. The
  /// collector must stay alive until RemoveCollector returns.
  virtual void AddCollector(MetricCollector* collector) = 0;
  /// Runs `collector` one last time, so the cells keep everything it
  /// counted, then forgets it. Blocks while a render or dump is running, so
  /// once it returns the collector is never called again and its owner may
  /// be destroyed.
  virtual void RemoveCollector(MetricCollector* collector) = 0;

  Counter GetCounter(std::string_view name, std::string_view help) {
    return GetCounter(name, help, {});
  }
  Gauge GetGauge(std::string_view name, std::string_view help) {
    return GetGauge(name, help, {});
  }
  Histogram GetHistogram(std::string_view name, std::string_view help) {
    return GetHistogram(name, help, {});
  }

  /// Process-wide no-op gateway; the conventional default for a null
  /// `MetricGateway*` config field.
  static MetricGateway* Noop();
};

/// Hands out sink-backed handles: every instrument aliases the same sink
/// cell per type, so wiring against it costs nothing and records nothing.
/// Nothing is ever rendered, so collectors are ignored.
class NoopMetricGateway : public MetricGateway {
 public:
  Counter GetCounter(std::string_view, std::string_view,
                     std::vector<Label>) override {
    return Counter();
  }
  Gauge GetGauge(std::string_view, std::string_view,
                 std::vector<Label>) override {
    return Gauge();
  }
  Histogram GetHistogram(std::string_view, std::string_view,
                         std::vector<Label>) override {
    return Histogram();
  }
  void AddCollector(MetricCollector*) override {}
  void RemoveCollector(MetricCollector*) override {}
};

enum class InstrumentType : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// Live registry. Registration (GetCounter/...) takes a mutex and may
/// allocate; it happens once at wiring time. Reads for rendering/encoding
/// take the same mutex for the *structure* and the collectors only — cell
/// values are read with relaxed atomics, so concurrent hot-path writers are
/// never blocked.
class MetricRegistry : public MetricGateway {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter GetCounter(std::string_view name, std::string_view help,
                     std::vector<Label> labels) override;
  Gauge GetGauge(std::string_view name, std::string_view help,
                 std::vector<Label> labels) override;
  Histogram GetHistogram(std::string_view name, std::string_view help,
                         std::vector<Label> labels) override;
  using MetricGateway::GetCounter;
  using MetricGateway::GetGauge;
  using MetricGateway::GetHistogram;

  void AddCollector(MetricCollector* collector) override;
  void RemoveCollector(MetricCollector* collector) override;

  /// Appends the registry in Prometheus text exposition format 0.0.4
  /// (`# HELP`/`# TYPE` headers, escaped help/label text, histograms as
  /// cumulative `_bucket{le=...}`/`_sum`/`_count` series rendered at the
  /// log-linear grid's occupied octave edges). Runs the collectors first.
  void RenderPrometheus(std::string* out) const;
  std::string RenderPrometheus() const;

  /// Encodes the `pdm.metrics.v1` binary dump (the `GetMetrics` opcode
  /// payload). Self-describing: magic, version, then every instrument with
  /// name/labels/type and its current value(s). Runs the collectors first.
  std::string EncodeDump() const;

 private:
  struct Instrument {
    std::vector<Label> labels;
    CounterCell* counter = nullptr;
    GaugeCell* gauge = nullptr;
    HistogramCell* histogram = nullptr;
  };
  struct Family {
    std::string name;
    std::string help;
    InstrumentType type;
    std::vector<Instrument> instruments;
  };

  Family* FindOrCreateFamily(std::string_view name, std::string_view help,
                             InstrumentType type);
  Instrument* FindOrCreateInstrument(Family* family, std::vector<Label> labels);
  /// Runs every collector; `mu_` must be held.
  void RunCollectorsLocked() const;

  mutable std::mutex mu_;
  std::vector<Family> families_;  // registration order = render order
  std::vector<MetricCollector*> collectors_;
  // Deques: grow without moving, so handed-out cell pointers stay stable.
  std::deque<CounterCell> counter_cells_;
  std::deque<GaugeCell> gauge_cells_;
  std::deque<HistogramCell> histogram_cells_;
};

// ---------------------------------------------------------------------------
// pdm.metrics.v1 dump decoding (client side of the GetMetrics opcode)

struct DumpInstrument {
  std::string name;
  std::vector<Label> labels;
  InstrumentType type = InstrumentType::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  int64_t hist_count = 0;
  uint64_t hist_sum = 0;
  /// Sparse (bucket index, count) pairs on the LatencyHistogram grid.
  std::vector<std::pair<uint32_t, uint64_t>> hist_buckets;

  /// Conservative quantile over hist_buckets (histogram instruments only).
  uint64_t HistogramQuantile(double q) const;
};

struct MetricsDump {
  std::vector<DumpInstrument> instruments;

  /// First instrument of `name` with no labels, or nullptr.
  const DumpInstrument* Find(std::string_view name) const;
  /// First instrument of `name` carrying `label == value`, or nullptr.
  const DumpInstrument* Find(std::string_view name, std::string_view label,
                             std::string_view value) const;
  /// Counter value of the unlabeled instrument `name` (0 when absent).
  uint64_t CounterValue(std::string_view name) const;
};

Status DecodeMetricsDump(std::string_view bytes, MetricsDump* out);

}  // namespace pdm::metrics

#endif  // PDM_METRICS_METRICS_H_
