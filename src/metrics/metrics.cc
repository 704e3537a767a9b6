#include "metrics/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace pdm::metrics {

namespace internal {

CounterCell* SinkCounterCell() {
  static CounterCell cell;
  return &cell;
}

GaugeCell* SinkGaugeCell() {
  static GaugeCell cell;
  return &cell;
}

HistogramCell* SinkHistogramCell() {
  static HistogramCell cell;
  return &cell;
}

}  // namespace internal

uint64_t Histogram::Quantile(double q) const {
  int64_t count = cell_->count.load(std::memory_order_relaxed);
  if (count <= 0) return 0;
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<int64_t>(rank, 1, count);
  int64_t cumulative = 0;
  uint64_t floor = 0;
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    uint64_t b = cell_->buckets[i].load(std::memory_order_relaxed);
    if (b == 0) continue;
    cumulative += static_cast<int64_t>(b);
    floor = LatencyHistogram::BucketFloor(i);
    if (cumulative >= rank) return floor;
  }
  return floor;  // count raced ahead of buckets; report the highest seen
}

namespace {

/// Adds `now - seen` to `target` and moves `seen` up to `now`.
template <typename T>
void AddFieldGain(T now, std::atomic<T>* seen, std::atomic<T>* target) {
  const T before = seen->load(std::memory_order_relaxed);
  if (now == before) return;
  target->fetch_add(now - before, std::memory_order_relaxed);
  seen->store(now, std::memory_order_relaxed);
}

}  // namespace

void Histogram::AddGain(std::span<const HistogramCell> sources, HistogramCell* seen) {
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    uint64_t now = 0;
    for (const HistogramCell& source : sources) {
      now += source.buckets[i].load(std::memory_order_relaxed);
    }
    AddFieldGain(now, &seen->buckets[i], &cell_->buckets[i]);
  }
  int64_t count = 0;
  uint64_t sum = 0;
  for (const HistogramCell& source : sources) {
    count += source.count.load(std::memory_order_relaxed);
    sum += source.sum.load(std::memory_order_relaxed);
  }
  AddFieldGain(count, &seen->count, &cell_->count);
  AddFieldGain(sum, &seen->sum, &cell_->sum);
}

namespace internal {
namespace {

static_assert(PerThreadHistogram::kExclusiveCells <= 64);
/// Bit i set: some live thread holds cell number i.
std::atomic<uint64_t> cell_claims{0};

}  // namespace

CellClaim::CellClaim() : cell_(PerThreadHistogram::kExclusiveCells) {
  constexpr uint64_t kAll = (uint64_t{1} << PerThreadHistogram::kExclusiveCells) - 1;
  uint64_t claimed = cell_claims.load(std::memory_order_relaxed);
  while ((claimed & kAll) != kAll) {
    const size_t lowest_free = static_cast<size_t>(std::countr_one(claimed));
    if (cell_claims.compare_exchange_weak(claimed, claimed | (uint64_t{1} << lowest_free),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      cell_ = lowest_free;
      return;
    }
  }
}

CellClaim::~CellClaim() {
  if (cell_ == PerThreadHistogram::kExclusiveCells) return;
  cell_claims.fetch_and(~(uint64_t{1} << cell_), std::memory_order_release);
}

}  // namespace internal

PerThreadHistogram::PerThreadHistogram()
    : cells_(std::make_unique<HistogramCell[]>(kExclusiveCells + 2)) {}

void PerThreadHistogram::CollectInto(Histogram* target) {
  target->AddGain(std::span<const HistogramCell>(cells_.get(), kExclusiveCells + 1),
                  &cells_[kExclusiveCells + 1]);
}

MetricGateway* MetricGateway::Noop() {
  static NoopMetricGateway gateway;
  return &gateway;
}

void MetricRegistry::AddCollector(MetricCollector* collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(collector);
}

void MetricRegistry::RemoveCollector(MetricCollector* collector) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(collectors_.begin(), collectors_.end(), collector);
  if (it == collectors_.end()) return;
  collector->Collect();
  collectors_.erase(it);
}

void MetricRegistry::RunCollectorsLocked() const {
  for (MetricCollector* collector : collectors_) collector->Collect();
}

MetricRegistry::Family* MetricRegistry::FindOrCreateFamily(
    std::string_view name, std::string_view help, InstrumentType type) {
  for (Family& family : families_) {
    if (family.name == name) {
      // Re-registering a name as a different type is a wiring bug, not a
      // runtime condition.
      PDM_CHECK(family.type == type);
      return &family;
    }
  }
  Family family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.type = type;
  families_.push_back(std::move(family));
  return &families_.back();
}

MetricRegistry::Instrument* MetricRegistry::FindOrCreateInstrument(
    Family* family, std::vector<Label> labels) {
  for (Instrument& instrument : family->instruments) {
    if (instrument.labels == labels) return &instrument;
  }
  Instrument instrument;
  instrument.labels = std::move(labels);
  family->instruments.push_back(std::move(instrument));
  return &family->instruments.back();
}

Counter MetricRegistry::GetCounter(std::string_view name, std::string_view help,
                                   std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kCounter);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->counter == nullptr) {
    instrument->counter = &counter_cells_.emplace_back();
  }
  return Counter(instrument->counter);
}

Gauge MetricRegistry::GetGauge(std::string_view name, std::string_view help,
                               std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kGauge);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->gauge == nullptr) {
    instrument->gauge = &gauge_cells_.emplace_back();
  }
  return Gauge(instrument->gauge);
}

Histogram MetricRegistry::GetHistogram(std::string_view name,
                                       std::string_view help,
                                       std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kHistogram);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->histogram == nullptr) {
    instrument->histogram = &histogram_cells_.emplace_back();
  }
  return Histogram(instrument->histogram);
}

const DumpInstrument* MetricsDump::Find(std::string_view name) const {
  for (const DumpInstrument& instrument : instruments) {
    if (instrument.name == name && instrument.labels.empty()) {
      return &instrument;
    }
  }
  return nullptr;
}

const DumpInstrument* MetricsDump::Find(std::string_view name,
                                        std::string_view label,
                                        std::string_view value) const {
  for (const DumpInstrument& instrument : instruments) {
    if (instrument.name != name) continue;
    for (const Label& l : instrument.labels) {
      if (l.name == label && l.value == value) return &instrument;
    }
  }
  return nullptr;
}

uint64_t MetricsDump::CounterValue(std::string_view name) const {
  const DumpInstrument* instrument = Find(name);
  return instrument != nullptr ? instrument->counter : 0;
}

uint64_t DumpInstrument::HistogramQuantile(double q) const {
  if (hist_count <= 0) return 0;
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(hist_count)));
  rank = std::clamp<int64_t>(rank, 1, hist_count);
  int64_t cumulative = 0;
  uint64_t floor = 0;
  for (const auto& [index, count] : hist_buckets) {
    cumulative += static_cast<int64_t>(count);
    floor = LatencyHistogram::BucketFloor(index);
    if (cumulative >= rank) return floor;
  }
  return floor;
}

}  // namespace pdm::metrics
