#include "metrics/metrics.h"

#include <algorithm>
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

void Histogram::DrainFrom(HistogramCell* stripe) {
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    // Load first: most buckets are empty, and an exchange on each would
    // write all ~2.5k of them on every scrape.
    if (stripe->buckets[i].load(std::memory_order_relaxed) == 0) continue;
    cell_->buckets[i].fetch_add(
        stripe->buckets[i].exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  cell_->count.fetch_add(stripe->count.exchange(0, std::memory_order_relaxed),
                         std::memory_order_relaxed);
  cell_->sum.fetch_add(stripe->sum.exchange(0, std::memory_order_relaxed),
                       std::memory_order_relaxed);
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
