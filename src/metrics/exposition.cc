// Prometheus text exposition rendering and the pdm.metrics.v1 binary dump,
// written and read with the shared byte codec (common/byte_codec.h). The
// dump lives here (not in server/) because the metrics layer sits below the
// server: the server frames the dump as an opaque string, and
// `server::Client` hands the bytes back to DecodeMetricsDump.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/byte_codec.h"
#include "metrics/metrics.h"

namespace pdm::metrics {
namespace {

// ------------------------------------------------------------- text render

/// Escapes HELP text: backslash and newline (exposition format 0.0.4).
void AppendEscapedHelp(std::string_view text, std::string* out) {
  for (char c : text) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

/// Escapes a label value: backslash, double quote, newline.
void AppendEscapedLabelValue(std::string_view text, std::string* out) {
  for (char c : text) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '"') {
      out->append("\\\"");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

/// Renders `{a="x",b="y"}` (empty string when there are no labels). `extra`
/// appends one more pre-rendered pair (the histogram `le`).
void AppendLabels(const std::vector<Label>& labels, std::string_view extra,
                  std::string* out) {
  if (labels.empty() && extra.empty()) return;
  out->push_back('{');
  bool first = true;
  for (const Label& label : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(label.name);
    out->append("=\"");
    AppendEscapedLabelValue(label.value, out);
    out->push_back('"');
  }
  if (!extra.empty()) {
    if (!first) out->push_back(',');
    out->append(extra);
  }
  out->push_back('}');
}

void AppendDouble(double v, std::string* out) {
  if (std::isnan(v)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(v)) {
    out->append(v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

// -------------------------------------------------------------- dump codec

constexpr char kDumpMagic[8] = {'P', 'D', 'M', 'M', 'E', 'T', 'R', '1'};
constexpr uint32_t kDumpVersion = 1;

}  // namespace

void MetricRegistry::RenderPrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  RunCollectorsLocked();
  constexpr size_t kGroups =
      LatencyHistogram::kBucketCount / LatencyHistogram::kSubBuckets;
  for (const Family& family : families_) {
    out->append("# HELP ");
    out->append(family.name);
    out->push_back(' ');
    AppendEscapedHelp(family.help, out);
    out->push_back('\n');
    out->append("# TYPE ");
    out->append(family.name);
    out->append(family.type == InstrumentType::kCounter     ? " counter\n"
                : family.type == InstrumentType::kGauge     ? " gauge\n"
                                                            : " histogram\n");
    for (const Instrument& instrument : family.instruments) {
      switch (family.type) {
        case InstrumentType::kCounter: {
          out->append(family.name);
          AppendLabels(instrument.labels, {}, out);
          out->push_back(' ');
          AppendU64(instrument.counter->value.load(std::memory_order_relaxed),
                    out);
          out->push_back('\n');
          break;
        }
        case InstrumentType::kGauge: {
          out->append(family.name);
          AppendLabels(instrument.labels, {}, out);
          out->push_back(' ');
          AppendDouble(instrument.gauge->value.load(std::memory_order_relaxed),
                       out);
          out->push_back('\n');
          break;
        }
        case InstrumentType::kHistogram: {
          // Cumulative buckets at the grid's octave edges; octaves with no
          // samples are elided (sparse monotone series are valid exposition
          // and keep a 2.5k-bucket grid scrape-sized). `_count` repeats the
          // `+Inf` cumulative so the document is self-consistent even if a
          // concurrent Record landed between the two atomic loads.
          const HistogramCell* cell = instrument.histogram;
          uint64_t cumulative = 0;
          for (size_t group = 0; group < kGroups; ++group) {
            uint64_t in_group = 0;
            for (uint64_t sub = 0; sub < LatencyHistogram::kSubBuckets; ++sub) {
              in_group += cell->buckets[group * LatencyHistogram::kSubBuckets +
                                        sub]
                              .load(std::memory_order_relaxed);
            }
            if (in_group == 0) continue;
            cumulative += in_group;
            uint64_t upper_edge =
                LatencyHistogram::BucketFloor((group + 1) *
                                              LatencyHistogram::kSubBuckets) -
                1;
            std::string le = "le=\"";
            AppendU64(upper_edge, &le);
            le.push_back('"');
            out->append(family.name);
            out->append("_bucket");
            AppendLabels(instrument.labels, le, out);
            out->push_back(' ');
            AppendU64(cumulative, out);
            out->push_back('\n');
          }
          out->append(family.name);
          out->append("_bucket");
          AppendLabels(instrument.labels, "le=\"+Inf\"", out);
          out->push_back(' ');
          AppendU64(cumulative, out);
          out->push_back('\n');
          out->append(family.name);
          out->append("_sum");
          AppendLabels(instrument.labels, {}, out);
          out->push_back(' ');
          AppendU64(cell->sum.load(std::memory_order_relaxed), out);
          out->push_back('\n');
          out->append(family.name);
          out->append("_count");
          AppendLabels(instrument.labels, {}, out);
          out->push_back(' ');
          AppendU64(cumulative, out);
          out->push_back('\n');
          break;
        }
      }
    }
  }
}

std::string MetricRegistry::RenderPrometheus() const {
  std::string out;
  RenderPrometheus(&out);
  return out;
}

std::string MetricRegistry::EncodeDump() const {
  std::lock_guard<std::mutex> lock(mu_);
  RunCollectorsLocked();
  std::string out;
  ByteWriter w(&out);
  w.PutBytes(kDumpMagic, sizeof(kDumpMagic));
  w.PutU32(kDumpVersion);
  w.PutU32(static_cast<uint32_t>(families_.size()));
  for (const Family& family : families_) {
    w.PutString(family.name);
    w.PutString(family.help);
    w.PutU8(static_cast<uint8_t>(family.type));
    w.PutU32(static_cast<uint32_t>(family.instruments.size()));
    for (const Instrument& instrument : family.instruments) {
      w.PutU32(static_cast<uint32_t>(instrument.labels.size()));
      for (const Label& label : instrument.labels) {
        w.PutString(label.name);
        w.PutString(label.value);
      }
      switch (family.type) {
        case InstrumentType::kCounter:
          w.PutU64(instrument.counter->value.load(std::memory_order_relaxed));
          break;
        case InstrumentType::kGauge:
          w.PutF64(instrument.gauge->value.load(std::memory_order_relaxed));
          break;
        case InstrumentType::kHistogram: {
          const HistogramCell* cell = instrument.histogram;
          // Snapshot the sparse buckets first; report their total as the
          // count so count == sum of buckets in the decoded dump.
          uint64_t total = 0;
          std::string pairs;
          ByteWriter pw(&pairs);
          uint32_t nonzero = 0;
          for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
            uint64_t b = cell->buckets[i].load(std::memory_order_relaxed);
            if (b == 0) continue;
            pw.PutU32(static_cast<uint32_t>(i));
            pw.PutU64(b);
            total += b;
            ++nonzero;
          }
          w.PutU64(total);
          w.PutU64(cell->sum.load(std::memory_order_relaxed));
          w.PutU32(nonzero);
          w.PutBytes(pairs.data(), pairs.size());
          break;
        }
      }
    }
  }
  return out;
}

Status DecodeMetricsDump(std::string_view bytes, MetricsDump* out) {
  out->instruments.clear();
  ByteReader reader(bytes);
  char magic[sizeof(kDumpMagic)] = {};
  if (!reader.GetBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kDumpMagic, sizeof(kDumpMagic)) != 0) {
    return Status::InvalidArgument("metrics dump: bad magic");
  }
  uint32_t version = 0;
  if (!reader.GetU32(&version) || version != kDumpVersion) {
    return Status::InvalidArgument("metrics dump: unsupported version");
  }
  uint32_t n_families = 0;
  if (!reader.GetU32(&n_families)) {
    return Status::InvalidArgument("metrics dump: truncated");
  }
  for (uint32_t f = 0; f < n_families; ++f) {
    std::string name;
    std::string help;
    uint8_t type = 0;
    uint32_t n_instruments = 0;
    if (!reader.GetString(&name) || !reader.GetString(&help) ||
        !reader.GetU8(&type) || !reader.GetU32(&n_instruments) ||
        type > static_cast<uint8_t>(InstrumentType::kHistogram)) {
      return Status::InvalidArgument("metrics dump: bad family header");
    }
    for (uint32_t i = 0; i < n_instruments; ++i) {
      DumpInstrument instrument;
      instrument.name = name;
      instrument.type = static_cast<InstrumentType>(type);
      uint32_t n_labels = 0;
      if (!reader.GetU32(&n_labels)) {
        return Status::InvalidArgument("metrics dump: truncated labels");
      }
      for (uint32_t l = 0; l < n_labels; ++l) {
        Label label;
        if (!reader.GetString(&label.name) || !reader.GetString(&label.value)) {
          return Status::InvalidArgument("metrics dump: truncated label");
        }
        instrument.labels.push_back(std::move(label));
      }
      switch (instrument.type) {
        case InstrumentType::kCounter:
          if (!reader.GetU64(&instrument.counter)) {
            return Status::InvalidArgument("metrics dump: truncated counter");
          }
          break;
        case InstrumentType::kGauge:
          if (!reader.GetF64(&instrument.gauge)) {
            return Status::InvalidArgument("metrics dump: truncated gauge");
          }
          break;
        case InstrumentType::kHistogram: {
          uint64_t count = 0;
          uint32_t n_buckets = 0;
          if (!reader.GetU64(&count) || !reader.GetU64(&instrument.hist_sum) ||
              !reader.GetU32(&n_buckets)) {
            return Status::InvalidArgument("metrics dump: truncated histogram");
          }
          instrument.hist_count = static_cast<int64_t>(count);
          for (uint32_t b = 0; b < n_buckets; ++b) {
            uint32_t index = 0;
            uint64_t bucket_count = 0;
            if (!reader.GetU32(&index) || !reader.GetU64(&bucket_count) ||
                index >= LatencyHistogram::kBucketCount) {
              return Status::InvalidArgument("metrics dump: bad bucket");
            }
            instrument.hist_buckets.emplace_back(index, bucket_count);
          }
          break;
        }
      }
      out->instruments.push_back(std::move(instrument));
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("metrics dump: trailing bytes");
  }
  return Status::Ok();
}

}  // namespace pdm::metrics
