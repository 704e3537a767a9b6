#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(),
                                   values.begin() + static_cast<ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool EnforcesReserve(const std::string& mechanism) {
  return mechanism == "reserve" || mechanism == "reserve+uncertainty";
}

std::string MechanismKey(const std::string& mechanism) {
  std::string key = mechanism;
  std::replace(key.begin(), key.end(), '+', '_');
  return key;
}

void Checker::Fail(const std::string& message) {
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(message);
}

bool Checker::Quote(bool enforces_reserve, double price, double reserve) {
  ++quotes_checked_;
  if (!std::isfinite(price)) {
    Fail("non-finite price");
    return false;
  }
  if (enforces_reserve && price < reserve) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "price %.9g below reserve %.9g", price, reserve);
    Fail(buf);
    return false;
  }
  return true;
}

bool Checker::Tally(const std::string& what, int64_t client, int64_t system) {
  if (client == system) return true;
  Fail(what + ": client counted " + std::to_string(client) + ", system reports " +
       std::to_string(system));
  return false;
}

void Checker::Error(const std::string& what) { Fail(what); }

void Checker::Absorb(const Checker& other) {
  for (const std::string& message : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(message);
  }
  failed_ += other.failed_;
  quotes_checked_ += other.quotes_checked_;
}

bool Checker::Expect(bool ok, const std::string& what) {
  if (!ok) Fail(what);
  return ok;
}

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanStats> out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0 && span.end_ns >= span.start_ns) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns < span.start_ns) continue;  // still open: not a sample
      double duration = static_cast<double>(span.end_ns - span.start_ns);
      SpanStats& stats = out[span.name];
      ++stats.count;
      stats.total_ns += duration;
      stats.self_ns += std::max(0.0, duration - child_ns[i]);
      stats.durations_ns.push_back(duration);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& span : tracers[t]->spans()) {
      out << "{\"thread\":" << t << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << ",\"parent\":" << span.parent << ",\"id\":" << span.id << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
