#ifndef PDM_PERFBENCH_BENCH_H_
#define PDM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// Shared pieces of the repository benchmark: run options, the result
/// report, the correctness checker, and the span tracer used by the traced
/// mode. Everything here lives in the benchmark's own files; the library is
/// only ever driven through its public headers.

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Median of a sample (0 for an empty one). Takes a copy: callers keep their
/// sample order.
double Median(std::vector<double> values);

/// Resident-set high-water mark of this process in MiB (VmHWM).
double PeakRssMiB();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every size so a workload finishes in about a second (self-tests).
  bool tiny = false;
  /// Scratch directory inside the checkout (spill files, span dumps).
  std::string work_dir = ".bench_build/perfbench-work";
  /// Self-test hook: "below_reserve" or "tally_mismatch" plants one bad
  /// observation the checker must reject.
  std::string inject;
};

/// Correctness bookkeeping. Every check that fails counts one failed
/// operation and keeps the first few messages for the report.
class Checker {
 public:
  /// A posted price must be finite, and at least the reserve when the
  /// mechanism enforces it (`pure` and `uncertainty` are exempt by design).
  bool Quote(bool enforces_reserve, double price, double reserve);
  /// A client-side tally must equal the system's own count exactly.
  bool Tally(const std::string& what, int64_t client, int64_t system);
  /// A call returned an error the workload does not expect.
  void Error(const std::string& what);
  /// Any other invariant.
  bool Expect(bool ok, const std::string& what);
  /// Folds in the outcomes of a checker another thread kept.
  void Absorb(const Checker& other);

  int64_t failed() const { return failed_; }
  int64_t quotes_checked() const { return quotes_checked_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void Fail(const std::string& message);

  int64_t failed_ = 0;
  int64_t quotes_checked_ = 0;
  std::vector<std::string> messages_;
};

/// True for the mechanism names whose engines enforce the reserve price.
bool EnforcesReserve(const std::string& mechanism);

/// Metric-name form of a mechanism ("reserve+uncertainty" has a character
/// metric names may not carry).
std::string MechanismKey(const std::string& mechanism);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `metrics` are the end-to-end numbers
/// every workload reports (the last output line of an untraced run);
/// `layers` are the per-layer numbers (the last line of a traced run);
/// `extra` are the workload's own end-to-end figures, printed in the report
/// lines above; `notes` are free-form report lines (waterfall, quality rows).
struct Report {
  int64_t attempted = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> extra;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = {value, unit};
  }
};

/// One recorded span: a timed call into a layer. `parent` indexes the
/// enclosing span of the same tracer (-1 for a root); `id` groups the spans
/// of one request or tick.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t id = 0;
};

/// Per-thread span recorder: spans are appended to memory and written out
/// once the run ends. Not thread-safe; every client thread owns one.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 400000) : capacity_(capacity) {}

  int32_t Begin(const char* name, uint64_t id) {
    if (spans_.empty()) spans_.reserve(capacity_);
    if (spans_.size() == capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, NowNs(), 0, open_, id});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
  int64_t dropped_ = 0;
};

/// Records a span for its scope; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id = 0)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Per-name aggregate of a set of tracers' spans.
struct SpanStats {
  int64_t count = 0;
  double total_ns = 0.0;
  /// Duration minus the part covered by child spans.
  double self_ns = 0.0;
  std::vector<double> durations_ns;

  double median_ns() const { return Median(durations_ns); }
};

std::map<std::string, SpanStats> AggregateSpans(const std::vector<const Tracer*>& tracers);

/// Writes every span as one JSON object per line; returns false on I/O error.
bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers);

/// Workload entry points (workloads.cc). Each fills `report` and records
/// correctness outcomes in `checker`.
void RunReplay(const Options& options, Report* report, Checker* checker);
void RunServeTcp(const Options& options, Report* report, Checker* checker);
void RunBrokerMt(const Options& options, Report* report, Checker* checker);
void RunColdTier(const Options& options, Report* report, Checker* checker);

}  // namespace perfbench

#endif  // PDM_PERFBENCH_BENCH_H_
