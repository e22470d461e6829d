// Process-wide telemetry: metrics registry and the global enable gate.
//
// Design goals, in order:
//   1. Near-zero cost when off. Every instrumentation site is guarded
//      by Enabled(), a single relaxed atomic load.
//   2. Never perturb the simulation. Telemetry reads clocks and bumps
//      atomics; it never touches an RNG, a solver input or any control
//      decision, so enabling it leaves results bit-identical.
//   3. Dependency-free. This library sits below ds_util so that even
//      the LU kernel can be instrumented without a link cycle.
//
// The registry hands out stable references: GetCounter/GetGauge/
// GetHistogram never invalidate previously returned metrics, so call
// sites may cache `static Counter& c = Registry().GetCounter("...")`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/lock_levels.hpp"
#include "util/thread_annotations.hpp"

namespace ds::telemetry {

namespace internal {
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}
}  // namespace internal

/// Master runtime switch; off by default so untouched consumers pay
/// one predictable branch per instrumentation site.
inline bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}

void SetEnabled(bool on);

/// Monotonic event counter (single writer or many; relaxed atomics).
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value / running-max gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Monotonic max update (CAS loop; contention-free in practice).
  void UpdateMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are strictly increasing upper
/// bounds; one implicit overflow bucket catches everything above the
/// last bound. Also tracks count/sum/min/max for exact means.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;
  /// Upper bound of the first bucket holding quantile `q` in [0, 1]
  /// (max() for the overflow bucket) -- a standard fixed-bucket
  /// estimate, exact to bucket resolution.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Exponential 1 us .. 10 s bucket bounds, the default for the
/// *_us latency histograms used by ScopedTimer.
std::vector<double> TimeBucketBoundsUs();

/// One flattened snapshot row: histograms expand into several rows
/// (count/sum/mean/min/max/p50/p95/p99).
struct MetricRow {
  std::string name;
  std::string kind;   // "counter" | "gauge" | "histogram"
  std::string field;  // "value" for scalars, statistic name otherwise
  double value = 0.0;
};

class MetricsRegistry {
 public:
  /// All getters create on first use and return stable references.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = TimeBucketBoundsUs());

  std::vector<MetricRow> Snapshot() const;

  /// Dumps the snapshot as CSV (name,kind,field,value). Throws
  /// std::runtime_error if the file cannot be written.
  void WriteCsv(const std::string& path) const;

  /// Human-readable dump of every metric with a non-zero value (bench
  /// harness snapshot reporting).
  void PrintNonZero(std::ostream& os) const;

  /// Dumps every metric in OpenMetrics text format (what the
  /// --metrics-port HTTP endpoint serves at /metrics). Dotted names
  /// are sanitized to [a-zA-Z0-9_:] and prefixed `ds_`; the original
  /// name is preserved in the HELP line. Counters emit `<name>_total`,
  /// histograms emit cumulative `_bucket{le="..."}` series plus
  /// `_sum`/`_count`, and the exposition ends with `# EOF`.
  void DumpOpenMetrics(std::ostream& os) const;

  /// Zeroes every metric value. References stay valid (call sites
  /// cache them in function-local statics); intended for tests and the
  /// bench harness between figures.
  void ResetValues();

 private:
  // The metric objects themselves are atomic-only; mu_ guards the maps
  // (creation on first use). Returned references outlive the lock by
  // design -- unique_ptr keeps them stable across rehashing.
  mutable Mutex mu_{locks::kMetrics};
  std::map<std::string, std::unique_ptr<Counter>> counters_ DS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DS_GUARDED_BY(mu_);
};

/// The process-wide registry every instrumentation macro records into.
MetricsRegistry& Registry();

/// Validates an OpenMetrics text exposition (trace_check --openmetrics,
/// CI /metrics smoke): every sample belongs to a declared # TYPE
/// family with the right suffix for its type, histogram buckets are
/// cumulative with a +Inf bucket equal to _count, and the last line is
/// `# EOF`. Returns true on success; on failure returns false with a
/// line-annotated message in `*error`.
bool ValidateOpenMetrics(const std::string& text, std::string* error);

}  // namespace ds::telemetry
