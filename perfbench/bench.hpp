// Shared declarations of the repo benchmark (see perfbench/METRICS.md).
//
// The benchmark drives the program's public APIs in-process: runtime
// (SweepSpec, ModelCache, SweepEngine, ResultSink), service + net
// (SweepService on an HttpServer, driven over loopback) and sim
// (ChipSimulator). Timed runs report end-to-end metrics with the
// benchmark's tracing off; a separate traced run (--trace 1) times the
// benchmark's own calls into each layer and reads the program's
// telemetry counters for the per-layer breakdown.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/sweep_spec.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

/// Peak resident set of this process in MiB since the last
/// ResetPeakRss (VmHWM; getrusage where /proc is unavailable).
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak from the
/// current resident set, so a pass's peak is not the previous pass's
/// allocator leftovers.
void ResetPeakRss();

// ---------------------------------------------------------------------
// Run context and result

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  bool heldout = false;   // --heldout-seed: inputs from the held-out pools
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // --trace 1: per-layer run instead of timed run
  bool tiny = false;      // self-test scale: smallest inputs
  double perturb = 0.0;   // self-test: relative perturbation of one reference value
  std::string data_dir;   // perfbench/ (reference files)
  std::string out_dir;    // where the traced run writes its Chrome trace
  std::size_t threads = 1;  // T = min(4, nproc)
};

struct Metric {
  double value = 0.0;
  std::string source;  // traced run: "own" or the probe workload it came from
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  // benchmark-internal checks (trace nesting, ...)
  std::map<std::string, Metric> metrics;
  /// Units live with the metric names in main.cpp.
  void Set(const std::string& name, double value) {
    metrics[name] = Metric{value, "own"};
  }
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------
// Seeded inputs (inputs.cpp)

/// A sweep spec as the benchmark generates it: base fields plus axes in
/// declaration order, rendered to the JSON text the program parses.
struct SpecDef {
  std::string name;
  std::string kind;
  std::uint64_t seed = 1;
  std::vector<std::pair<std::string, std::string>> base;
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;

  std::string Json() const;
  /// The same spec reduced to its first grid point (one job).
  SpecDef FirstPointOnly() const;
};

/// One serve_mix submission: which spec variant and the salted text.
struct Submission {
  bool boost_transient = false;
  std::size_t variant = 0;
  std::string text;
};

struct ChipRun {
  std::string node;
  std::uint64_t arrival_seed = 1;
};

class Inputs {
 public:
  Inputs(std::uint64_t seed, bool heldout, bool tiny);

  const SpecDef& bt_sweep() const { return bt_; }
  const SpecDef& estimate_sweep() const { return est_; }

  /// serve_mix variants (the expected CSV is computed once per variant).
  const std::vector<SpecDef>& serve_estimate() const { return serve_est_; }
  const std::vector<SpecDef>& serve_bt() const { return serve_bt_; }
  /// The n-th submission of `tenant`: kinds in the fixed order
  /// estimate, estimate, estimate, boost_transient; variant and salt
  /// drawn from the seed.
  Submission Submit(std::size_t tenant, std::size_t n) const;

  /// chip_sim round r: three 16 nm runs and one 11 nm run, each on its
  /// own seeded arrival trace.
  std::vector<ChipRun> ChipRound(std::size_t r) const;

 private:
  std::uint64_t seed_;
  bool heldout_;
  SpecDef bt_;
  SpecDef est_;
  std::vector<SpecDef> serve_est_;
  std::vector<SpecDef> serve_bt_;
};

/// Specs covering every input the seeded generators can produce (dev
/// and held-out pools); the committed reference rows are their output.
SpecDef BtUniverse();
SpecDef EstimateUniverse();
std::vector<ChipRun> ChipUniverse();
/// Simulated seconds of every chip_sim run.
double ChipDurationS();

// ---------------------------------------------------------------------
// Correctness gate (gate.cpp)

/// Relative tolerance of the gate: |a - ref| <= kRelTol * max(|a|,|ref|)
/// + kAbsTol. A 1e-6 relative change of any value of magnitude >= 0.01
/// fails; a 1e-9 refresh passes.
inline constexpr double kRelTol = 1e-7;
inline constexpr double kAbsTol = 1e-9;

class Reference {
 public:
  /// Loads `path` (CSV: key,status,<metric columns>). Throws when the
  /// file is missing or malformed.
  static Reference Load(const std::string& path, double perturb = 0.0);

  /// Checks one row. Returns false (with a reason) on a missing key, a
  /// status or metric-name mismatch, or a value outside tolerance.
  bool Check(const std::string& key, std::string_view status,
             const std::vector<std::pair<std::string, double>>& metrics,
             std::string* why);

  static void Write(
      const std::string& path, const std::vector<std::string>& columns,
      const std::vector<std::pair<std::string, std::pair<std::string,
                                                   std::vector<double>>>>&
          rows);

 private:
  struct Row {
    std::string status;
    std::vector<double> values;
  };
  std::vector<std::string> columns_;
  std::unordered_map<std::string, Row> rows_;
  double perturb_ = 0.0;  // applied to the first checked value, once
};

/// Reference key of a sweep job: its varying parameters, "f=v;f=v".
std::string JobKey(const ds::runtime::SweepJob& job);
std::string ChipKey(const ChipRun& run);

// ---------------------------------------------------------------------
// Spans (spans.cpp)

/// In-memory span recorder. Spans carry a name, the layer whose public
/// function they wrap, start/end, the enclosing span on the same thread
/// and a request id (job index or submission). Written once at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::int64_t req = -1;
    std::uint32_t tid = 0;
  };

  static Tracer& Get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t Begin(const char* name, const char* layer, std::int64_t req);
  void End(std::uint64_t id);

  std::vector<Span> Spans() const;

  /// Self time per layer [ms]: a span's duration minus the time its
  /// child spans cover.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Every parent exists, encloses its child on the same thread and
  /// carries the same request id.
  bool CheckNesting(std::string* why) const;
  /// Chrome trace_event JSON (Perfetto, tools/trace_check).
  std::string ChromeJson() const;

 private:
  std::atomic<bool> enabled_{false};
};

/// Times a scope; records it as a span when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::int64_t req = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Elapsed time so far [ms].
  double ms() const { return MsSince(start_); }

 private:
  Clock::time_point start_;
  std::uint64_t id_ = 0;
};

// ---------------------------------------------------------------------
// Workloads (workloads.cpp, serve.cpp, layers.cpp)

Report RunBtSweep(const Ctx& ctx);
Report RunEstimateSweep(const Ctx& ctx);
Report RunServeMix(const Ctx& ctx);
Report RunChipSim(const Ctx& ctx);

/// Writes reference rows for every input the generators can produce.
void WriteReferences(const std::string& data_dir, std::size_t threads);

}  // namespace pb
