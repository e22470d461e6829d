// Shared helpers for the figure-reproduction benches.
//
// Every bench prints the same rows/series as one figure of the paper.
// Durations of the transient benches honour the DS_BENCH_FAST
// environment variable (any non-empty value shortens them) so CI runs
// stay quick while full-length paper runs remain one flag away.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_profile.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "telemetry/scoped.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace ds::bench {

/// Figure labels (a)..(g) in the paper's order.
inline std::string AppLabel(std::size_t index) {
  return std::string(1, static_cast<char>('a' + index)) + ") " +
         apps::ParsecSuite()[index].name;
}

inline bool FastMode() {
  const char* v = std::getenv("DS_BENCH_FAST");
  return v != nullptr && *v != '\0';
}

/// Transient duration: `full` seconds normally, `fast` under fast mode.
inline double Duration(double full, double fast) {
  return FastMode() ? fast : full;
}

/// RAII wall-clock for one figure bench: construct at the top of main
/// and every bench reports its total wall time the same way on exit.
/// When DS_BENCH_TELEMETRY is set, telemetry is switched on for the
/// run and the non-zero metric counters are printed too (a quick look
/// at where the figure's time went without attaching a tracer).
class FigureTimer {
 public:
  explicit FigureTimer(std::string name) : name_(std::move(name)) {
    if (TelemetryMode()) telemetry::SetEnabled(true);
  }

  ~FigureTimer() {
    std::cout << "\n[" << name_ << "] wall time: "
              << util::FormatFixed(timer_.Seconds(), 2) << " s\n";
    if (TelemetryMode()) telemetry::Registry().PrintNonZero(std::cout);
  }

  FigureTimer(const FigureTimer&) = delete;
  FigureTimer& operator=(const FigureTimer&) = delete;

  static bool TelemetryMode() {
    const char* v = std::getenv("DS_BENCH_TELEMETRY");
    return v != nullptr && *v != '\0';
  }

 private:
  std::string name_;
  telemetry::WallTimer timer_;
};

/// When DS_BENCH_CSV_DIR is set, dumps `table` to <dir>/<name>.csv so
/// the figure data can be plotted externally. No-op otherwise.
inline void MaybeWriteCsv(const util::Table& table, const std::string& name) {
  const char* dir = std::getenv("DS_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  table.WriteCsv(std::string(dir) + "/" + name + ".csv");
}

/// The "Paper: ..." closing note every figure bench ends with.
inline void PaperNote(const std::string& text) {
  std::cout << "\nPaper: " << text << "\n";
}

/// Runs one sweep on hardware_concurrency() worker threads. Results
/// come back in job-index order (deterministic for any thread count),
/// ready for the bench's original formatting pass.
inline std::vector<runtime::JobResult> RunSweep(
    const runtime::SweepSpec& spec) {
  runtime::SweepOptions opts;
  opts.threads = 0;
  runtime::SweepEngine engine(spec, opts);
  runtime::SweepOutcome out = engine.Run();
  for (const runtime::JobResult& r : out.results)
    if (!r.ok)
      throw std::runtime_error("sweep '" + spec.name() + "' job failed: " +
                               r.error);
  return std::move(out.results);
}

}  // namespace ds::bench
