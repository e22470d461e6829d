// Structured results for sweep runs: ordered rows out of unordered
// parallel execution with CSV/JSON emission. (The checkpoint journal
// lives in runtime/journal.hpp.)
//
// Concurrency: nothing here owns a lock. Each worker writes only its
// own index's JobResult slot (disjoint by construction), and emission
// happens after the pool joins -- the lock-free exception to the
// annotated-mutex regime of util/thread_annotations.hpp, safe because
// the engine's join provides the happens-before edge.
//
// Determinism contract: a row is a pure function of its job's spec
// parameters, so the emitted CSV/JSON is byte-identical for any thread
// count. Rows are keyed by job index and emitted in index order; wall
// times, attempt counts and cache statistics never enter the rows
// (they live in SweepStats / RunSummary, which are allowed to vary
// run-to-run). The row status is the one resilience fact that IS
// deterministic -- "quarantined" means the job exhausted its retry
// budget, which under deterministic chaos is a pure function of the
// job too.
//
// Schema contract: the spec alone fixes the CSV columns -- job, status,
// the spec's parameter columns, then the kind's MetricColumns
// (runtime/scenarios.hpp). Every sweep of one kind carries the same
// metric columns, whether or not any of its rows is ok; rows that are
// not ok leave those cells empty.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/sweep_spec.hpp"

namespace ds::runtime {

/// Outcome of one job. `metrics` carries the kind's MetricColumns, by
/// name, in that order; `skipped` marks an infeasible scenario (still a
/// row); `ok == false` records a failed job (exception text in
/// `error`). `quarantined` marks a job retired after exhausting its
/// retry budget on transient failures; `timed_out` marks that at least
/// one attempt hit the watchdog deadline.
struct JobResult {
  std::size_t index = 0;
  bool ok = false;
  bool skipped = false;
  std::string error;
  std::vector<std::pair<std::string, double>> metrics;
  double wall_ms = 0.0;      // informational only; never emitted into rows
  std::size_t attempts = 0;  // execution attempts (0 = resumed from journal)
  bool timed_out = false;
  bool quarantined = false;
};

/// A result file write failed mid-stream (disk full, pipe closed, ...).
/// `rows_written` says how many data rows made it out before the
/// failure, so callers can report partial output instead of a mystery
/// truncated file.
class SinkWriteError : public std::runtime_error {
 public:
  SinkWriteError(const std::string& what, std::size_t rows_written)
      : std::runtime_error(what), rows_written_(rows_written) {}

  std::size_t rows_written() const { return rows_written_; }

 private:
  std::size_t rows_written_;
};

/// Looks up a metric by name; contract-checked (a missing metric is a
/// runner bug, not a data condition).
double Metric(const JobResult& result, std::string_view name);

/// The row status: "quarantined", "failed", "skipped" or "ok". CSV and
/// JSON rows, the engine's `completed` event and the service's `job`
/// event all name a result by it.
const char* StatusOf(const JobResult& result);

class ResultSink {
 public:
  /// Builds the header from the spec's parameter columns and its
  /// kind's metric columns, and captures from `jobs` the echo values
  /// for every row.
  ResultSink(const SweepSpec& spec, const std::vector<SweepJob>& jobs);

  /// One CSV line per job, index order, "%.17g"-exact numbers. The
  /// stream is flushed and checked every batch of rows and at the end;
  /// a bad stream raises SinkWriteError with the row count that made
  /// it out (the path overloads prefix the file name).
  void WriteCsv(std::ostream& os,
                const std::vector<JobResult>& results) const;
  void WriteCsv(const std::string& path,
                const std::vector<JobResult>& results) const;

  /// JSON array of row objects (same content as the CSV); same
  /// flush-and-check / SinkWriteError behavior as WriteCsv.
  void WriteJsonRows(std::ostream& os,
                     const std::vector<JobResult>& results) const;
  void WriteJsonRows(const std::string& path,
                     const std::vector<JobResult>& results) const;

  // --- Incremental emission (the streaming sweep service) ---
  // WriteCsv is implemented on top of these two, so a stream assembled
  // row by row as jobs complete is byte-identical to the batch file by
  // construction.

  /// The CSV header line (with trailing newline):
  /// job,status,<param columns...>,<metric columns...>.
  const std::string& CsvHeaderLine() const { return header_; }

  /// One CSV data row (with trailing newline) for job `result.index`:
  /// the metric values of an ok row, else empty metric cells.
  std::string CsvRowLine(const JobResult& result) const;

  /// Rows between flush-and-check points in WriteCsv/WriteJsonRows.
  static constexpr std::size_t kFlushEveryRows = 64;

 private:
  std::string header_;
  std::size_t metric_columns_ = 0;
  std::vector<std::vector<std::pair<std::string, std::string>>> jobs_;
};

}  // namespace ds::runtime
