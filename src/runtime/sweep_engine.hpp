// Work-stealing, failure-tolerant parallel executor for SweepSpec jobs.
//
// Jobs are distributed round-robin over per-worker deques; a worker
// drains its own deque LIFO and steals FIFO from its neighbours when
// empty, which keeps the long jobs of an irregular grid (different
// core counts factor very differently) spread across the pool without
// a central queue bottleneck. Scheduling never affects results: every
// job writes only its own slot of the index-ordered result vector, and
// the scenario runners are pure (see scenarios.hpp), so `--threads 1`
// and `--threads N` produce byte-identical rows.
//
// Resilience model (per job):
//   - transient failures (util::SolverError, injected chaos faults,
//     watchdog timeouts) are retried up to `job_retries` times with
//     exponential backoff + deterministic jitter;
//   - a job that exhausts its budget is *quarantined*: recorded as a
//     failed row (status "quarantined") in the results and the
//     journal, never retried on resume, and never aborts the sweep;
//   - any other exception is a permanent failure -- recorded
//     immediately, no retries (re-running a deterministic bug wastes
//     the budget);
//   - with `job_deadline_ms` set, a watchdog thread cancels attempts
//     that overrun their wall-clock deadline. Cancellation interrupts
//     chaos delays immediately; a scenario computation that overruns
//     is detected when it returns and the attempt is discarded as a
//     timeout.
//
// Checkpointing: with a journal path set, every completed job is
// appended as one CRC-framed record (see journal.hpp) under the
// configured fsync policy. A later run with `resume = true` loads the
// journal, verifies it belongs to the same spec (content fingerprint),
// repairs a torn tail, skips corrupt records, and executes only the
// jobs missing from it -- each job runs exactly once across the two
// runs (quarantined jobs are *not* re-run; delete the journal to give
// them another chance).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "faults/chaos.hpp"
#include "runtime/journal.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_spec.hpp"

namespace ds::telemetry {
class EventBus;
}  // namespace ds::telemetry

namespace ds::runtime {

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Also sets
  /// the lockstep cohort width of batchable kinds: min(16, ceil(pending
  /// jobs of a BatchCohortKey / threads)). Rows never depend on it.
  std::size_t threads = 1;

  /// Journal path; empty disables checkpointing.
  std::string checkpoint_path;

  /// Load `checkpoint_path` and skip jobs it already records.
  bool resume = false;

  /// Test hook: stop claiming new jobs once this many have completed
  /// in this run (0 = run everything). Exact with threads == 1; with
  /// more threads, in-flight jobs still finish.
  std::size_t stop_after_jobs = 0;

  /// Cache for shared thermal artifacts; nullptr = the process cache.
  ModelCache* cache = nullptr;

  /// Per-attempt wall-clock deadline enforced by the watchdog thread;
  /// 0 disables the watchdog entirely.
  double job_deadline_ms = 0.0;

  /// Extra attempts after the first for transient failures.
  std::size_t job_retries = 2;

  /// Base backoff before retry k is 2^(k-1) * this, +/-25% jitter
  /// (deterministic per job/attempt), capped at 1 s.
  double retry_backoff_ms = 10.0;

  /// fsync policy for journal appends.
  JournalSync journal_sync = JournalSync::kBatch;

  /// ModelCache byte budget applied for this run; 0 = leave the
  /// cache's current budget untouched.
  double cache_budget_mb = 0.0;

  /// Job-level chaos injection (tests / --chaos-* flags).
  faults::ChaosConfig chaos;

  /// Event bus for job-lifecycle events emitted by the engine itself;
  /// nullptr falls back to the ambient telemetry::ProcessEventBus().
  /// (Deep layers -- journal recovery, ModelCache eviction -- and the
  /// heartbeat always use the ambient bus; this override exists so
  /// tests can capture engine events without global state.)
  telemetry::EventBus* events = nullptr;

  /// Live status line sink (--progress hands it stderr); nullptr
  /// disables rendering. Enables the HeartbeatReporter.
  std::ostream* progress_stream = nullptr;

  /// Heartbeat sampling period. The reporter runs whenever
  /// progress_stream is set or an event bus is active.
  double heartbeat_ms = 500.0;

  /// Called once per finished job with its final row: resumed rows
  /// fire from Run()'s thread (ascending index order) before workers
  /// start; executed rows fire from whichever worker retired the job,
  /// in completion order. Called with no engine lock held; must be
  /// thread-safe. The streaming sweep service reorders these into the
  /// byte-exact CSV stream. Empty disables.
  std::function<void(const JobResult&)> on_result;

  /// Cooperative cancellation: once cancelled, workers stop claiming
  /// new jobs (in-flight attempts still finish -- the watchdog owns
  /// per-attempt interruption); unclaimed jobs are recorded as pending
  /// ("not executed"). nullptr disables.
  std::shared_ptr<faults::CancelToken> cancel;
};

/// Everything a sweep counted about itself: the one record every report
/// reads (stderr lines, --summary-json, run_end events, perfbench).
struct SweepStats {
  std::size_t jobs_total = 0;
  std::size_t jobs_executed = 0;  // run by this engine instance
  std::size_t jobs_resumed = 0;   // loaded from the journal
  std::size_t jobs_failed = 0;    // includes quarantined jobs
  std::size_t jobs_skipped = 0;   // infeasible scenarios (ok, no metrics)
  std::size_t jobs_pending = 0;   // not run (stop_after_jobs)
  std::size_t threads_used = 0;
  std::uint64_t steals = 0;
  std::uint64_t cache_hits = 0;    // ModelCache hits during this run
  std::uint64_t cache_misses = 0;

  // Resilience counters (this run only; resumed rows don't count).
  std::size_t jobs_retried = 0;      // jobs that needed >= 2 attempts
  std::size_t jobs_timed_out = 0;    // jobs with >= 1 watchdog timeout
  std::size_t jobs_quarantined = 0;  // jobs retired after exhausting retries
  std::uint64_t retries_total = 0;   // attempts beyond each job's first

  // Journal recovery (resume only).
  std::size_t journal_corrupt_records = 0;  // CRC/framing records skipped
  std::size_t journal_truncated_bytes = 0;  // torn tail repaired on load
  std::size_t journal_dedup_drops = 0;      // duplicate records superseded

  // ModelCache budget accounting (deltas/absolute at end of run).
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;

  // Lockstep batching (boost_transient cohorts; this run only).
  std::size_t batch_cohorts = 0;        // cohorts run with k >= 2
  std::size_t batch_cohort_members = 0; // jobs executed inside them
  std::size_t batch_detached = 0;       // members detached to scalar rerun

  double wall_s = 0.0;

  /// Calls `visit(name, value)` once per field above, in declaration
  /// order, under the member's own name. WriteSummaryJson walks this
  /// list, so the summary can neither rename nor drop a count.
  template <typename Visit>
  void ForEachField(Visit&& visit) const {
    visit("jobs_total", jobs_total);
    visit("jobs_executed", jobs_executed);
    visit("jobs_resumed", jobs_resumed);
    visit("jobs_failed", jobs_failed);
    visit("jobs_skipped", jobs_skipped);
    visit("jobs_pending", jobs_pending);
    visit("threads_used", threads_used);
    visit("steals", steals);
    visit("cache_hits", cache_hits);
    visit("cache_misses", cache_misses);
    visit("jobs_retried", jobs_retried);
    visit("jobs_timed_out", jobs_timed_out);
    visit("jobs_quarantined", jobs_quarantined);
    visit("retries_total", retries_total);
    visit("journal_corrupt_records", journal_corrupt_records);
    visit("journal_truncated_bytes", journal_truncated_bytes);
    visit("journal_dedup_drops", journal_dedup_drops);
    visit("cache_evictions", cache_evictions);
    visit("cache_bytes", cache_bytes);
    visit("batch_cohorts", batch_cohorts);
    visit("batch_cohort_members", batch_cohort_members);
    visit("batch_detached", batch_detached);
    visit("wall_s", wall_s);
  }
};

/// Writes `stats` as the --summary-json object: one flat JSON object
/// with every field under its member name, counts as integers and
/// wall_s as %.17g.
void WriteSummaryJson(std::ostream& os, const SweepStats& stats);

struct SweepOutcome {
  /// One entry per job, index order. With stop_after_jobs, entries for
  /// unexecuted jobs have ok == false and error == "not executed".
  std::vector<JobResult> results;
  SweepStats stats;

  /// Injected chaos events (kJobTransient / kJobDelay), when chaos is
  /// enabled. Event order follows completion order, not job order.
  faults::FaultLog chaos_log;
};

class SweepEngine {
 public:
  /// Throws std::invalid_argument if options.chaos fails Validate().
  explicit SweepEngine(SweepSpec spec, SweepOptions options = {});

  /// Expands, (optionally) resumes, executes, and returns the ordered
  /// results. Individual job failures are recorded per-result; this
  /// only throws for boundary errors (bad spec, unreadable or foreign
  /// journal, unwritable checkpoint file).
  SweepOutcome Run();

  const SweepSpec& spec() const { return spec_; }

 private:
  SweepSpec spec_;
  SweepOptions options_;
};

}  // namespace ds::runtime
