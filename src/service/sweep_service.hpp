// The persistent multi-tenant sweep service behind `darksilicon
// serve`: accepts sweep specs over HTTP, admission-controls them
// across concurrent clients, runs them one at a time on one shared
// SweepEngine pool (the engine parallelizes *within* a sweep; serial
// sweeps keep the byte-identity and cache-locality guarantees), and
// streams result rows and job-lifecycle events back incrementally.
//
// Admission policy (all checks under one registry lock, so concurrent
// submits serialize):
//   - spec must parse and validate        -> else 400 (JSON error body)
//   - bounded queue: `queue_depth` sweeps waiting -> 429 + Retry-After
//   - per-client cap: `per_client` sweeps queued+running -> 429
//   - distinct-client cap: `max_clients` clients in flight -> 429
// Scheduling is FIFO with aging: the runner picks the oldest sweep of
// a client other than the one it just served (round-robin across
// tenants); a same-client sweep wins only once it is `aging_ms` older
// than every other candidate, so no tenant can starve another.
//
// Durability: with a journal dir, every sweep persists its spec, a
// meta record, and a per-sweep engine journal. A killed daemon
// restarted on the same dir re-queues every sweep without a terminal
// marker and resumes it from its journal (completed jobs replay from
// disk, the rest execute); terminal sweeps are listed but their row
// streams are gone (410).
//
// Streaming: the spec fixes the CSV header, so it goes out when the
// sweep starts running; each row follows as soon as every job before
// it has finished, in job-index order, formatted by the same
// ResultSink code path as `darksilicon sweep`, so the streamed CSV is
// byte-identical to the batch file. Readers block on a per-sweep
// condvar; Stop() terminalizes every stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http_server.hpp"
#include "runtime/journal.hpp"
#include "runtime/model_cache.hpp"
#include "util/lock_levels.hpp"
#include "util/thread_annotations.hpp"

namespace ds::service {

enum class SweepState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,       // terminal; individual job failures are rows, not errors
  kFailed,     // terminal; the run itself threw (boundary error)
  kCancelled,  // terminal; DELETE or daemon shutdown
};

const char* SweepStateName(SweepState state);

/// Point-in-time public view of one sweep.
struct SweepStatusSnapshot {
  std::string id;
  std::string client;
  std::string name;   // spec name
  std::string error;  // kFailed only
  SweepState state = SweepState::kQueued;
  bool rows_retained = true;  // false for terminal sweeps of a prior life
  std::size_t jobs_total = 0;
  std::size_t jobs_done = 0;
  std::size_t row_bytes = 0;       // CSV bytes emitted so far
  std::size_t queue_position = 0;  // 1-based while queued, else 0
  double queue_wait_ms = 0.0;      // kQueued: so far; later: final
  double run_ms = 0.0;             // terminal states: final
};

class SweepService {
 public:
  struct Options {
    /// Worker threads of the shared engine pool; 0 = hardware
    /// concurrency.
    std::size_t engine_threads = 0;

    /// Sweeps allowed to wait in the admission queue (all clients).
    std::size_t queue_depth = 16;

    /// Sweeps one client may have queued + running.
    std::size_t per_client = 4;

    /// Distinct clients allowed in flight at once (the --max-clients
    /// flag); a new client beyond this is turned away 429.
    std::size_t max_clients = 16;

    /// A same-client sweep must be this much older before it beats
    /// another tenant's sweep in the scheduler.
    double aging_ms = 2000.0;

    /// Durability root; empty disables persistence (and resume).
    std::string journal_dir;

    /// Shared ModelCache byte budget; 0 leaves it untouched.
    double cache_budget_mb = 0.0;

    /// Cache shared by every sweep; nullptr = the process cache.
    runtime::ModelCache* cache = nullptr;

    /// Engine resilience passthrough (see SweepOptions).
    std::size_t job_retries = 2;
    double job_deadline_ms = 0.0;
    runtime::JournalSync journal_sync = runtime::JournalSync::kBatch;
  };

  /// Outcome of one POST /v1/sweeps.
  struct Admission {
    bool accepted = false;
    std::string id;            // accepted only
    int http_status = 0;       // 202 / 400 / 429
    std::string error;         // rejection reason
    double retry_after_s = 0.0;      // 429 only
    std::size_t queue_position = 0;  // accepted: 1-based
  };

  /// Recovers unfinished sweeps from `journal_dir` (if set) and starts
  /// the scheduler thread. Throws std::runtime_error when the journal
  /// dir cannot be created.
  explicit SweepService(Options options);

  /// Stop()s if the caller did not.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Admission control + enqueue. Never throws on bad input -- the
  /// verdict (including 400s for unparsable specs) is the return value.
  Admission Submit(const std::string& spec_text, const std::string& client);

  /// Cancels a queued or running sweep via its CancelToken. Returns
  /// false for unknown ids; cancelling a terminal sweep is a no-op
  /// that returns true.
  bool Cancel(const std::string& id);

  /// Snapshot of one sweep (false: unknown id) / all sweeps.
  bool GetStatus(const std::string& id, SweepStatusSnapshot* out);
  std::vector<SweepStatusSnapshot> List();

  /// Blocking incremental read of the CSV row stream: appends bytes
  /// past `offset` to `out` (blocking until some exist), returns true
  /// while the stream may still grow. `*found` is false for unknown
  /// ids and for sweeps whose rows did not survive a restart.
  bool ReadRows(const std::string& id, std::size_t offset, std::string* out,
                bool* found);

  /// Same contract over the sweep's JSON-lines service event log.
  bool ReadEvents(const std::string& id, std::size_t offset,
                  std::string* out, bool* found);

  /// Cancels the running sweep, unblocks every stream reader, joins
  /// the scheduler. Queued sweeps stay journaled for the next life.
  /// Idempotent. Call *before* stopping the HttpServer wired to
  /// HttpHandler() -- streaming handlers block on streams this opens.
  void Stop();

  /// Unfinished sweeps re-queued from the journal dir at startup.
  std::size_t recovered() const { return recovered_; }

  /// Routes the full service API (plus /metrics and /healthz) onto
  /// this instance. The returned handler is valid until Stop().
  net::HttpServer::Handler HttpHandler();

 private:
  struct Sweep;
  enum class StreamKind : std::uint8_t { kRows, kEvents };

  void RunnerLoop();
  void RunSweep(const std::shared_ptr<Sweep>& sweep);
  void RecoverFromDir();
  std::shared_ptr<Sweep> Find(const std::string& id)
      DS_EXCLUDES(registry_mu_);
  bool ReadStream(const std::string& id, StreamKind kind, std::size_t offset,
                  std::string* out, bool* found);
  static SweepStatusSnapshot Snapshot(const std::shared_ptr<Sweep>& sweep,
                                      std::size_t queue_position);
  static std::string StatusJson(const SweepStatusSnapshot& snapshot);
  std::string JournalPathFor(const std::string& id) const;
  void HandleRequest(const net::HttpRequest& request,
                     net::HttpServer::ResponseWriter& writer);

  Options options_;
  std::size_t recovered_ = 0;  // written before the runner starts

  /// Admission queue + registry of every sweep this life has seen.
  Mutex registry_mu_{locks::kServiceRegistry};
  ds::CondVar runner_cv_;
  std::vector<std::shared_ptr<Sweep>> queue_ DS_GUARDED_BY(registry_mu_);
  std::vector<std::shared_ptr<Sweep>> sweeps_ DS_GUARDED_BY(registry_mu_);
  std::shared_ptr<Sweep> running_ DS_GUARDED_BY(registry_mu_);
  std::string last_client_ DS_GUARDED_BY(registry_mu_);
  std::uint64_t next_seq_ DS_GUARDED_BY(registry_mu_) = 1;
  bool stopping_ DS_GUARDED_BY(registry_mu_) = false;

  /// Serializes Stop() end-to-end.
  Mutex stop_mu_{locks::kShutdown};
  bool stopped_ DS_GUARDED_BY(stop_mu_) = false;

  std::thread runner_;
};

}  // namespace ds::service
