#include "runtime/sweep_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "runtime/scenarios.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"
#include "util/lock_levels.hpp"
#include "util/lu.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace ds::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Internal signal: the watchdog cancelled this attempt (or a chaos
/// delay was cut short by cancellation). Not a std::exception on
/// purpose -- nothing but the attempt loop may catch it.
struct JobTimeout {};

/// SplitMix64 finalizer (same mixing as the sweep spec / chaos seeds)
/// for deterministic backoff jitter.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-worker queue of chunk ids. A chunk is one unit of worker work:
/// a singleton job (scalar lane) or a lockstep cohort. Owner pops LIFO
/// from the back; thieves take FIFO from the front. Coarse-grained
/// (one mutex per deque) is plenty: chunks are milliseconds-to-
/// seconds, so queue ops are noise.
struct WorkerQueue {
  ds::Mutex mu{ds::locks::kSweepQueue};
  std::deque<std::size_t> jobs DS_GUARDED_BY(mu);  // chunk ids

  void PushFront(std::size_t index) {
    const ds::MutexLock lock(mu);
    jobs.push_front(index);
  }

  bool PopBack(std::size_t* out) {
    const ds::MutexLock lock(mu);
    if (jobs.empty()) return false;
    *out = jobs.back();
    jobs.pop_back();
    return true;
  }

  bool StealFront(std::size_t* out) {
    const ds::MutexLock lock(mu);
    if (jobs.empty()) return false;
    *out = jobs.front();
    jobs.pop_front();
    return true;
  }
};

/// Deadline enforcement: one slot per worker holding the attempt's
/// cancel token and absolute deadline; one watchdog thread scanning
/// the slots. The watchdog only ever *cancels tokens* -- the worker
/// owns its result slot, so there is no data race on rows.
class Watchdog {
 public:
  Watchdog(std::size_t workers, double deadline_ms)
      : deadline_ms_(deadline_ms) {
    {
      // The scanner thread starts below; locking keeps the guarded
      // write visible to the thread-safety analysis.
      const ds::MutexLock lock(mu_);
      slots_.resize(workers);
    }
    thread_ = std::thread([this] { Loop(); });
  }

  ~Watchdog() {
    {
      const ds::MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

  void Begin(std::size_t worker,
             std::shared_ptr<faults::CancelToken> token) {
    BeginGroup(worker, {std::move(token)});
  }

  /// One deadline for a whole lockstep cohort: members start together,
  /// so the group shares a single expiry. The budget scales with the
  /// group size -- a k-member cohort legitimately takes several times
  /// one job's wall clock (the panel pass amortizes operator traffic,
  /// it does not divide the work k ways), so job_deadline_ms stays
  /// calibrated for single jobs and a healthy cohort never trips it;
  /// k jobs' worth of budget still bounds a hung cohort. On expiry
  /// every member token is cancelled; each member detaches to the
  /// scalar retry ladder individually (see ExecuteCohort).
  void BeginGroup(std::size_t worker,
                  std::vector<std::shared_ptr<faults::CancelToken>> tokens) {
    const double budget_ms =
        deadline_ms_ *
        static_cast<double>(std::max<std::size_t>(tokens.size(), 1));
    const ds::MutexLock lock(mu_);
    slots_[worker].tokens = std::move(tokens);
    slots_[worker].deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               budget_ms));
  }

  void End(std::size_t worker) {
    const ds::MutexLock lock(mu_);
    slots_[worker].tokens.clear();
  }

 private:
  struct Slot {
    // Empty = idle; one token per attempt (scalar) or cohort member.
    std::vector<std::shared_ptr<faults::CancelToken>> tokens;
    Clock::time_point deadline;
  };

  void Loop() {
    // Tick fast enough that a cancellation lands well inside the
    // deadline's own order of magnitude, but never busier than 1 kHz.
    const auto tick = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(
            std::clamp(deadline_ms_ / 4.0, 1.0, 50.0)));
    ds::MutexLock lock(mu_);
    while (!shutdown_) {
      const auto wake = Clock::now() + tick;
      while (!shutdown_) {
        if (cv_.WaitUntil(lock, wake)) break;  // tick elapsed
      }
      if (shutdown_) return;
      const auto now = Clock::now();
      for (Slot& slot : slots_) {
        if (!slot.tokens.empty() && now >= slot.deadline) {
          // Cancel() takes the token's own leaf-level mutex beneath
          // mu_ (kWatchdog -> kCancelToken, descending).
          for (const auto& token : slot.tokens) token->Cancel();
          slot.tokens.clear();  // cancel once; worker will End() anyway
        }
      }
    }
  }

  ds::Mutex mu_{ds::locks::kWatchdog};
  ds::CondVar cv_;
  std::vector<Slot> slots_ DS_GUARDED_BY(mu_);
  double deadline_ms_;
  bool shutdown_ DS_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

struct SharedState {
  const SweepSpec* spec = nullptr;
  const std::vector<SweepJob>* jobs = nullptr;
  ModelCache* cache = nullptr;
  std::vector<JobResult>* results = nullptr;
  std::vector<WorkerQueue>* queues = nullptr;
  // Units of work the queues index into: singleton = scalar job,
  // larger = lockstep cohort (all members share a BatchCohortKey).
  const std::vector<std::vector<std::size_t>>* chunks = nullptr;

  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::size_t> completed{0};
  std::size_t stop_after = 0;  // 0 = unlimited

  // Resilience knobs + counters.
  std::size_t max_attempts = 1;
  double backoff_ms = 0.0;
  Watchdog* watchdog = nullptr;  // null when job_deadline_ms == 0
  const faults::ChaosInjector* chaos = nullptr;
  ds::Mutex chaos_log_mu{ds::locks::kChaosLog};
  faults::FaultLog* chaos_log DS_PT_GUARDED_BY(chaos_log_mu) = nullptr;
  std::atomic<std::size_t> jobs_retried{0};
  std::atomic<std::size_t> jobs_timed_out{0};
  std::atomic<std::size_t> jobs_quarantined{0};
  std::atomic<std::uint64_t> retries_total{0};
  std::atomic<std::size_t> batch_detached{0};

  ds::Mutex journal_mu{ds::locks::kJournal};
  JournalWriter* journal DS_PT_GUARDED_BY(journal_mu) = nullptr;

  // Observability: engine-emitted job-lifecycle events (resolved from
  // SweepOptions::events or the ambient bus) and the in-flight gauge
  // the heartbeat sampler reads.
  telemetry::EventBus* events = nullptr;
  std::atomic<std::size_t> in_flight{0};

  // Streaming hook + cooperative cancellation (see SweepOptions).
  const std::function<void(const JobResult&)>* on_result = nullptr;
  const faults::CancelToken* cancel = nullptr;
};

/// Publishes to the engine's resolved bus; no-op without one. Dropped
/// events are counted by the bus, never reported here -- observability
/// must not steer the run.
void PublishEvent(const SharedState& state, const telemetry::Event& event) {
  if (state.events != nullptr) state.events->Publish(event);
}

/// Exponential backoff with deterministic +/-25% jitter, capped at 1 s.
void BackoffBeforeRetry(const SharedState& state, std::size_t index,
                        std::size_t attempt) {
  if (state.backoff_ms <= 0.0) return;
  double wait_ms = state.backoff_ms *
                   std::pow(2.0, static_cast<double>(attempt - 1));
  util::Rng rng(Mix(Mix(static_cast<std::uint64_t>(index) ^
                        0x626b6f66ULL) ^  // distinct stream from chaos
                    static_cast<std::uint64_t>(attempt)));
  wait_ms *= rng.Uniform(0.75, 1.25);
  wait_ms = std::min(wait_ms, 1000.0);
  if (state.events != nullptr) {
    telemetry::Event e = telemetry::MakeEvent(
        telemetry::EventKind::kBackoff, static_cast<std::int64_t>(index),
        static_cast<std::int32_t>(attempt));
    e.AddField("wait_ms", wait_ms);
    PublishEvent(state, e);
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(wait_ms));
}

/// Final accounting for a job whose result is settled: resilience
/// counters, wall clock, journal append, completion event, streaming
/// callback, completed/in-flight gauges. Shared by the scalar attempt
/// ladder and cohort retirement so both lanes retire rows identically.
void RetireJob(SharedState& state, JobResult& result,
               Clock::time_point start, bool ever_timed_out) {
  if (result.attempts > 1)
    state.jobs_retried.fetch_add(1, std::memory_order_relaxed);
  if (ever_timed_out)
    state.jobs_timed_out.fetch_add(1, std::memory_order_relaxed);
  if (result.quarantined) {
    state.jobs_quarantined.fetch_add(1, std::memory_order_relaxed);
    DS_TELEM_COUNT("sweep.quarantined", 1);
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  if (state.journal != nullptr) {
    const ds::MutexLock lock(state.journal_mu);
    state.journal->Append(JournalLine(result));
  }
  if (state.events != nullptr) {
    telemetry::Event e = telemetry::MakeEvent(
        telemetry::EventKind::kCompleted,
        static_cast<std::int64_t>(result.index),
        static_cast<std::int32_t>(result.attempts));
    e.SetDetail(result.quarantined ? "quarantined"
                : !result.ok       ? "failed"
                : result.skipped   ? "skipped"
                                   : "ok");
    e.AddField("wall_ms", result.wall_ms);
    PublishEvent(state, e);
  }
  // After the journal append (a crash can't stream a row it would not
  // resume) and outside every engine lock.
  if (state.on_result != nullptr) (*state.on_result)(result);
  state.completed.fetch_add(1, std::memory_order_relaxed);
  state.in_flight.fetch_sub(1, std::memory_order_relaxed);
}

/// Runs one job to its final outcome: up to max_attempts attempts with
/// chaos injection, deadline enforcement, retry classification and
/// quarantine; then journal append. Never throws.
void ExecuteJob(SharedState& state, std::size_t worker, std::size_t index) {
  const SweepJob& job = (*state.jobs)[index];
  JobResult& result = (*state.results)[index];
  const auto start = Clock::now();
  bool ever_timed_out = false;
  state.in_flight.fetch_add(1, std::memory_order_relaxed);
  {
    DS_TELEM_SPAN_ARG("runtime", "sweep_job",
                      ds::telemetry::TraceLevel::kSpan, "job",
                      static_cast<double>(index));
    for (std::size_t attempt = 1;; ++attempt) {
      // Attempt-scoped span carrying the same correlation pair as the
      // events, so Perfetto can line a retry chain up against its
      // chaos injections and the events file.
      DS_TELEM_SPAN_ARG2("runtime", "sweep_attempt",
                         ds::telemetry::TraceLevel::kSpan, "job",
                         static_cast<double>(index), "attempt",
                         static_cast<double>(attempt));
      if (state.events != nullptr)
        PublishEvent(state, telemetry::MakeEvent(
                                telemetry::EventKind::kStarted,
                                static_cast<std::int64_t>(index),
                                static_cast<std::int32_t>(attempt)));
      result = JobResult{};  // each attempt starts from a clean row
      result.index = index;
      result.attempts = attempt;
      auto token = std::make_shared<faults::CancelToken>();
      if (state.watchdog != nullptr) state.watchdog->Begin(worker, token);
      bool transient = false;
      try {
        if (state.chaos != nullptr) {
          const faults::ChaosDecision decision =
              state.chaos->Decide(index, attempt - 1);
          if ((decision.fail || decision.delay) &&
              state.chaos_log != nullptr) {
            const ds::MutexLock lock(state.chaos_log_mu);
            faults::ChaosInjector::LogDecision(*state.chaos_log, decision,
                                               index, attempt - 1);
          }
          if ((decision.fail || decision.delay) && state.events != nullptr) {
            telemetry::Event e = telemetry::MakeEvent(
                telemetry::EventKind::kChaosInject,
                static_cast<std::int64_t>(index),
                static_cast<std::int32_t>(attempt));
            e.SetDetail(decision.fail ? "fail" : "delay");
            if (decision.delay) e.AddField("delay_ms", decision.delay_ms);
            PublishEvent(state, e);
          }
          if (decision.delay && !token->SleepFor(decision.delay_ms))
            throw JobTimeout{};
          if (decision.fail)
            throw util::SolverError("chaos: injected transient job failure");
        }
        RunScenario(state.spec->kind(), job, *state.cache, &result);
        // Scenario runners are pure compute and cannot observe the
        // token mid-run; an overrun is detected here and the (late)
        // result is discarded so rows never depend on host speed vs.
        // an enabled deadline.
        if (token->cancelled()) throw JobTimeout{};
      } catch (const JobTimeout&) {
        transient = true;
        ever_timed_out = true;
        result = JobResult{};
        result.index = index;
        result.attempts = attempt;
        result.error = "deadline exceeded";
        DS_TELEM_COUNT("sweep.job_timeouts", 1);
      } catch (const util::SolverError& e) {
        transient = true;
        result = JobResult{};
        result.index = index;
        result.attempts = attempt;
        result.error = e.what();
      } catch (const std::exception& e) {
        result = JobResult{};
        result.index = index;
        result.attempts = attempt;
        result.error = e.what();
      }
      if (state.watchdog != nullptr) state.watchdog->End(worker);
      result.timed_out = ever_timed_out;
      if (result.ok || !transient) break;  // success or permanent failure
      if (attempt >= state.max_attempts) {
        result.quarantined = true;
        if (state.events != nullptr) {
          telemetry::Event e = telemetry::MakeEvent(
              telemetry::EventKind::kQuarantined,
              static_cast<std::int64_t>(index),
              static_cast<std::int32_t>(attempt));
          e.SetDetail(result.error);
          PublishEvent(state, e);
        }
        break;
      }
      state.retries_total.fetch_add(1, std::memory_order_relaxed);
      DS_TELEM_COUNT("sweep.retries", 1);
      if (state.events != nullptr) {
        telemetry::Event e = telemetry::MakeEvent(
            telemetry::EventKind::kRetry,
            static_cast<std::int64_t>(index),
            static_cast<std::int32_t>(attempt));
        e.SetDetail(result.error);
        PublishEvent(state, e);
      }
      BackoffBeforeRetry(state, index, attempt);
    }
  }
  RetireJob(state, result, start, ever_timed_out);
}

/// Runs one lockstep cohort: every member advances through one shared
/// BatchStepPropagator panel pass per control period (see
/// RunBoostTransientCohort). Members are pre-screened to have no chaos
/// injections on any attempt, so a member only leaves the happy path
/// by detaching -- watchdog cancellation or a member-level exception --
/// after which it re-runs through ExecuteJob's full scalar retry
/// ladder. Rows are byte-identical either way (both lanes run the same
/// panel kernels), so detachment costs time, never determinism. Never
/// throws.
void ExecuteCohort(SharedState& state, std::size_t worker,
                   const std::vector<std::size_t>& members) {
  const std::size_t k = members.size();
  const auto start = Clock::now();
  state.in_flight.fetch_add(k, std::memory_order_relaxed);
  std::vector<const SweepJob*> job_ptrs(k, nullptr);
  std::vector<JobResult*> result_ptrs(k, nullptr);
  std::vector<std::shared_ptr<faults::CancelToken>> tokens(k);
  for (std::size_t m = 0; m < k; ++m) {
    const std::size_t index = members[m];
    job_ptrs[m] = &(*state.jobs)[index];
    JobResult& result = (*state.results)[index];
    result = JobResult{};
    result.index = index;
    result.attempts = 1;
    result_ptrs[m] = &result;
    tokens[m] = std::make_shared<faults::CancelToken>();
    // Tagged "cohort" so consumers can tell this lane's start from the
    // untagged scalar kStarted a detached member re-publishes through
    // ExecuteJob -- per-index accounting stays exact either way: one
    // untagged start per scalar attempt, one "cohort" start per cohort
    // membership.
    if (state.events != nullptr) {
      telemetry::Event e = telemetry::MakeEvent(
          telemetry::EventKind::kStarted, static_cast<std::int64_t>(index),
          static_cast<std::int32_t>(1));
      e.SetDetail("cohort");
      PublishEvent(state, e);
    }
  }
  std::vector<bool> detached(k, false);
  bool cohort_failed = false;
  {
    DS_TELEM_SPAN_ARG("runtime", "sweep_cohort",
                      ds::telemetry::TraceLevel::kSpan, "k",
                      static_cast<double>(k));
    if (state.watchdog != nullptr) state.watchdog->BeginGroup(worker, tokens);
    const auto should_detach = [&tokens](std::size_t m) {
      return tokens[m]->cancelled();
    };
    try {
      RunBoostTransientCohort(job_ptrs, *state.cache, result_ptrs,
                              should_detach, &detached);
    } catch (...) {
      // Cohort-level failure (e.g. the shared fold threw): nobody's
      // row is trustworthy; every member re-runs scalar, where the
      // per-attempt ladder records the real error per row.
      DS_TELEM_COUNT("sweep.cohort_failures", 1);
      cohort_failed = true;
    }
    if (state.watchdog != nullptr) state.watchdog->End(worker);
  }
  for (std::size_t m = 0; m < k; ++m) {
    // A cancellation landing after the member's last detach poll still
    // voids the row, matching the scalar lane's late-cancel check --
    // rows never depend on host speed vs. an enabled deadline.
    if (cohort_failed || tokens[m]->cancelled()) detached[m] = true;
  }
  for (std::size_t m = 0; m < k; ++m) {
    const std::size_t index = members[m];
    if (!detached[m]) {
      RetireJob(state, (*state.results)[index], start,
                /*ever_timed_out=*/false);
      continue;
    }
    state.batch_detached.fetch_add(1, std::memory_order_relaxed);
    DS_TELEM_COUNT("sweep.batch_detached", 1);
    if (state.events != nullptr) {
      telemetry::Event e = telemetry::MakeEvent(
          telemetry::EventKind::kRetry, static_cast<std::int64_t>(index),
          static_cast<std::int32_t>(1));
      e.SetDetail("cohort detach");
      PublishEvent(state, e);
    }
    // ExecuteJob re-takes the in-flight gauge and runs the member's
    // fresh scalar attempt ladder (attempt 1, deadline, retries).
    state.in_flight.fetch_sub(1, std::memory_order_relaxed);
    ExecuteJob(state, worker, index);
  }
}

/// Dispatches one claimed chunk to its lane.
void RunChunk(SharedState& state, std::size_t worker, std::size_t id) {
  const std::vector<std::size_t>& chunk = (*state.chunks)[id];
  if (chunk.size() == 1)
    ExecuteJob(state, worker, chunk.front());
  else
    ExecuteCohort(state, worker, chunk);
}

void WorkerLoop(SharedState& state, std::size_t self) {
  std::vector<WorkerQueue>& queues = *state.queues;
  const std::size_t workers = queues.size();
  for (;;) {
    if (state.stop_after != 0 &&
        state.completed.load(std::memory_order_relaxed) >= state.stop_after)
      return;
    if (state.cancel != nullptr && state.cancel->cancelled()) return;
    std::size_t id = 0;
    if (queues[self].PopBack(&id)) {
      RunChunk(state, self, id);
      continue;
    }
    bool stole = false;
    for (std::size_t k = 1; k < workers && !stole; ++k) {
      if (queues[(self + k) % workers].StealFront(&id)) {
        state.steals.fetch_add(1, std::memory_order_relaxed);
        stole = true;
      }
    }
    if (!stole) return;  // every queue empty: done
    RunChunk(state, self, id);
  }
}

}  // namespace

SweepEngine::SweepEngine(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  options_.chaos.Validate();
}

SweepOutcome SweepEngine::Run() {
  DS_TELEM_SPAN("runtime", "sweep_run", ds::telemetry::TraceLevel::kSpan);
  const auto start = Clock::now();

  const std::vector<SweepJob> jobs = spec_.Jobs();
  DS_REQUIRE(!jobs.empty(), "SweepEngine: spec expands to zero jobs");

  ModelCache& cache =
      options_.cache != nullptr ? *options_.cache : ModelCache::Process();
  if (options_.cache_budget_mb > 0.0)
    cache.set_budget_bytes(static_cast<std::size_t>(
        options_.cache_budget_mb * 1024.0 * 1024.0));
  const ModelCache::Stats cache_before = cache.stats();

  SweepOutcome out;
  out.results.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.results[i].index = i;
    out.results[i].error = "not executed";
  }
  out.stats.jobs_total = jobs.size();

  // Resume: mark journaled jobs done so the queues never see them.
  // Quarantined journal rows count as done too -- a job that exhausted
  // its budget once is poison until the operator clears the journal.
  std::vector<bool> done(jobs.size(), false);
  if (options_.resume) {
    DS_REQUIRE(!options_.checkpoint_path.empty(),
               "SweepEngine: resume requires a checkpoint path");
    std::vector<JobResult> completed;
    JournalLoadStats load_stats;
    if (LoadJournal(options_.checkpoint_path, spec_.Fingerprint(),
                    &completed, &load_stats)) {
      for (JobResult& r : completed) {
        DS_REQUIRE(r.index < jobs.size(),
                   "SweepEngine: journal job " << r.index << " out of range");
        if (!done[r.index]) ++out.stats.jobs_resumed;
        done[r.index] = true;  // last record wins
        out.results[r.index] = std::move(r);
      }
    }
    out.stats.journal_corrupt_records = load_stats.corrupt_records;
    out.stats.journal_truncated_bytes = load_stats.truncated_bytes;
    out.stats.journal_dedup_drops = load_stats.dedup_drops;
  }

  // Stream resumed rows exactly once each, in index order, before any
  // worker can race new completions into the callback.
  if (options_.on_result) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (done[i]) options_.on_result(out.results[i]);
  }

  // Open (or continue) the journal before spawning workers so an
  // unwritable path fails the run up front, not mid-sweep.
  JournalWriter journal;
  if (!options_.checkpoint_path.empty()) {
    const bool fresh = !options_.resume || out.stats.jobs_resumed == 0;
    journal.Open(options_.checkpoint_path, fresh, options_.journal_sync);
    if (fresh) journal.Append(JournalHeaderLine(spec_));
  }

  std::size_t threads = options_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  // Pending jobs in index order.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!done[i]) pending.push_back(i);

  // Chaos is constructed before chunk formation: the injector's
  // Decide() is pure, so the formation pass can pre-screen jobs that
  // will see an injection on *any* attempt and route them down the
  // scalar lane, where the retry/quarantine ladder (whose outcome IS a
  // CSV column) behaves bitwise like a batching-off run.
  std::unique_ptr<faults::ChaosInjector> chaos;
  if (options_.chaos.AnyChaosPossible())
    chaos = std::make_unique<faults::ChaosInjector>(options_.chaos);

  // Chunk formation: a chunk is one unit of worker work -- a singleton
  // job index (the scalar lane) or a lockstep cohort of batchable jobs
  // sharing a BatchCohortKey (one model content hash + dt, hence one
  // shared folded propagator), up to --batch-max-k jobs; 1 pins the
  // scalar lane.
  std::vector<std::vector<std::size_t>> chunks;
  chunks.reserve(pending.size());
  const std::size_t max_k = std::max<std::size_t>(options_.batch_max_k, 1);
  if (max_k < 2 || !KindIsBatchable(spec_.kind())) {
    for (const std::size_t i : pending) chunks.push_back({i});
  } else {
    const std::size_t max_attempts = 1 + options_.job_retries;
    const auto chaos_touched = [&](std::size_t index) {
      if (chaos == nullptr) return false;
      for (std::size_t a = 0; a < max_attempts; ++a) {
        const faults::ChaosDecision d = chaos->Decide(index, a);
        if (d.fail || d.delay) return true;
      }
      return false;
    };
    std::unordered_map<std::string, std::size_t> open;  // key -> chunk
    for (const std::size_t i : pending) {
      if (chaos_touched(i)) {
        chunks.push_back({i});
        continue;
      }
      const std::string key = BatchCohortKey(spec_.kind(), jobs[i].point);
      const auto it = open.find(key);
      if (it != open.end() && chunks[it->second].size() < max_k) {
        chunks[it->second].push_back(i);
      } else {
        open[key] = chunks.size();  // start (or replace a full) chunk
        chunks.push_back({i});
      }
    }
  }
  for (const std::vector<std::size_t>& chunk : chunks) {
    if (chunk.size() < 2) continue;
    ++out.stats.batch_cohorts;
    out.stats.batch_cohort_members += chunk.size();
    DS_TELEM_COUNT("thermal.batch.cohorts", 1);
    DS_TELEM_COUNT("thermal.batch.cohort_members", chunk.size());
  }

  // Chunks round-robin across worker deques in formation order.
  threads = std::min(threads, std::max<std::size_t>(chunks.size(), 1));

  std::vector<WorkerQueue> queues(threads);
  for (std::size_t c = 0; c < chunks.size(); ++c)
    queues[c % threads].PushFront(c);
  // push_front + owner PopBack => each worker drains its slice in
  // ascending index order, matching the serial engine's traversal.

  SharedState state;
  state.spec = &spec_;
  state.jobs = &jobs;
  state.cache = &cache;
  state.results = &out.results;
  state.queues = &queues;
  state.chunks = &chunks;
  state.stop_after = options_.stop_after_jobs;
  state.max_attempts = 1 + options_.job_retries;
  state.backoff_ms = options_.retry_backoff_ms;
  if (journal.is_open()) state.journal = &journal;
  if (options_.on_result) state.on_result = &options_.on_result;
  if (options_.cancel != nullptr) state.cancel = options_.cancel.get();
  state.events = options_.events != nullptr ? options_.events
                                            : telemetry::ProcessEventBus();

  if (state.events != nullptr) {
    telemetry::Event e =
        telemetry::MakeEvent(telemetry::EventKind::kRunStart);
    e.AddField("jobs_total", static_cast<double>(jobs.size()));
    e.AddField("jobs_resumed",
               static_cast<double>(out.stats.jobs_resumed));
    e.AddField("threads", static_cast<double>(threads));
    e.SetDetail(spec_.name());
    PublishEvent(state, e);
    for (const std::size_t i : pending)
      PublishEvent(state,
                   telemetry::MakeEvent(telemetry::EventKind::kScheduled,
                                        static_cast<std::int64_t>(i)));
  }

  if (chaos != nullptr) {
    state.chaos = chaos.get();
    state.chaos_log = &out.chaos_log;
  }

  std::unique_ptr<Watchdog> watchdog;
  if (options_.job_deadline_ms > 0.0) {
    watchdog =
        std::make_unique<Watchdog>(threads, options_.job_deadline_ms);
    state.watchdog = watchdog.get();
  }

  // Progress heartbeat: pure observation of the atomics the workers
  // bump, so the reporter can run alongside any thread count (including
  // the inline single-thread path) without touching results.
  std::unique_ptr<telemetry::HeartbeatReporter> heartbeat;
  if (options_.progress_stream != nullptr || state.events != nullptr) {
    const std::size_t jobs_total = jobs.size();
    const std::size_t jobs_resumed = out.stats.jobs_resumed;
    auto sampler = [&state, &cache, jobs_total, jobs_resumed, start] {
      telemetry::HeartbeatSnapshot snap;
      snap.jobs_total = jobs_total;
      snap.jobs_done =
          jobs_resumed + state.completed.load(std::memory_order_relaxed);
      snap.jobs_in_flight = state.in_flight.load(std::memory_order_relaxed);
      snap.jobs_quarantined =
          state.jobs_quarantined.load(std::memory_order_relaxed);
      snap.retries = state.retries_total.load(std::memory_order_relaxed);
      const ModelCache::Stats cs = cache.stats();
      snap.cache_hits = cs.hits;
      snap.cache_misses = cs.misses;
      snap.cache_bytes = cs.bytes;
      snap.elapsed_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      return snap;
    };
    telemetry::HeartbeatReporter::Options hb;
    hb.period_ms = options_.heartbeat_ms > 0.0 ? options_.heartbeat_ms
                                               : 500.0;
    hb.progress = options_.progress_stream;
    hb.label = spec_.name().empty() ? "sweep" : spec_.name();
    heartbeat = std::make_unique<telemetry::HeartbeatReporter>(
        std::move(sampler), std::move(hb));
  }

  if (threads == 1 && watchdog == nullptr) {
    WorkerLoop(state, 0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      pool.emplace_back([&state, w] { WorkerLoop(state, w); });
    for (std::thread& t : pool) t.join();
  }
  if (heartbeat != nullptr) heartbeat->Stop();
  watchdog.reset();  // stop the scanner before stats are read
  journal.Close();

  const ModelCache::Stats cache_after = cache.stats();
  out.stats.threads_used = threads;
  out.stats.steals = state.steals.load();
  out.stats.cache_hits = cache_after.hits - cache_before.hits;
  out.stats.cache_misses = cache_after.misses - cache_before.misses;
  out.stats.cache_evictions = cache_after.evictions - cache_before.evictions;
  out.stats.cache_bytes = cache_after.bytes;
  out.stats.jobs_retried = state.jobs_retried.load();
  out.stats.jobs_timed_out = state.jobs_timed_out.load();
  out.stats.jobs_quarantined = state.jobs_quarantined.load();
  out.stats.retries_total = state.retries_total.load();
  out.stats.batch_detached = state.batch_detached.load();
  for (const JobResult& r : out.results) {
    if (r.ok) {
      if (r.skipped) ++out.stats.jobs_skipped;
    } else if (r.error == "not executed") {
      ++out.stats.jobs_pending;
    } else {
      ++out.stats.jobs_failed;
    }
  }
  out.stats.jobs_executed = jobs.size() - out.stats.jobs_resumed -
                            out.stats.jobs_pending;
  out.stats.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  if (state.events != nullptr) {
    telemetry::Event e = telemetry::MakeEvent(telemetry::EventKind::kRunEnd);
    e.AddField("executed", static_cast<double>(out.stats.jobs_executed));
    e.AddField("failed", static_cast<double>(out.stats.jobs_failed));
    e.AddField("quarantined",
               static_cast<double>(out.stats.jobs_quarantined));
    e.AddField("retries", static_cast<double>(out.stats.retries_total));
    e.AddField("steals", static_cast<double>(out.stats.steals));
    e.AddField("wall_s", out.stats.wall_s);
    e.SetDetail(spec_.name());
    PublishEvent(state, e);
  }

  DS_ENSURE(out.results.size() == jobs.size(),
            "SweepEngine: result/job count mismatch");
  return out;
}

}  // namespace ds::runtime
