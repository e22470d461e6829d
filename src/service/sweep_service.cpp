#include "service/sweep_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "faults/chaos.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/json.hpp"
#include "telemetry/scoped.hpp"
#include "telemetry/telemetry.hpp"

namespace ds::service {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

namespace {

using telemetry::JsonEscape;

double MsSince(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                   since)
      .count();
}

std::int64_t NowUnixUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

bool IsTerminal(SweepState state) {
  return state == SweepState::kDone || state == SweepState::kFailed ||
         state == SweepState::kCancelled;
}

std::string MakeSweepId(std::uint64_t seq, const std::string& fingerprint) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%03llu-%.8s",
                static_cast<unsigned long long>(seq), fingerprint.c_str());
  return buf;
}

/// Parses the numeric sequence out of "s<seq>-<fp8>"; 0 when malformed.
std::uint64_t SeqOfId(const std::string& id) {
  if (id.size() < 2 || id[0] != 's') return 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 1; i < id.size() && id[i] != '-'; ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  return seq;
}

/// Publishes a service-plane event on the ambient process bus; no-op
/// without one. `job` carries the sweep's admission sequence number,
/// detail the client id (truncated to the POD field's capacity).
void PublishService(
    telemetry::EventKind kind, std::uint64_t seq, const std::string& client,
    std::initializer_list<std::pair<const char*, double>> fields) {
  telemetry::EventBus* bus = telemetry::ProcessEventBus();
  if (bus == nullptr) return;
  telemetry::Event e =
      telemetry::MakeEvent(kind, static_cast<std::int64_t>(seq));
  e.SetDetail(client);
  for (const auto& [name, value] : fields) e.AddField(name, value);
  bus->Publish(e);
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out.good())
    throw std::runtime_error("SweepService: cannot write '" + path + "'");
}

bool ReadTextFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

const char* SweepStateName(SweepState state) {
  switch (state) {
    case SweepState::kQueued: return "queued";
    case SweepState::kRunning: return "running";
    case SweepState::kDone: return "done";
    case SweepState::kFailed: return "failed";
    case SweepState::kCancelled: return "cancelled";
  }
  return "unknown";
}

// ----------------------------------------------------------- Sweep

struct SweepService::Sweep {
  Sweep(std::string id_in, std::string client_in, std::uint64_t seq_in,
        std::string spec_text_in, runtime::SweepSpec spec_in)
      : id(std::move(id_in)),
        client(std::move(client_in)),
        seq(seq_in),
        spec_text(std::move(spec_text_in)),
        spec(std::move(spec_in)),
        jobs(spec.Jobs()),
        sink(spec, jobs),
        cancel(std::make_shared<faults::CancelToken>()) {
    slots.resize(jobs.size());
  }

  const std::string id;
  const std::string client;
  const std::uint64_t seq;
  const std::string spec_text;
  const runtime::SweepSpec spec;
  const std::vector<runtime::SweepJob> jobs;
  const runtime::ResultSink sink;
  const std::shared_ptr<faults::CancelToken> cancel;

  /// Written before the sweep is visible to the runner.
  bool resume = false;
  SteadyClock::time_point submitted = SteadyClock::now();

  mutable ds::Mutex mu{locks::kServiceSweep};
  mutable ds::CondVar cv;
  SweepState state DS_GUARDED_BY(mu) = SweepState::kQueued;
  std::string error DS_GUARDED_BY(mu);
  bool rows_retained DS_GUARDED_BY(mu) = true;
  bool stream_closed DS_GUARDED_BY(mu) = false;  // Stop() aborts readers
  std::size_t jobs_done DS_GUARDED_BY(mu) = 0;
  double queue_wait_ms DS_GUARDED_BY(mu) = 0.0;
  double run_ms DS_GUARDED_BY(mu) = 0.0;
  std::string rows DS_GUARDED_BY(mu);    // CSV byte stream
  std::string events DS_GUARDED_BY(mu);  // JSON-lines service log

  // Row reordering: completion-order results -> index-order stream.
  std::vector<std::unique_ptr<runtime::JobResult>> slots DS_GUARDED_BY(mu);
  std::size_t prefix DS_GUARDED_BY(mu) = 0;  // finished jobs, all streamed

  void AppendEventLocked(const std::string& json_line) DS_REQUIRES(mu) {
    events += json_line;
    events += "\n";
  }

  /// Appends every row the contiguous prefix of finished jobs has
  /// reached, in index order (the header went out when the sweep
  /// started running).
  void AdvanceRowsLocked() DS_REQUIRES(mu) {
    while (prefix < slots.size() && slots[prefix] != nullptr)
      rows += sink.CsvRowLine(*slots[prefix++]);
  }
};

// ---------------------------------------------------- construction

SweepService::SweepService(Options options) : options_(std::move(options)) {
  if (!options_.journal_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.journal_dir, ec);
    if (ec)
      throw std::runtime_error("SweepService: cannot create journal dir '" +
                               options_.journal_dir + "': " + ec.message());
  }
  if (options_.cache_budget_mb > 0.0) {
    runtime::ModelCache& cache = options_.cache != nullptr
                                     ? *options_.cache
                                     : runtime::ModelCache::Process();
    cache.set_budget_bytes(static_cast<std::size_t>(
        options_.cache_budget_mb * 1024.0 * 1024.0));
  }
  if (!options_.journal_dir.empty()) RecoverFromDir();
  runner_ = std::thread([this] { RunnerLoop(); });
}

SweepService::~SweepService() { Stop(); }

std::string SweepService::JournalPathFor(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".journal";
}

void SweepService::RecoverFromDir() {
  std::vector<std::shared_ptr<Sweep>> recovered_queue;
  std::vector<std::shared_ptr<Sweep>> all;
  std::uint64_t max_seq = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.journal_dir)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".spec.json";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0)
      continue;
    const std::string id = name.substr(0, name.size() - suffix.size());
    std::string spec_text;
    if (!ReadTextFile(entry.path().string(), &spec_text)) continue;

    std::string client = "anon";
    std::string meta_text;
    if (ReadTextFile(options_.journal_dir + "/" + id + ".meta.json",
                     &meta_text)) {
      try {
        const telemetry::JsonValue meta = telemetry::ParseJson(meta_text);
        if (const telemetry::JsonValue* c = meta.Find("client");
            c != nullptr && c->is_string())
          client = c->str;
        // A torn meta file only loses the client attribution; the
        // sweep itself still resumes.
        // ds_lint: allow(swallowed-catch)
      } catch (const std::exception&) {
      }
    }

    runtime::SweepSpec spec;
    try {
      spec = runtime::SweepSpec::FromJsonText(spec_text);
      // A corrupt spec file cannot be re-run; skip it rather than
      // refusing to start the daemon.
      // ds_lint: allow(swallowed-catch)
    } catch (const std::exception&) {
      continue;
    }

    const std::uint64_t seq = SeqOfId(id);
    max_seq = std::max(max_seq, seq);
    auto sweep = std::make_shared<Sweep>(id, client, seq,
                                         std::move(spec_text),
                                         std::move(spec));

    std::string done_text;
    if (ReadTextFile(options_.journal_dir + "/" + id + ".done",
                     &done_text)) {
      // Terminal in a previous life: listed for /status, but the row
      // stream died with the process.
      const ds::MutexLock lock(sweep->mu);
      sweep->rows_retained = false;
      sweep->stream_closed = true;
      sweep->state = SweepState::kDone;
      const std::size_t eol = done_text.find('\n');
      const std::string head = done_text.substr(0, eol);
      if (head == "failed") sweep->state = SweepState::kFailed;
      if (head == "cancelled") sweep->state = SweepState::kCancelled;
      if (eol != std::string::npos && eol + 1 < done_text.size())
        sweep->error = done_text.substr(eol + 1);
      sweep->jobs_done = sweep->jobs.size();
    } else {
      sweep->resume = true;
      recovered_queue.push_back(sweep);
    }
    all.push_back(sweep);
  }

  const auto by_seq = [](const std::shared_ptr<Sweep>& a,
                         const std::shared_ptr<Sweep>& b) {
    return a->seq < b->seq;
  };
  std::sort(recovered_queue.begin(), recovered_queue.end(), by_seq);
  std::sort(all.begin(), all.end(), by_seq);

  const ds::MutexLock lock(registry_mu_);
  next_seq_ = max_seq + 1;
  sweeps_ = std::move(all);
  queue_ = std::move(recovered_queue);
  recovered_ = queue_.size();
}

// ------------------------------------------------------- admission

SweepService::Admission SweepService::Submit(const std::string& spec_text,
                                             const std::string& client_in) {
  const std::string client = client_in.empty() ? "anon" : client_in;
  Admission verdict;

  runtime::SweepSpec spec;
  try {
    spec = runtime::SweepSpec::FromJsonText(spec_text);
  } catch (const std::exception& e) {
    verdict.http_status = 400;
    verdict.error = e.what();
    DS_TELEM_COUNT("serve.rejects.bad_spec", 1);
    PublishService(telemetry::EventKind::kReject, 0, client,
                   {{"bad_spec", 1.0}});
    return verdict;
  }

  std::shared_ptr<Sweep> sweep;
  {
    const ds::MutexLock lock(registry_mu_);
    if (stopping_) {
      verdict.http_status = 503;
      verdict.error = "service is shutting down";
      return verdict;
    }
    if (queue_.size() >= options_.queue_depth) {
      verdict.http_status = 429;
      verdict.error = "admission queue is full";
      verdict.retry_after_s =
          std::min(30.0, 1.0 + static_cast<double>(queue_.size()));
      DS_TELEM_COUNT("serve.rejects.queue_full", 1);
      PublishService(telemetry::EventKind::kReject, 0, client,
                     {{"queue_full", 1.0},
                      {"retry_after_s", verdict.retry_after_s}});
      return verdict;
    }
    std::size_t mine = running_ != nullptr && running_->client == client;
    std::set<std::string> clients;
    if (running_ != nullptr) clients.insert(running_->client);
    for (const std::shared_ptr<Sweep>& queued : queue_) {
      clients.insert(queued->client);
      if (queued->client == client) ++mine;
    }
    if (mine >= options_.per_client) {
      verdict.http_status = 429;
      verdict.error = "per-client in-flight cap reached";
      verdict.retry_after_s = std::min(30.0, 1.0 + static_cast<double>(mine));
      DS_TELEM_COUNT("serve.rejects.client_cap", 1);
      PublishService(telemetry::EventKind::kReject, 0, client,
                     {{"client_cap", 1.0},
                      {"retry_after_s", verdict.retry_after_s}});
      return verdict;
    }
    if (clients.count(client) == 0 &&
        clients.size() >= options_.max_clients) {
      verdict.http_status = 429;
      verdict.error = "client slots exhausted";
      verdict.retry_after_s = 2.0;
      DS_TELEM_COUNT("serve.rejects.client_slots", 1);
      PublishService(telemetry::EventKind::kReject, 0, client,
                     {{"client_slots", 1.0},
                      {"retry_after_s", verdict.retry_after_s}});
      return verdict;
    }

    const std::uint64_t seq = next_seq_++;
    const std::string id = MakeSweepId(seq, spec.Fingerprint());
    sweep = std::make_shared<Sweep>(id, client, seq, spec_text,
                                    std::move(spec));
    if (!options_.journal_dir.empty()) {
      WriteTextFile(options_.journal_dir + "/" + id + ".spec.json",
                    sweep->spec_text);
      WriteTextFile(options_.journal_dir + "/" + id + ".meta.json",
                    "{\"id\": \"" + JsonEscape(id) + "\", \"client\": \"" +
                        JsonEscape(client) + "\", \"seq\": " +
                        std::to_string(seq) + "}\n");
    }
    queue_.push_back(sweep);
    sweeps_.push_back(sweep);
    verdict.queue_position = queue_.size();
    runner_cv_.NotifyOne();
  }

  {
    const ds::MutexLock lock(sweep->mu);
    sweep->AppendEventLocked(
        "{\"ev\": \"queued\", \"ts_us\": " + std::to_string(NowUnixUs()) +
        ", \"sweep\": \"" + JsonEscape(sweep->id) + "\", \"client\": \"" +
        JsonEscape(client) + "\", \"jobs\": " +
        std::to_string(sweep->jobs.size()) + "}");
  }

  verdict.accepted = true;
  verdict.http_status = 202;
  verdict.id = sweep->id;
  DS_TELEM_COUNT("serve.submits", 1);
  PublishService(
      telemetry::EventKind::kSubmit, sweep->seq, client,
      {{"jobs_total", static_cast<double>(sweep->jobs.size())},
       {"queued", static_cast<double>(verdict.queue_position)}});
  return verdict;
}

// ------------------------------------------------------- scheduler

void SweepService::RunnerLoop() {
  for (;;) {
    std::shared_ptr<Sweep> next;
    {
      ds::MutexLock lock(registry_mu_);
      while (queue_.empty() && !stopping_) runner_cv_.Wait(lock);
      if (stopping_) return;
      // FIFO with aging: the oldest sweep of a client other than the
      // one just served wins (round-robin across tenants); a
      // same-client sweep only wins once it is aging_ms older than
      // every other candidate.
      const SteadyClock::time_point now = SteadyClock::now();
      std::size_t best = 0;
      double best_score = -1.0;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const double age_ms =
            std::chrono::duration<double, std::milli>(now -
                                                      queue_[i]->submitted)
                .count();
        const double bonus =
            queue_[i]->client != last_client_ ? options_.aging_ms : 0.0;
        if (age_ms + bonus > best_score) {
          best_score = age_ms + bonus;
          best = i;
        }
      }
      next = queue_[best];
      queue_.erase(queue_.begin() +
                   static_cast<std::ptrdiff_t>(best));
      running_ = next;
      last_client_ = next->client;
    }
    RunSweep(next);
    {
      const ds::MutexLock lock(registry_mu_);
      running_.reset();
    }
  }
}

void SweepService::RunSweep(const std::shared_ptr<Sweep>& sweep) {
  const SteadyClock::time_point run_start = SteadyClock::now();
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(run_start -
                                                sweep->submitted)
      .count();
  {
    const ds::MutexLock lock(sweep->mu);
    if (IsTerminal(sweep->state)) return;  // cancelled while queued
    sweep->state = SweepState::kRunning;
    sweep->queue_wait_ms = queue_wait_ms;
    sweep->rows += sweep->sink.CsvHeaderLine();
    sweep->AppendEventLocked(
        "{\"ev\": \"started\", \"ts_us\": " + std::to_string(NowUnixUs()) +
        ", \"sweep\": \"" + JsonEscape(sweep->id) +
        "\", \"queue_wait_ms\": " + Num(queue_wait_ms) + "}");
    sweep->cv.NotifyAll();
  }
  DS_TELEM_COUNT("serve.sweeps_started", 1);
  PublishService(telemetry::EventKind::kSweepStart, sweep->seq,
                 sweep->client, {{"queue_wait_ms", queue_wait_ms}});

  runtime::SweepOptions eo;
  eo.threads = options_.engine_threads;
  eo.cache = options_.cache;
  eo.job_retries = options_.job_retries;
  eo.job_deadline_ms = options_.job_deadline_ms;
  eo.journal_sync = options_.journal_sync;
  eo.cancel = sweep->cancel;
  if (!options_.journal_dir.empty()) {
    eo.checkpoint_path = JournalPathFor(sweep->id);
    eo.resume = sweep->resume && fs::exists(eo.checkpoint_path);
  }
  // The service owns the shared weak spot of multi-tenant streaming:
  // workers finish jobs in any order, this callback re-serializes them
  // into the byte-exact CSV stream under the sweep's own lock, behind
  // the header RunSweep wrote above.
  eo.on_result = [sweep](const runtime::JobResult& result) {
    const ds::MutexLock lock(sweep->mu);
    if (result.index >= sweep->slots.size()) return;
    if (sweep->slots[result.index] != nullptr) return;  // last wins upstream
    sweep->slots[result.index] =
        std::make_unique<runtime::JobResult>(result);
    ++sweep->jobs_done;
    sweep->AppendEventLocked(
        "{\"ev\": \"job\", \"ts_us\": " + std::to_string(NowUnixUs()) +
        ", \"sweep\": \"" + JsonEscape(sweep->id) +
        "\", \"job\": " + std::to_string(result.index) +
        ", \"status\": \"" + runtime::StatusOf(result) +
        "\", \"attempts\": " + std::to_string(result.attempts) + "}");
    sweep->AdvanceRowsLocked();
    sweep->cv.NotifyAll();
  };

  SweepState final_state = SweepState::kDone;
  std::string error;
  try {
    runtime::SweepEngine engine(sweep->spec, std::move(eo));
    const runtime::SweepOutcome outcome = engine.Run();
    if (sweep->cancel->cancelled())
      final_state = SweepState::kCancelled;
    else if (outcome.stats.jobs_pending > 0)
      final_state = SweepState::kFailed;  // engine stopped short
  } catch (const std::exception& e) {
    final_state = SweepState::kFailed;
    error = e.what();
  }
  const double run_ms = MsSince(run_start);

  std::size_t jobs_done = 0;
  {
    const ds::MutexLock lock(sweep->mu);
    sweep->run_ms = run_ms;
    sweep->error = error;
    sweep->state = final_state;
    jobs_done = sweep->jobs_done;
    sweep->AppendEventLocked(
        "{\"ev\": \"" +
        std::string(final_state == SweepState::kCancelled ? "cancelled"
                                                          : "done") +
        "\", \"ts_us\": " + std::to_string(NowUnixUs()) +
        ", \"sweep\": \"" + JsonEscape(sweep->id) + "\", \"status\": \"" +
        SweepStateName(final_state) + "\", \"run_ms\": " + Num(run_ms) +
        ", \"jobs_done\": " + std::to_string(jobs_done) +
        (error.empty() ? ""
                       : ", \"error\": \"" + JsonEscape(error) + "\"") +
        "}");
    sweep->cv.NotifyAll();
  }

  if (!options_.journal_dir.empty()) {
    try {
      WriteTextFile(options_.journal_dir + "/" + sweep->id + ".done",
                    std::string(SweepStateName(final_state)) + "\n" + error);
    } catch (const std::exception& e) {
      // The daemon outlives a full disk; the cost is one resumed-as-
      // finished sweep on the next restart.
      DS_TELEM_COUNT("serve.done_marker_errors", 1);
      PublishService(telemetry::EventKind::kSweepEnd, sweep->seq,
                     std::string("done-marker: ") + e.what(), {});
    }
  }

  DS_TELEM_COUNT("serve.sweeps_finished", 1);
  if (final_state == SweepState::kCancelled)
    DS_TELEM_COUNT("serve.sweeps_cancelled", 1);
  if (final_state == SweepState::kFailed)
    DS_TELEM_COUNT("serve.sweeps_failed", 1);
  PublishService(
      telemetry::EventKind::kSweepEnd, sweep->seq, sweep->client,
      {{"run_ms", run_ms},
       {"rows", static_cast<double>(jobs_done)},
       {"cancelled", final_state == SweepState::kCancelled ? 1.0 : 0.0},
       {"failed", final_state == SweepState::kFailed ? 1.0 : 0.0}});
}

// --------------------------------------------------------- queries

std::shared_ptr<SweepService::Sweep> SweepService::Find(
    const std::string& id) {
  const ds::MutexLock lock(registry_mu_);
  for (const std::shared_ptr<Sweep>& sweep : sweeps_)
    if (sweep->id == id) return sweep;
  return nullptr;
}

bool SweepService::Cancel(const std::string& id) {
  const std::shared_ptr<Sweep> sweep = Find(id);
  if (sweep == nullptr) return false;
  bool was_queued = false;
  {
    const ds::MutexLock lock(registry_mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), sweep);
    if (it != queue_.end()) {
      queue_.erase(it);
      was_queued = true;
    }
  }
  sweep->cancel->Cancel();  // running workers stop claiming jobs
  if (was_queued) {
    const ds::MutexLock lock(sweep->mu);
    sweep->state = SweepState::kCancelled;
    sweep->AppendEventLocked(
        "{\"ev\": \"cancelled\", \"ts_us\": " +
        std::to_string(NowUnixUs()) + ", \"sweep\": \"" +
        JsonEscape(sweep->id) + "\", \"status\": \"cancelled\"" +
        ", \"run_ms\": 0.000, \"jobs_done\": 0}");
    sweep->cv.NotifyAll();
    if (!options_.journal_dir.empty()) {
      try {
        WriteTextFile(options_.journal_dir + "/" + sweep->id + ".done",
                      "cancelled\n");
        // Best-effort marker; the sweep would merely re-queue (and be
        // re-cancellable) after a restart.
        // ds_lint: allow(swallowed-catch)
      } catch (const std::exception&) {
      }
    }
  }
  DS_TELEM_COUNT("serve.cancels", 1);
  PublishService(telemetry::EventKind::kCancel, sweep->seq, sweep->client,
                 {{"was_queued", was_queued ? 1.0 : 0.0}});
  return true;
}

SweepStatusSnapshot SweepService::Snapshot(const std::shared_ptr<Sweep>& s,
                                           std::size_t queue_position) {
  SweepStatusSnapshot out;
  out.id = s->id;
  out.client = s->client;
  out.name = s->spec.name();
  out.jobs_total = s->jobs.size();
  out.queue_position = queue_position;
  const ds::MutexLock lock(s->mu);
  out.state = s->state;
  out.error = s->error;
  out.rows_retained = s->rows_retained;
  out.jobs_done = s->jobs_done;
  out.row_bytes = s->rows.size();
  out.queue_wait_ms = s->state == SweepState::kQueued
                          ? MsSince(s->submitted)
                          : s->queue_wait_ms;
  out.run_ms = s->run_ms;
  return out;
}

bool SweepService::GetStatus(const std::string& id,
                             SweepStatusSnapshot* out) {
  std::shared_ptr<Sweep> sweep;
  std::size_t position = 0;
  {
    const ds::MutexLock lock(registry_mu_);
    for (const std::shared_ptr<Sweep>& s : sweeps_)
      if (s->id == id) {
        sweep = s;
        break;
      }
    if (sweep == nullptr) return false;
    for (std::size_t i = 0; i < queue_.size(); ++i)
      if (queue_[i] == sweep) position = i + 1;
  }
  *out = Snapshot(sweep, position);
  return true;
}

std::vector<SweepStatusSnapshot> SweepService::List() {
  std::vector<std::shared_ptr<Sweep>> sweeps;
  std::vector<std::size_t> positions;
  {
    const ds::MutexLock lock(registry_mu_);
    sweeps = sweeps_;
    positions.resize(sweeps.size(), 0);
    for (std::size_t q = 0; q < queue_.size(); ++q)
      for (std::size_t i = 0; i < sweeps.size(); ++i)
        if (sweeps[i] == queue_[q]) positions[i] = q + 1;
  }
  std::vector<SweepStatusSnapshot> out;
  out.reserve(sweeps.size());
  for (std::size_t i = 0; i < sweeps.size(); ++i)
    out.push_back(Snapshot(sweeps[i], positions[i]));
  return out;
}

// ------------------------------------------------------- streaming

bool SweepService::ReadStream(const std::string& id, StreamKind kind,
                              std::size_t offset, std::string* out,
                              bool* found) {
  const std::shared_ptr<Sweep> sweep = Find(id);
  if (sweep == nullptr) {
    *found = false;
    return false;
  }
  ds::MutexLock lock(sweep->mu);
  if (!sweep->rows_retained) {
    *found = false;
    return false;
  }
  *found = true;
  const std::string& stream =
      kind == StreamKind::kRows ? sweep->rows : sweep->events;
  while (stream.size() <= offset && !IsTerminal(sweep->state) &&
         !sweep->stream_closed)
    sweep->cv.Wait(lock);
  if (stream.size() > offset)
    out->append(stream, offset, std::string::npos);
  return !IsTerminal(sweep->state) && !sweep->stream_closed;
}

bool SweepService::ReadRows(const std::string& id, std::size_t offset,
                            std::string* out, bool* found) {
  return ReadStream(id, StreamKind::kRows, offset, out, found);
}

bool SweepService::ReadEvents(const std::string& id, std::size_t offset,
                              std::string* out, bool* found) {
  return ReadStream(id, StreamKind::kEvents, offset, out, found);
}

// -------------------------------------------------------- shutdown

void SweepService::Stop() {
  const ds::MutexLock stop_lock(stop_mu_);
  if (stopped_) return;
  std::shared_ptr<Sweep> running;
  {
    const ds::MutexLock lock(registry_mu_);
    stopping_ = true;
    running = running_;
    runner_cv_.NotifyAll();
  }
  if (running != nullptr) running->cancel->Cancel();
  runner_.join();
  std::vector<std::shared_ptr<Sweep>> all;
  {
    const ds::MutexLock lock(registry_mu_);
    all = sweeps_;
  }
  for (const std::shared_ptr<Sweep>& sweep : all) {
    const ds::MutexLock lock(sweep->mu);
    sweep->stream_closed = true;
    sweep->cv.NotifyAll();
  }
  stopped_ = true;
}

// ------------------------------------------------------------ HTTP

net::HttpServer::Handler SweepService::HttpHandler() {
  return [this](const net::HttpRequest& request,
                net::HttpServer::ResponseWriter& writer) {
    HandleRequest(request, writer);
  };
}

void SweepService::HandleRequest(const net::HttpRequest& request,
                                 net::HttpServer::ResponseWriter& writer) {
  static constexpr std::string_view kJson = "application/json";
  const std::string& target = request.target;

  if (request.method == "GET" && target == "/metrics") {
    std::ostringstream body;
    telemetry::Registry().DumpOpenMetrics(body);
    writer.Send("200 OK",
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                body.str());
    return;
  }
  if (request.method == "GET" && target == "/healthz") {
    writer.Send("200 OK", "text/plain; charset=utf-8", "ok\n");
    return;
  }

  if (target == "/v1/sweeps" && request.method == "POST") {
    const Admission verdict =
        Submit(request.body, std::string(request.Header("x-client")));
    if (verdict.accepted) {
      writer.Send("202 Accepted", kJson,
                  "{\"id\": \"" + JsonEscape(verdict.id) +
                      "\", \"status\": \"queued\", \"position\": " +
                      std::to_string(verdict.queue_position) + "}\n");
    } else if (verdict.http_status == 429) {
      const long long retry_s = std::llround(verdict.retry_after_s);
      writer.Send("429 Too Many Requests", kJson,
                  "{\"error\": \"" + JsonEscape(verdict.error) + "\"}\n",
                  "Retry-After: " + std::to_string(retry_s) + "\r\n");
    } else if (verdict.http_status == 503) {
      writer.Send("503 Service Unavailable", kJson,
                  "{\"error\": \"" + JsonEscape(verdict.error) + "\"}\n");
    } else {
      writer.Send("400 Bad Request", kJson,
                  "{\"error\": \"" + JsonEscape(verdict.error) + "\"}\n");
    }
    return;
  }

  if (target == "/v1/sweeps" && request.method == "GET") {
    std::string body = "{\"sweeps\": [";
    const std::vector<SweepStatusSnapshot> sweeps = List();
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      if (i > 0) body += ", ";
      body += StatusJson(sweeps[i]);
    }
    body += "]}\n";
    writer.Send("200 OK", kJson, body);
    return;
  }

  const std::string_view prefix = "/v1/sweeps/";
  if (target.rfind(prefix, 0) == 0) {
    const std::string rest = target.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    const std::string tail =
        slash == std::string::npos ? "" : rest.substr(slash + 1);

    if (request.method == "DELETE" && tail.empty()) {
      if (Cancel(id))
        writer.Send("200 OK", kJson,
                    "{\"id\": \"" + JsonEscape(id) +
                        "\", \"cancelled\": true}\n");
      else
        writer.Send("404 Not Found", kJson,
                    "{\"error\": \"unknown sweep id\"}\n");
      return;
    }

    if (request.method == "GET" && (tail.empty() || tail == "status")) {
      SweepStatusSnapshot snapshot;
      if (GetStatus(id, &snapshot))
        writer.Send("200 OK", kJson, StatusJson(snapshot) + "\n");
      else
        writer.Send("404 Not Found", kJson,
                    "{\"error\": \"unknown sweep id\"}\n");
      return;
    }

    if (request.method == "GET" && (tail == "rows" || tail == "events")) {
      SweepStatusSnapshot snapshot;
      if (!GetStatus(id, &snapshot)) {
        writer.Send("404 Not Found", kJson,
                    "{\"error\": \"unknown sweep id\"}\n");
        return;
      }
      if (!snapshot.rows_retained) {
        writer.Send("410 Gone", kJson,
                    "{\"error\": \"stream not retained across restart\"}\n");
        return;
      }
      const StreamKind kind =
          tail == "rows" ? StreamKind::kRows : StreamKind::kEvents;
      if (!writer.BeginChunked("200 OK", kind == StreamKind::kRows
                                             ? "text/csv; charset=utf-8"
                                             : "application/x-ndjson"))
        return;
      std::size_t offset = 0;
      for (;;) {
        std::string data;
        bool found = false;
        const bool more = ReadStream(id, kind, offset, &data, &found);
        offset += data.size();
        if (!data.empty() && !writer.WriteChunk(data)) return;
        if (!more) break;
      }
      writer.EndChunked();
      return;
    }
  }

  writer.Send("404 Not Found", kJson, "{\"error\": \"not found\"}\n");
}

std::string SweepService::StatusJson(const SweepStatusSnapshot& s) {
  std::string out = "{\"id\": \"" + JsonEscape(s.id) + "\"";
  out += ", \"client\": \"" + JsonEscape(s.client) + "\"";
  out += ", \"name\": \"" + JsonEscape(s.name) + "\"";
  out += ", \"state\": \"" + std::string(SweepStateName(s.state)) + "\"";
  out += ", \"jobs_total\": " + std::to_string(s.jobs_total);
  out += ", \"jobs_done\": " + std::to_string(s.jobs_done);
  out += ", \"row_bytes\": " + std::to_string(s.row_bytes);
  out += ", \"queue_position\": " + std::to_string(s.queue_position);
  out += ", \"queue_wait_ms\": " + Num(s.queue_wait_ms);
  out += ", \"run_ms\": " + Num(s.run_ms);
  out += ", \"rows_retained\": ";
  out += s.rows_retained ? "true" : "false";
  if (!s.error.empty()) out += ", \"error\": \"" + JsonEscape(s.error) + "\"";
  out += "}";
  return out;
}

}  // namespace ds::service
