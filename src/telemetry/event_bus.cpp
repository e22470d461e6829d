#include "telemetry/event_bus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace ds::telemetry {

namespace {

std::atomic<EventBus*>& ProcessBusSlot() {
  static std::atomic<EventBus*> bus{nullptr};
  return bus;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRunStart: return "run_start";
    case EventKind::kScheduled: return "scheduled";
    case EventKind::kStarted: return "started";
    case EventKind::kRetry: return "retry";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kQuarantined: return "quarantined";
    case EventKind::kCacheEvict: return "cache_evict";
    case EventKind::kJournalSkip: return "journal_skip";
    case EventKind::kChaosInject: return "chaos_inject";
    case EventKind::kCompleted: return "completed";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kRunEnd: return "run_end";
    case EventKind::kSubmit: return "submit";
    case EventKind::kReject: return "reject";
    case EventKind::kSweepStart: return "sweep_start";
    case EventKind::kSweepEnd: return "sweep_end";
    case EventKind::kCancel: return "cancel";
    case EventKind::kBusClose: return "bus_close";
  }
  return "?";
}

void Event::AddField(const char* name, double value) {
  for (Field& f : fields) {
    if (f.name == nullptr) {
      f.name = name;
      f.value = value;
      return;
    }
  }
}

void Event::SetDetail(const std::string& text) {
  const std::size_t n = std::min(text.size(), kDetailBytes - 1);
  std::memcpy(detail, text.data(), n);
  detail[n] = '\0';
}

Event MakeEvent(EventKind kind, std::int64_t job, std::int32_t attempt) {
  Event e;
  e.kind = kind;
  e.ts_us = TraceNowUs();
  e.job = job;
  e.attempt = attempt;
  return e;
}

EventBus::EventBus(const std::string& path, Options options)
    : options_(options) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::binary |
                                                        std::ios::trunc);
  if (!file->good())
    throw std::runtime_error("EventBus: cannot open events file '" + path +
                             "'");
  owned_os_ = std::move(file);
  os_ = owned_os_.get();
  {
    // No concurrency yet (the writer starts below); locking keeps the
    // guarded-field write visible to the thread-safety analysis.
    const ds::MutexLock lock(mu_);
    ring_.resize(options_.capacity == 0 ? 1 : options_.capacity);
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

EventBus::EventBus(std::ostream& os, Options options) : options_(options) {
  os_ = &os;
  {
    const ds::MutexLock lock(mu_);
    ring_.resize(options_.capacity == 0 ? 1 : options_.capacity);
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

EventBus::~EventBus() { Close(); }

bool EventBus::Publish(const Event& event) {
  {
    const ds::MutexLock lock(mu_);
    if (closing_ || size_ == ring_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ring_[(head_ + size_) % ring_.size()] = event;
    ++size_;
    // Counted under mu_ so published == written + dropped holds at
    // every instant, not just at quiescence: bumping it after the
    // unlock left a window where the writer could drain (and count)
    // the event before the publisher recorded it.
    published_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.NotifyOne();
  return true;
}

void EventBus::Close() {
  // Serialized end-to-end: a second closer waits here until the first
  // has joined the writer and sealed the file, then returns.
  const ds::MutexLock close_lock(close_mu_);
  if (closed_) return;
  {
    const ds::MutexLock lock(mu_);
    closing_ = true;
  }
  cv_.NotifyAll();
  writer_.join();
  closed_ = true;
  // The writer drained everything before exiting; append the final
  // accounting record so readers can audit completeness.
  Event close_event = MakeEvent(EventKind::kBusClose);
  close_event.AddField("written",
                       static_cast<double>(written_.load()));
  close_event.AddField("dropped",
                       static_cast<double>(dropped_.load()));
  WriteEvent(*os_, close_event);
  os_->flush();
}

EventBusStats EventBus::stats() const {
  EventBusStats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.written = written_.load(std::memory_order_relaxed);
  return s;
}

void EventBus::WriterLoop() {
  std::vector<Event> batch;
  batch.reserve(256);
  for (;;) {
    batch.clear();
    {
      ds::MutexLock lock(mu_);
      while (size_ == 0 && !closing_) cv_.Wait(lock);
      while (size_ > 0 && batch.size() < batch.capacity()) {
        batch.push_back(ring_[head_]);
        head_ = (head_ + 1) % ring_.size();
        --size_;
      }
      if (batch.empty() && closing_) return;  // fully drained
    }
    for (const Event& e : batch) WriteEvent(*os_, e);
    written_.fetch_add(batch.size(), std::memory_order_relaxed);
    os_->flush();  // lines land promptly for live tail -f consumers
  }
}

void EventBus::WriteEvent(std::ostream& os, const Event& event) {
  os << "{\"ev\":\"" << EventKindName(event.kind)
     << "\",\"ts_us\":" << event.ts_us;
  if (event.job >= 0) os << ",\"job\":" << event.job;
  if (event.attempt > 0) os << ",\"attempt\":" << event.attempt;
  if (event.model_hash != 0) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(event.model_hash));
    os << ",\"model_hash\":\"" << hex << "\"";
  }
  for (const Event::Field& f : event.fields) {
    if (f.name == nullptr) break;
    os << ",\"" << JsonEscape(f.name) << "\":" << JsonNumber(f.value);
  }
  if (event.detail[0] != '\0')
    os << ",\"detail\":\"" << JsonEscape(event.detail) << "\"";
  os << "}\n";
}

EventBus* ProcessEventBus() {
  return ProcessBusSlot().load(std::memory_order_acquire);
}

void SetProcessEventBus(EventBus* bus) {
  ProcessBusSlot().store(bus, std::memory_order_release);
}

void Emit(const Event& event) {
  EventBus* bus = ProcessEventBus();
  if (bus != nullptr) bus->Publish(event);
}

bool ValidateEventFile(const std::string& text, std::size_t* num_events,
                       std::uint64_t* num_dropped, std::string* error) {
  static const std::set<std::string> kKnown = {
      "run_start",   "scheduled",    "started",   "retry",
      "backoff",     "quarantined",  "cache_evict", "journal_skip",
      "chaos_inject", "completed",   "heartbeat", "run_end",
      "submit",      "reject",       "sweep_start", "sweep_end",
      "cancel",      "bus_close"};
  static const std::set<std::string> kJobScoped = {
      "scheduled", "started", "retry", "backoff", "quarantined",
      "chaos_inject", "completed"};

  auto fail = [&](std::size_t line_no, const std::string& why) {
    if (error != nullptr)
      *error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };

  std::size_t events = 0;
  std::uint64_t dropped = 0;
  bool saw_close = false;
  double close_written = -1.0;
  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (saw_close) return fail(line_no, "record after bus_close");
    JsonValue doc;
    try {
      doc = ParseJson(line);
    } catch (const std::exception& e) {
      return fail(line_no, e.what());
    }
    if (!doc.is_object()) return fail(line_no, "not a JSON object");
    const JsonValue* ev = doc.Find("ev");
    if (ev == nullptr || !ev->is_string())
      return fail(line_no, "missing string \"ev\"");
    if (kKnown.count(ev->str) == 0)
      return fail(line_no, "unknown event kind '" + ev->str + "'");
    const JsonValue* ts = doc.Find("ts_us");
    if (ts == nullptr || !ts->is_number())
      return fail(line_no, "missing numeric \"ts_us\"");
    if (kJobScoped.count(ev->str) != 0) {
      const JsonValue* job = doc.Find("job");
      if (job == nullptr || !job->is_number())
        return fail(line_no,
                    "job-scoped event '" + ev->str + "' without \"job\"");
    }
    if (ev->str == "bus_close") {
      const JsonValue* written = doc.Find("written");
      const JsonValue* drops = doc.Find("dropped");
      if (written == nullptr || !written->is_number() || drops == nullptr ||
          !drops->is_number())
        return fail(line_no, "bus_close without written/dropped counts");
      saw_close = true;
      close_written = written->number;
      dropped = static_cast<std::uint64_t>(drops->number);
      continue;
    }
    ++events;
  }
  if (!saw_close) return fail(line_no, "missing final bus_close record");
  if (close_written != static_cast<double>(events))
    return fail(line_no, "bus_close written=" +
                             std::to_string(static_cast<std::size_t>(
                                 close_written)) +
                             " but file holds " + std::to_string(events) +
                             " events");
  if (num_events != nullptr) *num_events = events;
  if (num_dropped != nullptr) *num_dropped = dropped;
  return true;
}

}  // namespace ds::telemetry
