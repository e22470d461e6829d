#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"
#include "util/lock_levels.hpp"
#include "util/thread_annotations.hpp"

namespace ds::telemetry {
namespace {

// Registry of every ring ever created, plus the idle ones whose thread
// has exited. Rings are never destroyed: an exiting thread parks its
// ring on `idle` with its events still retained (so a later export
// still shows them), and the next thread that needs a ring takes it
// over instead of allocating another. The handoff happens under `mu`,
// so a ring still has exactly one writer at a time. The mutex guards
// registration, handoff and export only, never emission.
struct BufferRegistry {
  ds::Mutex mu{ds::locks::kTraceRegistry};
  std::vector<TraceBuffer*> buffers DS_GUARDED_BY(mu);
  std::vector<TraceBuffer*> idle DS_GUARDED_BY(mu);
};

BufferRegistry& Buffers() {
  // Intentional leak: see Registry() in metrics.cpp. Mutation goes
  // through the embedded mutex.
  // ds_lint: allow(static-mutable)
  static BufferRegistry* registry =
      new BufferRegistry();  // ds_lint: allow(naked-new)
  return *registry;
}

/// A thread's claim on one ring: taken on the thread's first event,
/// handed back to the idle list when the thread exits.
class RingLease {
 public:
  RingLease() {
    BufferRegistry& reg = Buffers();
    const ds::MutexLock lock(reg.mu);
    if (!reg.idle.empty()) {
      ring_ = reg.idle.back();
      reg.idle.pop_back();
      return;
    }
    // Intentional leak: a ring outlives its thread so a late
    // Snapshot() can still drain it (see BufferRegistry).
    ring_ = new TraceBuffer(  // ds_lint: allow(naked-new)
        kTraceBufferCapacity);
    reg.buffers.push_back(ring_);
  }
  ~RingLease() {
    BufferRegistry& reg = Buffers();
    const ds::MutexLock lock(reg.mu);
    reg.idle.push_back(ring_);
  }
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;

  TraceBuffer& ring() const { return *ring_; }

 private:
  TraceBuffer* ring_ = nullptr;
};

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void AppendJsonString(std::ostream& os, const char* s) {
  os << '"' << JsonEscape(s) << '"';
}

void AppendEventJson(std::ostream& os, const TraceEvent& e, int tid) {
  os << "{\"name\":";
  AppendJsonString(os, e.name != nullptr ? e.name : "?");
  os << ",\"cat\":";
  AppendJsonString(os, e.cat != nullptr ? e.cat : "ds");
  os << ",\"ph\":\"" << e.phase << "\",\"ts\":" << e.ts_us
     << ",\"pid\":1,\"tid\":" << tid;
  if (e.phase == 'X') os << ",\"dur\":" << e.dur_us;
  if (e.phase == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
  if (e.arg0_name != nullptr || e.arg1_name != nullptr) {
    os << ",\"args\":{";
    bool first = true;
    if (e.arg0_name != nullptr) {
      AppendJsonString(os, e.arg0_name);
      os << ":" << e.arg0;
      first = false;
    }
    if (e.arg1_name != nullptr) {
      if (!first) os << ",";
      AppendJsonString(os, e.arg1_name);
      os << ":" << e.arg1;
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

void SetTraceLevel(TraceLevel level) {
  internal::TraceLevelFlag().store(static_cast<int>(level),
                                   std::memory_order_relaxed);
}

TraceLevel GetTraceLevel() {
  return static_cast<TraceLevel>(
      internal::TraceLevelFlag().load(std::memory_order_relaxed));
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TraceBuffer::Emit(const TraceEvent& event) {
  const std::uint64_t w = written_.load(std::memory_order_relaxed);
  ring_[static_cast<std::size_t>(w % ring_.size())] = event;
  written_.store(w + 1, std::memory_order_release);
}

std::size_t TraceBuffer::size() const {
  const std::uint64_t w = written_.load(std::memory_order_acquire);
  return static_cast<std::size_t>(std::min<std::uint64_t>(w, ring_.size()));
}

std::uint64_t TraceBuffer::dropped() const {
  const std::uint64_t w = written_.load(std::memory_order_acquire);
  return w > ring_.size() ? w - ring_.size() : 0;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  const std::uint64_t w = written_.load(std::memory_order_acquire);
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(w, ring_.size()));
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest retained event first: when wrapped, that is slot w % cap.
  const std::uint64_t start = w > ring_.size() ? w - ring_.size() : 0;
  for (std::uint64_t i = start; i < w; ++i)
    out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
  return out;
}

void TraceBuffer::Clear() { written_.store(0, std::memory_order_release); }

TraceBuffer& ThreadTraceBuffer() {
  thread_local const RingLease lease;
  return lease.ring();
}

std::int64_t TraceNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

void EmitInstant(const char* cat, const char* name, TraceLevel level,
                 const char* arg0_name, double arg0, const char* arg1_name,
                 double arg1) {
  if (!TraceOn(level)) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.ts_us = TraceNowUs();
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  ThreadTraceBuffer().Emit(e);
}

// arg0 is an opaque trace payload, not a physical quantity: any finite
// or non-finite value is legal to record.
// ds_lint: allow(missing-contract)
ScopedSpan::ScopedSpan(const char* cat, const char* name, TraceLevel level,
                       const char* arg0_name, double arg0,
                       const char* arg1_name, double arg1)
    : cat_(cat),
      name_(name),
      arg0_name_(arg0_name),
      arg0_(arg0),
      arg1_name_(arg1_name),
      arg1_(arg1),
      start_us_(0),
      active_(TraceOn(level)) {
  if (active_) start_us_ = TraceNowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.phase = 'X';
  e.ts_us = start_us_;
  e.dur_us = TraceNowUs() - start_us_;
  e.arg0_name = arg0_name_;
  e.arg0 = arg0_;
  e.arg1_name = arg1_name_;
  e.arg1 = arg1_;
  ThreadTraceBuffer().Emit(e);
}

std::uint64_t TotalDroppedEvents() {
  BufferRegistry& reg = Buffers();
  const ds::MutexLock lock(reg.mu);
  std::uint64_t total = 0;
  for (const TraceBuffer* b : reg.buffers) total += b->dropped();
  return total;
}

std::size_t TotalTraceEvents() {
  BufferRegistry& reg = Buffers();
  const ds::MutexLock lock(reg.mu);
  std::size_t total = 0;
  for (const TraceBuffer* b : reg.buffers) total += b->size();
  return total;
}

void WriteChromeTrace(std::ostream& os) {
  struct Tagged {
    TraceEvent event;
    int tid;
  };
  std::vector<Tagged> all;
  {
    BufferRegistry& reg = Buffers();
    const ds::MutexLock lock(reg.mu);
    int tid = 1;
    for (const TraceBuffer* b : reg.buffers) {
      for (const TraceEvent& e : b->Snapshot()) all.push_back({e, tid});
      ++tid;
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.event.ts_us < b.event.ts_us;
                   });

  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << TotalDroppedEvents() << "},\"traceEvents\":[";
  bool first = true;
  os.precision(17);
  for (const Tagged& t : all) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    AppendEventJson(os, t.event, t.tid);
  }
  os << "\n]}\n";
}

void WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("WriteChromeTrace: cannot open " + path);
  WriteChromeTrace(out);
  out.flush();
  if (!out)
    throw std::runtime_error("WriteChromeTrace: write failed for " + path);
}

void ClearTrace() {
  BufferRegistry& reg = Buffers();
  const ds::MutexLock lock(reg.mu);
  for (TraceBuffer* b : reg.buffers) b->Clear();
}

}  // namespace ds::telemetry
