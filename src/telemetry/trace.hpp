// Low-overhead event tracing with Chrome trace_event JSON export.
//
// Architecture: one bounded ring buffer per writing thread, registered
// in a global collector. Each buffer has exactly one writer at a time
// (the thread holding it), so emission is lock-free by construction --
// a slot write plus one release store of the write index; no CAS, no
// mutex on the hot path. When a buffer wraps, the oldest events are
// overwritten and counted as dropped (observability must never stall
// the simulation). A thread that exits parks its ring, events
// retained, and the next thread to record takes it over, so a process
// that keeps starting short-lived workers (one pool per sweep) holds
// as many rings as it has concurrent writers, not one per thread ever
// started.
//
// Export produces Chrome trace_event JSON ("X" complete spans, "i"
// instants) that loads directly in Perfetto / chrome://tracing, one
// tid per ring: threads that shared a ring in turn share its tid.
// Timestamps are microseconds on a steady clock relative to process
// trace start; simulation time rides along as an event argument.
//
// Event name/category/argument-name pointers MUST be string literals
// (or otherwise outlive the export) -- events store the pointer only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace ds::telemetry {

/// Verbosity gate: events carry the level they were emitted at; the
/// collector records an event only when its level is at or below the
/// current level. kDecision covers controller decisions (ladder moves,
/// boost start/stop, safe-state transitions, faults); kSpan adds
/// scoped spans of the major phases; kVerbose adds per-step/per-call
/// sites in the hot loops.
enum class TraceLevel : int {
  kOff = 0,
  kDecision = 1,
  kSpan = 2,
  kVerbose = 3,
};

void SetTraceLevel(TraceLevel level);
TraceLevel GetTraceLevel();

namespace internal {
inline std::atomic<int>& TraceLevelFlag() {
  static std::atomic<int> level{static_cast<int>(TraceLevel::kSpan)};
  return level;
}
}  // namespace internal

/// True when an event at `level` should be recorded now.
inline bool TraceOn(TraceLevel level) {
  return Enabled() &&
         static_cast<int>(level) <=
             internal::TraceLevelFlag().load(std::memory_order_relaxed);
}

/// POD trace event. Phases: 'X' = complete span, 'i' = instant.
struct TraceEvent {
  const char* name = nullptr;  // string literal
  const char* cat = nullptr;   // string literal
  char phase = 'i';
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  const char* arg0_name = nullptr;  // optional numeric args
  double arg0 = 0.0;
  const char* arg1_name = nullptr;
  double arg1 = 0.0;
};

/// Bounded single-writer ring buffer. Emission never allocates and
/// never blocks; overflow overwrites the oldest events and counts them
/// in dropped(). Snapshot() is safe from other threads (it may observe
/// a slightly stale tail, never a torn index).
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void Emit(const TraceEvent& event);

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all retained events and zeroes the drop counter. Only safe
  /// when the owning thread is not emitting (tests, between runs).
  void Clear();

 private:
  std::vector<TraceEvent> ring_;
  std::atomic<std::uint64_t> written_{0};
};

/// Events per ring (~4.5 MiB). Rings are recycled across threads, so
/// the process holds one per thread that is recording at the same time.
inline constexpr std::size_t kTraceBufferCapacity = 65536;

/// The calling thread's ring: on first use it takes over an idle ring
/// left by an exited thread, or registers a new one. The ring returns
/// to the idle list, events retained, when the thread exits.
TraceBuffer& ThreadTraceBuffer();

/// Microseconds since trace start on the steady clock.
std::int64_t TraceNowUs();

/// Records an instant event if TraceOn(level).
void EmitInstant(const char* cat, const char* name, TraceLevel level,
                 const char* arg0_name = nullptr, double arg0 = 0.0,
                 const char* arg1_name = nullptr, double arg1 = 0.0);

/// RAII span: emits one 'X' complete event covering its lifetime.
/// Costs two clock reads when active, one branch when not. The second
/// argument pair exists for correlation fields (job index + attempt),
/// so Perfetto can line a retry chain up against its chaos injections.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, TraceLevel level,
             const char* arg0_name = nullptr, double arg0 = 0.0,
             const char* arg1_name = nullptr, double arg1 = 0.0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  const char* arg0_name_;
  double arg0_;
  const char* arg1_name_;
  double arg1_;
  std::int64_t start_us_;
  bool active_;
};

/// Sum of dropped events across all registered buffers.
std::uint64_t TotalDroppedEvents();

/// Total retained events across all registered buffers.
std::size_t TotalTraceEvents();

/// Writes all retained events (merged across threads, sorted by
/// timestamp) as Chrome trace_event JSON.
void WriteChromeTrace(std::ostream& os);

/// File variant; throws std::runtime_error on I/O failure.
void WriteChromeTrace(const std::string& path);

/// Clears every registered buffer. Only safe when no thread is
/// emitting (tests, between CLI runs).
void ClearTrace();

}  // namespace ds::telemetry
