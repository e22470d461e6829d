// Timing helpers and the instrumentation macros used at call sites.
//
// Every macro is gated at run time by telemetry::Enabled() (one relaxed
// atomic load + branch). The disabled cost at a call site is therefore
// a single predictable branch, which keeps the <2% overhead budget of
// the closed-loop benches with room to spare.
#pragma once

#include <chrono>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ds::telemetry {

/// Plain stopwatch, always on (no telemetry gate). Used by the bench
/// harness for per-figure wall time and by RunSummary.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer recording its lifetime (in microseconds) into a
/// registry histogram. Pass nullptr to disarm (the macro below does
/// this when telemetry is off, so the clock is never read).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_us_(0) {
    if (histogram_ != nullptr) start_us_ = TraceNowUs();
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr)
      histogram_->Record(static_cast<double>(TraceNowUs() - start_us_));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::int64_t start_us_;
};

}  // namespace ds::telemetry

#define DS_TELEM_CAT_(a, b) a##b
#define DS_TELEM_CAT(a, b) DS_TELEM_CAT_(a, b)

/// Bumps counter `name` by `n`. `name` must be a string literal.
#define DS_TELEM_COUNT(name, n)                                            \
  do {                                                                     \
    if (ds::telemetry::Enabled()) {                                        \
      static ds::telemetry::Counter& DS_TELEM_CAT(ds_telem_c_, __LINE__) = \
          ds::telemetry::Registry().GetCounter(name);                      \
      DS_TELEM_CAT(ds_telem_c_, __LINE__).Add(n);                          \
    }                                                                      \
  } while (0)

/// Sets gauge `name` to `v`.
#define DS_TELEM_GAUGE_SET(name, v)                                        \
  do {                                                                     \
    if (ds::telemetry::Enabled()) {                                        \
      static ds::telemetry::Gauge& DS_TELEM_CAT(ds_telem_g_, __LINE__) =   \
          ds::telemetry::Registry().GetGauge(name);                        \
      DS_TELEM_CAT(ds_telem_g_, __LINE__).Set(v);                          \
    }                                                                      \
  } while (0)

/// Raises gauge `name` to `v` if larger (running max).
#define DS_TELEM_GAUGE_MAX(name, v)                                        \
  do {                                                                     \
    if (ds::telemetry::Enabled()) {                                        \
      static ds::telemetry::Gauge& DS_TELEM_CAT(ds_telem_g_, __LINE__) =   \
          ds::telemetry::Registry().GetGauge(name);                        \
      DS_TELEM_CAT(ds_telem_g_, __LINE__).UpdateMax(v);                    \
    }                                                                      \
  } while (0)

/// Times the rest of the enclosing scope into histogram `name`
/// (microseconds, default time buckets).
#define DS_TELEM_TIMER(name)                                              \
  ds::telemetry::Histogram* DS_TELEM_CAT(ds_telem_h_, __LINE__) =         \
      ds::telemetry::Enabled()                                            \
          ? &ds::telemetry::Registry().GetHistogram(name)                 \
          : nullptr;                                                      \
  ds::telemetry::ScopedTimer DS_TELEM_CAT(ds_telem_t_, __LINE__)(         \
      DS_TELEM_CAT(ds_telem_h_, __LINE__))

/// Traces the rest of the enclosing scope as a complete span.
#define DS_TELEM_SPAN(cat, name, level)                                   \
  ds::telemetry::ScopedSpan DS_TELEM_CAT(ds_telem_s_, __LINE__)(          \
      cat, name, level)

/// Span with one numeric argument.
#define DS_TELEM_SPAN_ARG(cat, name, level, arg_name, arg_value)          \
  ds::telemetry::ScopedSpan DS_TELEM_CAT(ds_telem_s_, __LINE__)(          \
      cat, name, level, arg_name, arg_value)

/// Span with two numeric arguments (correlation fields: job + attempt).
#define DS_TELEM_SPAN_ARG2(cat, name, level, arg0_name, arg0_value,       \
                           arg1_name, arg1_value)                         \
  ds::telemetry::ScopedSpan DS_TELEM_CAT(ds_telem_s_, __LINE__)(          \
      cat, name, level, arg0_name, arg0_value, arg1_name, arg1_value)
