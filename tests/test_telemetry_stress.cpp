// Multi-threaded telemetry stress: hammers the lock-free per-thread
// trace rings and the shared MetricsRegistry from many threads at once
// while a reader thread concurrently snapshots. Functionally it checks
// event/count conservation; under -fsanitize=thread (the Tsan build
// type) it is the race detector for the telemetry subsystem.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/scoped.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/contracts.hpp"

namespace ds::telemetry {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kEventsPerThread = 4000;

class TelemetryStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    old_level_ = GetTraceLevel();
    SetEnabled(true);
    SetTraceLevel(TraceLevel::kVerbose);
    ClearTrace();
  }
  void TearDown() override {
    ClearTrace();
    SetTraceLevel(old_level_);
    SetEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
  TraceLevel old_level_ = TraceLevel::kSpan;
};

TEST_F(TelemetryStressTest, ConcurrentCountersGaugesHistograms) {
  Counter& counter = Registry().GetCounter("stress.counter");
  Gauge& gauge = Registry().GetGauge("stress.gauge_max");
  Histogram& hist = Registry().GetHistogram("stress.hist");
  const std::uint64_t counter_before = counter.value();
  const std::uint64_t hist_before = hist.count();

  std::atomic<bool> stop_reader{false};
  // Reader thread: concurrent snapshots must never tear or crash.
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const std::vector<MetricRow> rows = Registry().Snapshot();
      ASSERT_FALSE(rows.empty());
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &counter, &gauge, &hist] {
      for (std::size_t i = 0; i < kEventsPerThread; ++i) {
        counter.Add(1);
        gauge.UpdateMax(static_cast<double>(t * kEventsPerThread + i));
        hist.Record(static_cast<double>(i % 100));
        // Creating the same metrics from many threads must also be
        // safe and return the same stable object.
        Counter& same = Registry().GetCounter("stress.counter");
        ASSERT_EQ(&same, &counter);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter.value(), counter_before + kThreads * kEventsPerThread);
  EXPECT_EQ(hist.count(), hist_before + kThreads * kEventsPerThread);
  EXPECT_EQ(gauge.value(),
            static_cast<double>(kThreads * kEventsPerThread - 1));
}

TEST_F(TelemetryStressTest, ConcurrentTraceRingsWithConcurrentSnapshot) {
  std::atomic<bool> stop_reader{false};
  std::atomic<std::uint64_t> emitted{0};

  // Reader thread: TotalTraceEvents/TotalDroppedEvents walk every
  // registered ring while the owners keep writing.
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      (void)TotalTraceEvents();
      (void)TotalDroppedEvents();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &emitted] {
      // Taken on first use: a fresh ring, or one an exited thread
      // left behind with its events retained.
      TraceBuffer& ring = ThreadTraceBuffer();
      const std::uint64_t before = ring.size() + ring.dropped();
      for (std::size_t i = 0; i < kEventsPerThread; ++i) {
        EmitInstant("stress", "instant", TraceLevel::kDecision, "i",
                    static_cast<double>(i));
        {
          ScopedSpan span("stress", "span", TraceLevel::kSpan, "t",
                          static_cast<double>(t));
        }
        emitted.fetch_add(2, std::memory_order_relaxed);
      }
      // A ring has exactly one writer at a time; what this thread
      // added must be exact.
      ASSERT_EQ(ring.size() + ring.dropped() - before,
                2 * kEventsPerThread);
    });
  }
  for (std::thread& w : writers) w.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  // Conservation across all rings: everything emitted is either
  // retained or counted as dropped. (This test's rings are cleared in
  // SetUp, and gtest runs tests in this binary serially, so no other
  // writer interleaves.)
  EXPECT_EQ(TotalTraceEvents() + TotalDroppedEvents(),
            emitted.load(std::memory_order_relaxed));
}

TEST_F(TelemetryStressTest, ContractViolationCountingIsThreadSafe) {
  Counter& violations = Registry().GetCounter("contracts.violations");
  const std::uint64_t before = violations.value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < 200; ++i) {
        try {
          ds::contracts::internal::Raise("DS_REQUIRE", "stress", __FILE__,
                                         __LINE__, "concurrent raise");
        } catch (const ds::ContractViolation&) {
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.value(), before + kThreads * 200);
}

}  // namespace
}  // namespace ds::telemetry
