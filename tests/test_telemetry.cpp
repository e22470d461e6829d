#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/platform.hpp"
#include "faults/fault_injector.hpp"
#include "sim/chip_sim.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/scoped.hpp"
#include "telemetry/trace.hpp"

namespace ds::telemetry {
namespace {

/// Telemetry state is process-wide; every test that flips it on
/// restores a clean slate so the rest of the suite stays on the
/// fault-free (disabled) path.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    Registry().ResetValues();
    ClearTrace();
    SetTraceLevel(TraceLevel::kSpan);
  }
  void TearDown() override {
    SetEnabled(false);
    Registry().ResetValues();
    ClearTrace();
    SetTraceLevel(TraceLevel::kSpan);
  }
};

// ------------------------------------------------------------ registry

TEST_F(TelemetryTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, GaugeSetAndMax) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.UpdateMax(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.UpdateMax(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST_F(TelemetryTest, HistogramBucketsAndStats) {
  Histogram h({1.0, 10.0, 100.0});
  for (const double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 556.2, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  // Median lands in the first bucket (upper bound 1.0); p99 is in the
  // overflow bucket and reports the exact max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.3), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 500.0);
}

TEST_F(TelemetryTest, RegistryHandsOutStableReferences) {
  Counter& a = Registry().GetCounter("test.stable");
  a.Add(7);
  Counter& b = Registry().GetCounter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
  Registry().ResetValues();
  EXPECT_EQ(a.value(), 0u);  // same object, zeroed in place
}

TEST_F(TelemetryTest, SnapshotExpandsHistograms) {
  Registry().GetCounter("test.count").Add(3);
  Registry().GetHistogram("test.lat_us").Record(5.0);
  bool saw_counter = false, saw_p50 = false;
  for (const MetricRow& row : Registry().Snapshot()) {
    if (row.name == "test.count" && row.kind == "counter") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(row.value, 3.0);
    }
    if (row.name == "test.lat_us" && row.field == "p50") saw_p50 = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_p50);
}

TEST_F(TelemetryTest, WriteCsvRoundTrips) {
  Registry().GetCounter("test.csv_counter").Add(11);
  const std::string path = "test_telemetry_metrics.csv";
  Registry().WriteCsv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "name,kind,field,value");
  bool found = false;
  for (std::string line; std::getline(in, line);)
    if (line == "test.csv_counter,counter,value,11") found = true;
  EXPECT_TRUE(found);
  in.close();
  std::remove(path.c_str());
}

// ------------------------------------------------------------ macros

TEST_F(TelemetryTest, MacrosAreInertWhenDisabled) {
  ASSERT_FALSE(Enabled());
  DS_TELEM_COUNT("test.macro_count", 1);
  DS_TELEM_GAUGE_SET("test.macro_gauge", 9.0);
  { DS_TELEM_TIMER("test.macro_timer_us"); }
  EXPECT_EQ(Registry().GetCounter("test.macro_count").value(), 0u);
  EXPECT_DOUBLE_EQ(Registry().GetGauge("test.macro_gauge").value(), 0.0);
  EXPECT_EQ(Registry().GetHistogram("test.macro_timer_us").count(), 0u);
}

TEST_F(TelemetryTest, MacrosRecordWhenEnabled) {
  SetEnabled(true);
  DS_TELEM_COUNT("test.macro_count2", 2);
  DS_TELEM_GAUGE_MAX("test.macro_gauge2", 4.0);
  { DS_TELEM_TIMER("test.macro_timer2_us"); }
  EXPECT_EQ(Registry().GetCounter("test.macro_count2").value(), 2u);
  EXPECT_DOUBLE_EQ(Registry().GetGauge("test.macro_gauge2").value(), 4.0);
  EXPECT_EQ(Registry().GetHistogram("test.macro_timer2_us").count(), 1u);
}

// ------------------------------------------------------------ tracing

TEST_F(TelemetryTest, RingBufferWrapsAndCountsDrops) {
  TraceBuffer buf(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.name = "wrap";
    e.cat = "test";
    e.ts_us = i;
    buf.Emit(e);
  }
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.dropped(), 12u);
  const std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The last 8 events survive, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].ts_us, static_cast<std::int64_t>(12 + i));
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST_F(TelemetryTest, TraceLevelGatesEmission) {
  SetEnabled(true);
  SetTraceLevel(TraceLevel::kDecision);
  EmitInstant("test", "decision_event", TraceLevel::kDecision);
  EmitInstant("test", "verbose_event", TraceLevel::kVerbose);  // gated
  const std::vector<TraceEvent> events = ThreadTraceBuffer().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "decision_event");
}

// A ring outlives its thread but not its usefulness: threads started
// one after another hand the same ring on instead of each pinning a
// fresh 4.5 MiB one, and every span they recorded still exports.
TEST_F(TelemetryTest, ExitedThreadsHandTheirRingToTheNextThread) {
  SetEnabled(true);
  constexpr std::size_t kThreads = 64;
  for (std::size_t t = 0; t < kThreads; ++t)
    std::thread([] {
      const ScopedSpan span("test", "ring_reuse", TraceLevel::kSpan);
    }).join();

  std::ostringstream os;
  WriteChromeTrace(os);
  const JsonValue doc = ParseJson(os.str());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t spans = 0;
  std::set<double> tids;
  for (const JsonValue& e : events->array) {
    if (e.Find("name")->str != "ring_reuse") continue;
    ++spans;
    tids.insert(e.Find("tid")->number);
  }
  EXPECT_EQ(spans, kThreads);
  EXPECT_LE(tids.size(), 2u);
}

TEST_F(TelemetryTest, ChromeTraceParsesBack) {
  SetEnabled(true);
  SetTraceLevel(TraceLevel::kVerbose);
  {
    ScopedSpan span("test", "outer_span", TraceLevel::kSpan, "arg", 1.5);
    EmitInstant("test", "inner_instant", TraceLevel::kDecision, "x", 2.0,
                "y", 3.0);
  }
  std::ostringstream os;
  WriteChromeTrace(os);
  const std::string text = os.str();

  std::size_t num_events = 0;
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(text, &num_events, &error)) << error;
  EXPECT_EQ(num_events, 2u);

  const JsonValue doc = ParseJson(text);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_span = false, saw_instant = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    if (name->str == "outer_span") {
      saw_span = true;
      EXPECT_EQ(ph->str, "X");
      const JsonValue* dur = e.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->Find("arg"), nullptr);
      EXPECT_DOUBLE_EQ(args->Find("arg")->number, 1.5);
    }
    if (name->str == "inner_instant") {
      saw_instant = true;
      EXPECT_EQ(ph->str, "i");
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->Find("y"), nullptr);
      EXPECT_DOUBLE_EQ(args->Find("y")->number, 3.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST_F(TelemetryTest, JsonParserRejectsGarbage) {
  EXPECT_THROW(ParseJson("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(ParseJson("[1, 2"), std::runtime_error);
  std::size_t n = 0;
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": 5}", &n, &error));
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ bridge

TEST_F(TelemetryTest, FaultLogRecordsBridgeIntoTrace) {
  SetEnabled(true);
  SetTraceLevel(TraceLevel::kDecision);
  faults::FaultLog log;
  log.Record(1.25, faults::FaultEventKind::kInjected,
             faults::FaultKind::kSensorStuck, 3, 55.0, "test");
  log.Record(1.50, faults::FaultEventKind::kMitigated,
             faults::FaultKind::kSensorStuck, 3, 0.0, "test");
  EXPECT_EQ(Registry().GetCounter("faults.injected").value(), 1u);
  EXPECT_EQ(Registry().GetCounter("faults.mitigated").value(), 1u);
  const std::vector<TraceEvent> events = ThreadTraceBuffer().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].cat, "fault.injected");
  EXPECT_STREQ(events[0].name, "sensor-stuck");
  EXPECT_DOUBLE_EQ(events[0].arg0, 1.25);  // sim time rides as arg
  EXPECT_DOUBLE_EQ(events[0].arg1, 3.0);   // affected core
  EXPECT_STREQ(events[1].cat, "fault.mitigated");
}

// ------------------------------------------------------------ summary

TEST_F(TelemetryTest, RunSummaryPrintsAndCollects) {
  SetEnabled(true);
  Registry().GetCounter("thermal.kernel.propagator_steps").Add(123);
  RunSummary s;
  s.title = "unit test";
  s.sim_time_s = 1.0;
  s.epochs = 10;
  s.jobs_arrived = 4;
  s.peak_temp_c = 61.5;
  s.CollectTelemetry();
  EXPECT_EQ(s.propagator_steps, 123u);
  std::ostringstream os;
  s.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("unit test"), std::string::npos);
  EXPECT_NE(text.find("61.5"), std::string::npos);
  EXPECT_NE(text.find("123"), std::string::npos);
}

// ------------------------------------------------------- determinism

TEST_F(TelemetryTest, SimulationIsBitIdenticalWithTelemetryOn) {
  const arch::Platform& plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  sim::SimConfig cfg;
  cfg.duration_s = 0.3;
  cfg.arrival_rate = 1.0;
  cfg.seed = 7;
  const sim::ChipSimulator sim(plat, cfg);

  ASSERT_FALSE(Enabled());
  const sim::FullSimResult off = sim.Run();

  SetEnabled(true);
  SetTraceLevel(TraceLevel::kVerbose);
  const sim::FullSimResult on = sim.Run();

  // Telemetry reads clocks and bumps atomics only; it must never touch
  // an RNG, a solver input or a control decision.
  EXPECT_EQ(off.avg_gips, on.avg_gips);
  EXPECT_EQ(off.energy_j, on.energy_j);
  EXPECT_EQ(off.max_temp_c, on.max_temp_c);
  EXPECT_EQ(off.jobs_arrived, on.jobs_arrived);
  EXPECT_EQ(off.jobs_completed, on.jobs_completed);
  ASSERT_EQ(off.trace.size(), on.trace.size());
  for (std::size_t i = 0; i < off.trace.size(); ++i) {
    EXPECT_EQ(off.trace[i].gips, on.trace[i].gips);
    EXPECT_EQ(off.trace[i].power_w, on.trace[i].power_w);
    EXPECT_EQ(off.trace[i].peak_temp_c, on.trace[i].peak_temp_c);
  }
  EXPECT_GT(TotalTraceEvents(), 0u);
  EXPECT_GT(Registry().GetCounter("thermal.steady_solves").value(), 0u);
}

}  // namespace
}  // namespace ds::telemetry
