// Observability-plane tests: event-bus publish/drop/flush accounting
// under a multi-threaded hammer, shutdown flush ordering (bus_close is
// last and audits written == lines), the event-file and OpenMetrics
// validators on both good and corrupted input, heartbeat cadence and
// status-line rendering, the /metrics HTTP endpoint end-to-end over a
// real socket, and the engine-level guarantee that a sweep's event
// stream reconstructs its SweepStats exactly while result rows stay
// byte-identical with the whole plane on or off.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_http.hpp"
#include "telemetry/telemetry.hpp"

namespace ds::telemetry {
namespace {

std::size_t CountLines(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1))
    ++n;
  return n;
}

TEST(EventBusTest, WritesJsonLinesWithCorrelationFields) {
  std::ostringstream out;
  {
    EventBus bus(out);
    Event e = MakeEvent(EventKind::kRetry, /*job=*/3, /*attempt=*/2);
    e.model_hash = 0xabcdef0123456789ull;
    e.AddField("wait_ms", 12.5);
    e.SetDetail("chaos: injected transient job failure");
    EXPECT_TRUE(bus.Publish(e));
    bus.Close();
    const EventBusStats s = bus.stats();
    EXPECT_EQ(s.published, 1u);
    EXPECT_EQ(s.written, 1u);
    EXPECT_EQ(s.dropped, 0u);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"ev\":\"retry\""), std::string::npos);
  EXPECT_NE(text.find("\"job\":3"), std::string::npos);
  EXPECT_NE(text.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(text.find("\"model_hash\":\"abcdef0123456789\""),
            std::string::npos);
  EXPECT_NE(text.find("\"wait_ms\":12.5"), std::string::npos);
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::string error;
  EXPECT_TRUE(ValidateEventFile(text, &events, &dropped, &error)) << error;
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(dropped, 0u);
}

TEST(EventBusTest, BusCloseIsLastAndAuditsEveryLine) {
  std::ostringstream out;
  EventBus bus(out);
  for (int i = 0; i < 10; ++i)
    bus.Publish(MakeEvent(EventKind::kScheduled, i));
  bus.Close();
  const std::string text = out.str();
  // Last line is the bus_close record.
  const std::size_t last_line_start =
      text.rfind('\n', text.size() - 2) + 1;
  EXPECT_EQ(text.compare(last_line_start, 17, "{\"ev\":\"bus_close\""), 0)
      << text.substr(last_line_start);
  EXPECT_NE(text.find("\"written\":10"), std::string::npos);
}

TEST(EventBusTest, EightThreadHammerNeverLosesAccounting) {
  // Tiny ring so the hammer actually overflows: published == written +
  // dropped must hold exactly, and the file must still validate.
  std::ostringstream out;
  EventBus::Options opt;
  opt.capacity = 64;
  EventBus bus(out, opt);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, &accepted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Event e = MakeEvent(EventKind::kStarted, t * kPerThread + i, 1);
        if (bus.Publish(e)) accepted.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  bus.Close();
  const EventBusStats s = bus.stats();
  EXPECT_EQ(s.published, accepted.load());
  EXPECT_EQ(s.published + s.dropped,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.written, s.published);  // Close() drains everything queued
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::string error;
  EXPECT_TRUE(ValidateEventFile(out.str(), &events, &dropped, &error))
      << error;
  EXPECT_EQ(events, s.written);
  EXPECT_EQ(dropped, s.dropped);
}

TEST(EventBusTest, PublishAfterCloseCountsAsDropped) {
  std::ostringstream out;
  EventBus bus(out);
  bus.Publish(MakeEvent(EventKind::kRunStart));
  bus.Close();
  EXPECT_FALSE(bus.Publish(MakeEvent(EventKind::kRunEnd)));
  EXPECT_EQ(bus.stats().dropped, 1u);
  EXPECT_EQ(bus.stats().written, 1u);
}

TEST(EventBusTest, ConcurrentCloseIsSafeAndIdempotent) {
  std::ostringstream out;
  EventBus bus(out);
  bus.Publish(MakeEvent(EventKind::kRunStart));
  std::vector<std::thread> closers;
  closers.reserve(4);
  for (int i = 0; i < 4; ++i) closers.emplace_back([&bus] { bus.Close(); });
  for (std::thread& th : closers) th.join();
  // Exactly one bus_close record despite four concurrent Close()s.
  EXPECT_EQ(CountLines(out.str(), "\"ev\":\"bus_close\""), 1u);
}

TEST(EventBusTest, AmbientEmitIsNoOpWithoutBusAndRoutesWithOne) {
  ASSERT_EQ(ProcessEventBus(), nullptr);
  EXPECT_FALSE(EventsOn());
  Emit(MakeEvent(EventKind::kRunStart));  // must not crash

  std::ostringstream out;
  {
    EventBus bus(out);
    SetProcessEventBus(&bus);
    EXPECT_TRUE(EventsOn());
    Emit(MakeEvent(EventKind::kHeartbeat));
    SetProcessEventBus(nullptr);
    bus.Close();
  }
  EXPECT_FALSE(EventsOn());
  EXPECT_NE(out.str().find("\"ev\":\"heartbeat\""), std::string::npos);
}

TEST(EventBusTest, ValidatorRejectsCorruptStreams) {
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::string error;
  // Missing bus_close.
  EXPECT_FALSE(ValidateEventFile("{\"ev\":\"run_start\",\"ts_us\":1}\n",
                                 &events, &dropped, &error));
  // bus_close written-count disagrees with the line count.
  EXPECT_FALSE(ValidateEventFile(
      "{\"ev\":\"run_start\",\"ts_us\":1}\n"
      "{\"ev\":\"bus_close\",\"ts_us\":2,\"written\":7,\"dropped\":0}\n",
      &events, &dropped, &error));
  // Job-scoped kind without a job field.
  EXPECT_FALSE(ValidateEventFile(
      "{\"ev\":\"retry\",\"ts_us\":1}\n"
      "{\"ev\":\"bus_close\",\"ts_us\":2,\"written\":1,\"dropped\":0}\n",
      &events, &dropped, &error));
  // Unknown kind.
  EXPECT_FALSE(ValidateEventFile(
      "{\"ev\":\"wat\",\"ts_us\":1}\n"
      "{\"ev\":\"bus_close\",\"ts_us\":2,\"written\":1,\"dropped\":0}\n",
      &events, &dropped, &error));
  // Malformed JSON line.
  EXPECT_FALSE(ValidateEventFile("{nope\n", &events, &dropped, &error));
  EXPECT_NE(error.find("line"), std::string::npos);
}

TEST(HeartbeatTest, StatusLineRendersEverySignal) {
  HeartbeatSnapshot snap;
  snap.jobs_total = 70;
  snap.jobs_done = 42;
  snap.jobs_in_flight = 3;
  snap.jobs_quarantined = 1;
  const std::string line =
      HeartbeatReporter::StatusLine("fig05", snap, 618.25, 0.05);
  EXPECT_EQ(line,
            "[fig05] 42/70 done (3 in flight, 1 quarantined) | "
            "618.2 rows/s | ETA 0.05 s");
}

TEST(HeartbeatTest, BeatsAccumulateAndFinalLineIsNewlineTerminated) {
  std::ostringstream progress;
  std::atomic<std::size_t> done{0};
  HeartbeatReporter::Options opt;
  opt.period_ms = 5.0;
  opt.progress = &progress;
  opt.label = "obs";
  opt.emit_events = false;
  HeartbeatReporter hb(
      [&done] {
        HeartbeatSnapshot s;
        s.jobs_total = 10;
        s.jobs_done = done.load();
        return s;
      },
      opt);
  done.store(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  hb.Stop();
  hb.Stop();  // idempotent
  EXPECT_GE(hb.beats(), 2u);  // several periodic beats + the final one
  const std::string text = progress.str();
  EXPECT_NE(text.find('\r'), std::string::npos);
  EXPECT_NE(text.find("[obs] 10/10 done"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');  // only the final line ends the stream
  EXPECT_EQ(CountLines(text, "\n"), 1u);
}

TEST(HeartbeatTest, ConstructorValidatesSamplerAndPeriod) {
  HeartbeatReporter::Options opt;
  EXPECT_THROW(HeartbeatReporter(nullptr, opt), std::invalid_argument);
  opt.period_ms = 0.0;
  EXPECT_THROW(HeartbeatReporter([] { return HeartbeatSnapshot{}; }, opt),
               std::invalid_argument);
  opt.period_ms = 1e9;
  EXPECT_THROW(HeartbeatReporter([] { return HeartbeatSnapshot{}; }, opt),
               std::invalid_argument);
}

TEST(HeartbeatTest, PublishesHeartbeatEventsOnAmbientBus) {
  std::ostringstream events_out;
  {
    EventBus bus(events_out);
    SetProcessEventBus(&bus);
    {
      HeartbeatReporter::Options opt;
      opt.period_ms = 5.0;
      HeartbeatReporter hb([] {
        HeartbeatSnapshot s;
        s.jobs_total = 1;
        return s;
      }, opt);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }  // destructor stops + emits the final beat
    SetProcessEventBus(nullptr);
    bus.Close();
  }
  EXPECT_GE(CountLines(events_out.str(), "\"ev\":\"heartbeat\""), 1u);
}

TEST(OpenMetricsTest, DumpExposesAllThreeKindsAndValidates) {
  MetricsRegistry& reg = Registry();
  reg.GetCounter("obs.test.counter").Add(7);
  reg.GetGauge("obs.test-gauge").Set(2.5);
  Histogram& h = reg.GetHistogram("obs.test.hist", {1.0, 10.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Record(50.0);

  std::ostringstream os;
  reg.DumpOpenMetrics(os);
  const std::string text = os.str();
  // Dotted / dashed names sanitized and prefixed, counters suffixed.
  EXPECT_NE(text.find("# TYPE ds_obs_test_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("ds_obs_test_counter_total 7"), std::string::npos);
  EXPECT_NE(text.find("source metric 'obs.test.counter'"),
            std::string::npos);
  EXPECT_NE(text.find("ds_obs_test_gauge 2.5"), std::string::npos);
  // Histogram: cumulative buckets, +Inf == _count.
  EXPECT_NE(text.find("ds_obs_test_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ds_obs_test_hist_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ds_obs_test_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ds_obs_test_hist_count 3"), std::string::npos);
  // Terminates with # EOF and passes its own validator.
  EXPECT_EQ(text.compare(text.size() - 6, 6, "# EOF\n"), 0);
  std::string error;
  EXPECT_TRUE(ValidateOpenMetrics(text, &error)) << error;
}

TEST(OpenMetricsTest, ValidatorRejectsStructuralErrors) {
  std::string error;
  // No terminal EOF.
  EXPECT_FALSE(ValidateOpenMetrics(
      "# TYPE ds_x counter\nds_x_total 1\n", &error));
  // Counter sample without the _total suffix.
  EXPECT_FALSE(ValidateOpenMetrics(
      "# TYPE ds_x counter\nds_x 1\n# EOF\n", &error));
  // Histogram buckets not cumulative.
  EXPECT_FALSE(ValidateOpenMetrics(
      "# TYPE ds_h histogram\n"
      "ds_h_bucket{le=\"1\"} 5\n"
      "ds_h_bucket{le=\"+Inf\"} 3\n"
      "ds_h_sum 1\nds_h_count 3\n# EOF\n",
      &error));
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(ValidateOpenMetrics(
      "# TYPE ds_h histogram\n"
      "ds_h_bucket{le=\"+Inf\"} 3\n"
      "ds_h_sum 1\nds_h_count 4\n# EOF\n",
      &error));
  // Content after EOF.
  EXPECT_FALSE(ValidateOpenMetrics(
      "# EOF\nds_x_total 1\n", &error));
  // Sample for an undeclared family.
  EXPECT_FALSE(ValidateOpenMetrics("ds_y_total 1\n# EOF\n", &error));
}

/// Minimal blocking HTTP GET against 127.0.0.1:port (tests only).
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpTest, ServesMetricsHealthzAnd404OnEphemeralPort) {
  Registry().GetCounter("obs.http.counter").Add(1);
  MetricsHttpServer server;  // port 0: ephemeral
  ASSERT_NE(server.port(), 0);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"),
            std::string::npos);
  const std::size_t body_at = metrics.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string error;
  EXPECT_TRUE(ValidateOpenMetrics(metrics.substr(body_at + 4), &error))
      << error;

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
}

TEST(ModelHashTest, ContentHashIsStableNonzeroAndContentSensitive) {
  const thermal::Floorplan fp(4, 4, 2.0, 2.0);
  const thermal::Floorplan same(4, 4, 2.0, 2.0);
  const thermal::Floorplan other(8, 8, 2.0, 2.0);
  EXPECT_NE(runtime::ModelContentHash(fp), 0u);
  EXPECT_EQ(runtime::ModelContentHash(fp), runtime::ModelContentHash(same));
  EXPECT_NE(runtime::ModelContentHash(fp), runtime::ModelContentHash(other));
}

runtime::SweepSpec ObsSpec() {
  runtime::SweepSpec spec("obs", runtime::SweepKind::kTspCurve);
  spec.Set("node", "16nm");
  spec.Axis("cores", std::vector<double>{16, 32});
  spec.Axis("count", std::vector<double>{4, 8});
  return spec;
}

TEST(SweepObservabilityTest, EventStreamReconstructsStatsExactly) {
  std::ostringstream events_out;
  runtime::SweepOutcome out;
  {
    EventBus bus(events_out);
    runtime::SweepOptions opts;
    opts.threads = 2;
    opts.events = &bus;
    runtime::ModelCache cache;
    opts.cache = &cache;
    runtime::SweepEngine engine(ObsSpec(), opts);
    out = engine.Run();
    bus.Close();
  }
  const std::string text = events_out.str();
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::string error;
  ASSERT_TRUE(ValidateEventFile(text, &events, &dropped, &error)) << error;
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(CountLines(text, "\"ev\":\"run_start\""), 1u);
  EXPECT_EQ(CountLines(text, "\"ev\":\"run_end\""), 1u);
  EXPECT_EQ(CountLines(text, "\"ev\":\"scheduled\""), out.stats.jobs_total);
  EXPECT_EQ(CountLines(text, "\"ev\":\"completed\""),
            out.stats.jobs_executed);
  // One started per attempt; no retries in a clean run.
  EXPECT_EQ(CountLines(text, "\"ev\":\"started\""), out.stats.jobs_executed);
  EXPECT_EQ(CountLines(text, "\"ev\":\"retry\""), 0u);
}

TEST(SweepObservabilityTest, ChaosRetryChainIsFullyCorrelated) {
  std::ostringstream events_out;
  runtime::SweepOutcome out;
  {
    EventBus bus(events_out);
    runtime::SweepOptions opts;
    opts.threads = 1;
    opts.events = &bus;
    opts.job_retries = 2;
    opts.retry_backoff_ms = 0.1;
    opts.chaos.enabled = true;
    opts.chaos.fail_rate = 1.0;  // every attempt sabotaged
    opts.chaos.seed = 11;
    runtime::ModelCache cache;
    opts.cache = &cache;
    runtime::SweepEngine engine(ObsSpec(), opts);
    out = engine.Run();
    bus.Close();
  }
  const std::string text = events_out.str();
  ASSERT_EQ(out.stats.jobs_quarantined, out.stats.jobs_total);
  EXPECT_EQ(CountLines(text, "\"ev\":\"quarantined\""),
            out.stats.jobs_quarantined);
  EXPECT_EQ(CountLines(text, "\"ev\":\"retry\""),
            static_cast<std::size_t>(out.stats.retries_total));
  EXPECT_EQ(CountLines(text, "\"ev\":\"chaos_inject\""),
            3u * out.stats.jobs_total);  // 3 attempts per job, all sabotaged
  EXPECT_EQ(CountLines(text, "\"ev\":\"completed\""),
            out.stats.jobs_executed);
  EXPECT_EQ(CountLines(text, "\"detail\":\"quarantined\""),
            out.stats.jobs_quarantined);
}

// --summary-json is SweepStats and nothing else: every field parses
// back, in order, under its member name with the engine's value, and
// the telemetry switch moves nothing but wall time.
TEST(SweepObservabilityTest, SummaryJsonIsSweepStatsWithTelemetryOnOrOff) {
  const runtime::SweepSpec spec = runtime::SweepSpec::FromJsonText(R"({
    "name": "bt_summary", "kind": "boost_transient", "seed": 3,
    "base": {"node": "16nm", "duration_s": 0.02, "control_ms": 1.0},
    "axes": {"app": ["x264", "ferret"], "instances": [1, 2],
             "power_cap_w": [300, 500]}
  })");
  const bool was_enabled = Enabled();
  const auto run = [&spec](bool telemetry_on) {
    SetEnabled(telemetry_on);
    runtime::ModelCache cache;  // fresh, so cache counts match too
    runtime::SweepOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    opts.retry_backoff_ms = 0.0;
    // Seed 8 fails job 3's first attempt only: one scalar retry beside
    // a cohort of the other seven jobs.
    opts.chaos.enabled = true;
    opts.chaos.fail_rate = 0.2;
    opts.chaos.seed = 8;
    opts.chaos.max_faulty_attempts = 1;
    const runtime::SweepStats stats =
        runtime::SweepEngine(spec, opts).Run().stats;
    std::ostringstream os;
    runtime::WriteSummaryJson(os, stats);
    const JsonValue doc = ParseJson(os.str());
    EXPECT_TRUE(doc.is_object());
    std::size_t i = 0;
    stats.ForEachField([&](const char* name, auto value) {
      ASSERT_LT(i, doc.object.size()) << name;
      EXPECT_EQ(doc.object[i].first, name);
      EXPECT_EQ(doc.object[i].second.number, static_cast<double>(value))
          << name;
      ++i;
    });
    EXPECT_EQ(i, doc.object.size());
    return std::make_pair(stats, doc);
  };
  const auto [stats, off] = run(false);
  const JsonValue on = run(true).second;
  SetEnabled(was_enabled);

  EXPECT_EQ(stats.jobs_retried, 1u);
  EXPECT_EQ(stats.retries_total, 1u);
  EXPECT_EQ(stats.batch_cohorts, 1u);
  EXPECT_EQ(stats.batch_cohort_members, 7u);
  ASSERT_EQ(off.object.size(), on.object.size());
  for (std::size_t i = 0; i < off.object.size(); ++i) {
    EXPECT_EQ(off.object[i].first, on.object[i].first);
    if (off.object[i].first == "wall_s") continue;
    EXPECT_EQ(off.object[i].second.number, on.object[i].second.number)
        << off.object[i].first;
  }
}

TEST(SweepObservabilityTest, ResultRowsAreByteIdenticalWithPlaneOnOrOff) {
  const runtime::SweepSpec spec = ObsSpec();
  const runtime::ResultSink sink(spec, spec.Jobs());

  std::ostringstream plain_csv;
  {
    runtime::SweepOptions opts;
    opts.threads = 1;
    runtime::ModelCache cache;
    opts.cache = &cache;
    runtime::SweepEngine engine(spec, opts);
    sink.WriteCsv(plain_csv, engine.Run().results);
  }

  std::ostringstream observed_csv;
  std::ostringstream events_out;
  std::ostringstream progress;
  {
    EventBus bus(events_out);
    SetProcessEventBus(&bus);
    runtime::SweepOptions opts;
    opts.threads = 2;
    opts.progress_stream = &progress;
    opts.heartbeat_ms = 5.0;
    runtime::ModelCache cache;
    opts.cache = &cache;
    runtime::SweepEngine engine(spec, opts);
    sink.WriteCsv(observed_csv, engine.Run().results);
    SetProcessEventBus(nullptr);
    bus.Close();
  }
  EXPECT_EQ(plain_csv.str(), observed_csv.str());
  EXPECT_FALSE(progress.str().empty());
  EXPECT_GE(CountLines(events_out.str(), "\"ev\":\"heartbeat\""), 1u);
}

}  // namespace
}  // namespace ds::telemetry
