// SweepService tests: admission control (400 on unparsable specs, 429
// with Retry-After on a full queue / per-client cap / exhausted client
// slots), FIFO scheduling + cancel of a queued sweep, the
// byte-identity guarantee (streamed CSV == batch ResultSink output),
// journal-dir recovery of unfinished and terminal sweeps, and the HTTP
// surface (202/400/404/410/413, chunked row streaming) over a real
// loopback server.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "service/sweep_service.hpp"
#include "telemetry/json.hpp"

namespace ds::service {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// An estimate spec with 2 apps x `freqs` frequencies = 2*freqs jobs.
/// `name` salts the fingerprint so distinct tests get distinct ids.
std::string EstimateSpec(const std::string& name, int freqs) {
  std::string axis = "[";
  for (int i = 0; i < freqs; ++i) {
    if (i > 0) axis += ", ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f", 2.0 + 0.05 * i);
    axis += buf;
  }
  axis += "]";
  return "{\"name\": \"" + name +
         "\", \"kind\": \"estimate\", \"seed\": 7, "
         "\"base\": {\"node\": \"16nm\", \"tdp_w\": 150, \"threads\": 8}, "
         "\"axes\": {\"app\": [\"x264\", \"ferret\"], \"freq_ghz\": " +
         axis + "}}";
}

/// The batch-mode CSV for a spec: what `darksilicon sweep` would write.
std::string BatchCsv(const std::string& spec_text) {
  runtime::SweepSpec spec = runtime::SweepSpec::FromJsonText(spec_text);
  const std::vector<runtime::SweepJob> jobs = spec.Jobs();
  const runtime::ResultSink sink(spec, jobs);
  runtime::SweepOptions options;
  options.threads = 2;
  runtime::SweepEngine engine(std::move(spec), options);
  std::ostringstream csv;
  sink.WriteCsv(csv, engine.Run().results);
  return csv.str();
}

/// Blocks until the sweep's stream ends, returning every byte.
std::string DrainRows(SweepService& service, const std::string& id) {
  std::string out;
  bool found = false;
  while (service.ReadRows(id, out.size(), &out, &found)) {
  }
  EXPECT_TRUE(found) << id;
  return out;
}

SweepStatusSnapshot WaitTerminal(SweepService& service,
                                 const std::string& id) {
  SweepStatusSnapshot status;
  while (true) {
    EXPECT_TRUE(service.GetStatus(id, &status)) << id;
    if (status.state != SweepState::kQueued &&
        status.state != SweepState::kRunning)
      return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

SweepService::Options SmallOptions() {
  SweepService::Options options;
  options.engine_threads = 2;
  return options;
}

// ------------------------------------------------------- admission

TEST(SweepServiceTest, RejectsUnparsableSpecWith400) {
  SweepService service(SmallOptions());
  for (const char* bad : {"{not json", "", "{}", "[1,2,3]"}) {
    const SweepService::Admission verdict = service.Submit(bad, "alice");
    EXPECT_FALSE(verdict.accepted) << bad;
    EXPECT_EQ(verdict.http_status, 400) << bad;
    EXPECT_FALSE(verdict.error.empty()) << bad;
  }
  EXPECT_TRUE(service.List().empty());
  service.Stop();
}

TEST(SweepServiceTest, FullQueueAnswers429WithRetryAfter) {
  SweepService::Options options = SmallOptions();
  options.queue_depth = 0;  // every submit finds the queue full
  SweepService service(options);
  const SweepService::Admission verdict =
      service.Submit(EstimateSpec("q", 2), "alice");
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.http_status, 429);
  EXPECT_GE(verdict.retry_after_s, 1.0);
  EXPECT_NE(verdict.error.find("queue"), std::string::npos);
  service.Stop();
}

TEST(SweepServiceTest, PerClientCapAnswers429) {
  SweepService::Options options = SmallOptions();
  options.per_client = 0;  // any client is already at its cap
  SweepService service(options);
  const SweepService::Admission verdict =
      service.Submit(EstimateSpec("pc", 2), "alice");
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.http_status, 429);
  EXPECT_NE(verdict.error.find("per-client"), std::string::npos);
  service.Stop();
}

TEST(SweepServiceTest, ClientSlotsExhaustedAnswers429) {
  SweepService::Options options = SmallOptions();
  options.max_clients = 0;  // no client slot exists
  SweepService service(options);
  const SweepService::Admission verdict =
      service.Submit(EstimateSpec("cs", 2), "alice");
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.http_status, 429);
  EXPECT_NE(verdict.error.find("client slots"), std::string::npos);
  service.Stop();
}

// ------------------------------------------- lifecycle + streaming

TEST(SweepServiceTest, StreamedRowsAreByteIdenticalToBatchCsv) {
  const std::string spec = EstimateSpec("ident", 4);
  SweepService service(SmallOptions());
  const SweepService::Admission verdict = service.Submit(spec, "alice");
  ASSERT_TRUE(verdict.accepted) << verdict.error;
  EXPECT_EQ(verdict.http_status, 202);
  const std::string streamed = DrainRows(service, verdict.id);
  EXPECT_EQ(streamed, BatchCsv(spec));
  const SweepStatusSnapshot status = WaitTerminal(service, verdict.id);
  EXPECT_EQ(status.state, SweepState::kDone);
  EXPECT_EQ(status.jobs_total, 8u);
  EXPECT_EQ(status.jobs_done, 8u);
  EXPECT_EQ(status.row_bytes, streamed.size());
  EXPECT_EQ(status.client, "alice");
  EXPECT_EQ(status.name, "ident");
  service.Stop();
}

// The header goes out when the sweep starts, so six skipped leading
// rows stream as they finish, and the stream still equals the batch
// file byte for byte.
TEST(SweepServiceTest, SkippedLeadingRowsStreamByteIdentical) {
  std::ifstream in(std::string(DS_EXAMPLES_DIR) + "/sweep_boost.json");
  ASSERT_TRUE(in.good());
  std::ostringstream spec;
  spec << in.rdbuf();
  SweepService service(SmallOptions());
  const SweepService::Admission verdict = service.Submit(spec.str(), "carol");
  ASSERT_TRUE(verdict.accepted) << verdict.error;
  const std::string streamed = DrainRows(service, verdict.id);
  EXPECT_EQ(streamed, BatchCsv(spec.str()));
  EXPECT_NE(streamed.find("\n5,skipped,1,canneal,12,,,,,,,\n6,ok,"),
            std::string::npos);
  EXPECT_EQ(WaitTerminal(service, verdict.id).state, SweepState::kDone);
  service.Stop();
}

TEST(SweepServiceTest, EventStreamRecordsTheLifecycle) {
  SweepService service(SmallOptions());
  const SweepService::Admission verdict =
      service.Submit(EstimateSpec("ev", 2), "bob");
  ASSERT_TRUE(verdict.accepted);
  std::string events;
  bool found = false;
  while (service.ReadEvents(verdict.id, events.size(), &events, &found)) {
  }
  ASSERT_TRUE(found);
  EXPECT_NE(events.find("\"queued\""), std::string::npos);
  EXPECT_NE(events.find("\"started\""), std::string::npos);
  EXPECT_NE(events.find("\"done\""), std::string::npos);
  EXPECT_NE(events.find("\"bob\""), std::string::npos);
  service.Stop();
}

TEST(SweepServiceTest, UnknownIdsAreReported) {
  SweepService service(SmallOptions());
  SweepStatusSnapshot status;
  EXPECT_FALSE(service.GetStatus("s999-00000000", &status));
  EXPECT_FALSE(service.Cancel("s999-00000000"));
  std::string out;
  bool found = true;
  EXPECT_FALSE(service.ReadRows("s999-00000000", 0, &out, &found));
  EXPECT_FALSE(found);
  service.Stop();
}

TEST(SweepServiceTest, CancelsAQueuedSweepWithoutRunningIt) {
  SweepService service(SmallOptions());
  // A long first sweep keeps the runner busy while the second waits.
  const SweepService::Admission busy =
      service.Submit(EstimateSpec("busy", 64), "alice");
  ASSERT_TRUE(busy.accepted);
  const SweepService::Admission queued =
      service.Submit(EstimateSpec("victim", 4), "bob");
  ASSERT_TRUE(queued.accepted);

  EXPECT_TRUE(service.Cancel(queued.id));
  const SweepStatusSnapshot status = WaitTerminal(service, queued.id);
  EXPECT_EQ(status.state, SweepState::kCancelled);
  EXPECT_EQ(status.jobs_done, 0u);
  // Cancelling a terminal sweep is an idempotent no-op.
  EXPECT_TRUE(service.Cancel(queued.id));
  // The busy sweep is unaffected.
  EXPECT_EQ(WaitTerminal(service, busy.id).state, SweepState::kDone);
  service.Stop();
}

// -------------------------------------------------------- recovery

TEST(SweepServiceTest, RecoversUnfinishedSweepFromJournalDir) {
  const std::string dir = FreshDir("svc_recover");
  const std::string spec = EstimateSpec("lazarus", 3);
  // A prior life accepted this sweep (spec + meta on disk) but died
  // before finishing it: no .done marker.
  WriteFile(dir + "/s007-deadbeef.spec.json", spec);
  WriteFile(dir + "/s007-deadbeef.meta.json",
            "{\"id\": \"s007-deadbeef\", \"client\": \"carol\", "
            "\"seq\": 7}\n");

  SweepService::Options options = SmallOptions();
  options.journal_dir = dir;
  SweepService service(options);
  EXPECT_EQ(service.recovered(), 1u);

  // The recovered sweep runs to completion with its original identity
  // and the stream still matches batch output byte for byte.
  EXPECT_EQ(DrainRows(service, "s007-deadbeef"), BatchCsv(spec));
  const SweepStatusSnapshot status =
      WaitTerminal(service, "s007-deadbeef");
  EXPECT_EQ(status.state, SweepState::kDone);
  EXPECT_EQ(status.client, "carol");
  // Sequence numbering continues after the recovered sweep.
  const SweepService::Admission next =
      service.Submit(EstimateSpec("after", 2), "carol");
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(next.id.substr(0, 5), "s008-");
  service.Stop();
  // Completion left a terminal marker for the next life. (Checked
  // after Stop(): the marker is written by the runner thread just
  // after the state flips terminal, and Stop() joins that thread.)
  EXPECT_TRUE(std::filesystem::exists(dir + "/s007-deadbeef.done"));
}

TEST(SweepServiceTest, PriorLifeTerminalSweepIsListedWithoutRows) {
  const std::string dir = FreshDir("svc_terminal");
  WriteFile(dir + "/s003-cafe0000.spec.json", EstimateSpec("old", 2));
  WriteFile(dir + "/s003-cafe0000.meta.json",
            "{\"id\": \"s003-cafe0000\", \"client\": \"dave\", "
            "\"seq\": 3}\n");
  WriteFile(dir + "/s003-cafe0000.done", "failed\nboom");

  SweepService::Options options = SmallOptions();
  options.journal_dir = dir;
  SweepService service(options);
  EXPECT_EQ(service.recovered(), 0u);  // terminal: not re-queued

  SweepStatusSnapshot status;
  ASSERT_TRUE(service.GetStatus("s003-cafe0000", &status));
  EXPECT_EQ(status.state, SweepState::kFailed);
  EXPECT_EQ(status.error, "boom");
  EXPECT_FALSE(status.rows_retained);
  // The rows died with the prior process.
  std::string out;
  bool found = true;
  EXPECT_FALSE(service.ReadRows("s003-cafe0000", 0, &out, &found));
  EXPECT_FALSE(found);
  service.Stop();
}

// ------------------------------------------------------------ HTTP

TEST(SweepServiceHttpTest, SubmitStreamStatusAndErrorsOverHttp) {
  const std::string spec = EstimateSpec("http", 3);
  SweepService service(SmallOptions());
  net::HttpServer server(service.HttpHandler(), net::HttpServer::Options{});
  const std::uint16_t port = server.port();

  net::FetchOptions as_alice;
  as_alice.headers.emplace_back("X-Client", "alice");
  const net::ClientResponse accepted =
      net::Fetch(port, "POST", "/v1/sweeps", spec, as_alice);
  ASSERT_EQ(accepted.status_code, 202) << accepted.body;
  const telemetry::JsonValue body = telemetry::ParseJson(accepted.body);
  const std::string id = body.Find("id")->str;

  // The chunked row stream reassembles to the batch CSV exactly.
  const net::ClientResponse rows =
      net::Fetch(port, "GET", "/v1/sweeps/" + id + "/rows");
  EXPECT_EQ(rows.status_code, 200);
  EXPECT_EQ(rows.body, BatchCsv(spec));

  const net::ClientResponse status =
      net::Fetch(port, "GET", "/v1/sweeps/" + id + "/status");
  EXPECT_EQ(status.status_code, 200);
  const telemetry::JsonValue status_json =
      telemetry::ParseJson(status.body);
  EXPECT_EQ(status_json.Find("state")->str, "done");
  EXPECT_EQ(status_json.Find("client")->str, "alice");

  // Malformed and empty spec bodies: 400 with a JSON error body.
  for (const char* bad : {"{oops", ""}) {
    const net::ClientResponse r =
        net::Fetch(port, "POST", "/v1/sweeps", bad);
    EXPECT_EQ(r.status_code, 400) << bad;
    EXPECT_NE(r.Header("content-type").find("application/json"),
              std::string_view::npos);
    EXPECT_FALSE(telemetry::ParseJson(r.body).Find("error")->str.empty());
  }

  // Unknown routes and unknown sweep ids.
  EXPECT_EQ(net::Fetch(port, "GET", "/v1/nope").status_code, 404);
  EXPECT_EQ(
      net::Fetch(port, "GET", "/v1/sweeps/s999-00000000/rows").status_code,
      404);
  EXPECT_EQ(
      net::Fetch(port, "DELETE", "/v1/sweeps/s999-00000000").status_code,
      404);

  service.Stop();
  server.Stop();
}

TEST(SweepServiceHttpTest, OversizedSpecBodyAnswers413) {
  SweepService service(SmallOptions());
  net::HttpServer::Options options;
  options.max_body_kb = 1;
  net::HttpServer server(service.HttpHandler(), options);
  const net::ClientResponse r = net::Fetch(
      server.port(), "POST", "/v1/sweeps", std::string(4096, '{'));
  EXPECT_EQ(r.status_code, 413);
  service.Stop();
  server.Stop();
}

TEST(SweepServiceHttpTest, PriorLifeRowsAnswer410Gone) {
  const std::string dir = FreshDir("svc_http_gone");
  WriteFile(dir + "/s002-feed0000.spec.json", EstimateSpec("gone", 2));
  WriteFile(dir + "/s002-feed0000.done", "done");

  SweepService::Options options = SmallOptions();
  options.journal_dir = dir;
  SweepService service(options);
  net::HttpServer server(service.HttpHandler(), net::HttpServer::Options{});
  const net::ClientResponse r =
      net::Fetch(server.port(), "GET", "/v1/sweeps/s002-feed0000/rows");
  EXPECT_EQ(r.status_code, 410);
  service.Stop();
  server.Stop();
}

TEST(SweepServiceHttpTest, ConcurrentClientsEachStreamByteIdenticalRows) {
  SweepService::Options options = SmallOptions();
  options.queue_depth = 32;
  options.per_client = 4;
  SweepService service(options);
  net::HttpServer server(service.HttpHandler(), net::HttpServer::Options{});
  const std::uint16_t port = server.port();

  constexpr int kClients = 6;
  std::vector<std::string> specs;
  std::vector<std::string> expected;
  specs.reserve(kClients);
  expected.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    specs.push_back(EstimateSpec("multi" + std::to_string(c), 2 + c % 3));
    expected.push_back(BatchCsv(specs.back()));
  }

  std::vector<std::string> streamed(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      net::FetchOptions as_client;
      as_client.headers.emplace_back("X-Client",
                                     "tenant-" + std::to_string(c));
      const net::ClientResponse accepted =
          net::Fetch(port, "POST", "/v1/sweeps", specs[c], as_client);
      statuses[c] = accepted.status_code;
      if (accepted.status_code != 202) return;
      const std::string id =
          telemetry::ParseJson(accepted.body).Find("id")->str;
      const net::ClientResponse rows =
          net::Fetch(port, "GET", "/v1/sweeps/" + id + "/rows");
      if (rows.status_code == 200) streamed[c] = rows.body;
    });
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(statuses[c], 202) << "client " << c;
    EXPECT_EQ(streamed[c], expected[c]) << "client " << c;
  }
  service.Stop();
  server.Stop();
}

}  // namespace
}  // namespace ds::service
