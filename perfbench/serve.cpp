// serve_mix: an in-process SweepService + HttpServer on loopback,
// driven as a closed loop by T tenants that each wait for their rows
// before submitting again, as `darksilicon submit` does.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "rig.hpp"
#include "service/sweep_service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace pb {

namespace {

// The loop issues a fixed number of submissions rather than running for
// a fixed time: the service's resident memory grows with every sweep it
// has run, so a fixed count keeps peak_rss_mb comparable across runs.
// 21 submissions per --seconds keeps a run near --seconds on a 4-core
// host and gives >= 210 first-row samples (>= 10 beyond p95) at 10 s.
constexpr double kSubmissionsPerSecond = 21.0;
constexpr std::size_t kMinLatencySamples = 210;
constexpr double kHardCapS = 120.0;

struct ServeRig {
  std::unique_ptr<ds::runtime::ModelCache> cache;
  std::unique_ptr<ds::service::SweepService> service;
  std::unique_ptr<ds::net::HttpServer> server;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { Stop(); }
  void Stop() {
    // Streams first, then the listener (HttpServer's shutdown contract).
    if (service != nullptr) service->Stop();
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<ServeRig> StartServe(std::size_t threads) {
  auto rig = std::make_unique<ServeRig>();
  rig->cache = std::make_unique<ds::runtime::ModelCache>();
  ds::service::SweepService::Options options;
  options.engine_threads = threads;
  options.cache = rig->cache.get();
  rig->service = std::make_unique<ds::service::SweepService>(options);
  rig->server = std::make_unique<ds::net::HttpServer>(
      rig->service->HttpHandler(), ds::net::HttpServer::Options{});
  return rig;
}

struct Outcome {
  int status = 0;
  std::string id;
  double post_ms = 0.0;
  double first_row_ms = 0.0;  // POST sent -> first complete data row received
  std::size_t rows = 0;
  std::string csv;
};

/// POSTs one spec and streams its rows to completion.
Outcome SubmitAndStream(std::uint16_t port, const std::string& client,
                        const std::string& text, std::int64_t req) {
  Outcome out;
  const Clock::time_point t0 = Clock::now();
  ds::net::FetchOptions post;
  post.headers.emplace_back("X-Client", client);
  ds::net::ClientResponse admission;
  {
    const ScopedSpan span("POST /v1/sweeps", "net", req);
    admission = ds::net::Fetch(port, "POST", "/v1/sweeps", text, post);
  }
  out.post_ms = MsSince(t0);
  out.status = admission.status_code;
  if (admission.status_code != 202) return out;
  const ds::telemetry::JsonValue doc = ds::telemetry::ParseJson(admission.body);
  if (const ds::telemetry::JsonValue* v = doc.Find("id"); v != nullptr && v->is_string())
    out.id = v->str;
  std::size_t newlines = 0;
  ds::net::FetchOptions get;
  get.body_sink = [&](std::string_view chunk) {
    for (const char c : chunk)
      if (c == '\n' && ++newlines == 2) out.first_row_ms = MsSince(t0);
    out.csv.append(chunk);
  };
  const ScopedSpan span("GET /v1/sweeps/{id}/rows", "net", req);
  const ds::net::ClientResponse rows =
      ds::net::Fetch(port, "GET", "/v1/sweeps/" + out.id + "/rows", {}, get);
  out.status = rows.status_code;
  out.rows = newlines > 0 ? newlines - 1 : 0;
  return out;
}

/// Counts one submission: it must be admitted (no 429), stream with
/// HTTP 200 and match ResultSink::WriteCsv byte for byte.
bool Verify(const Outcome& o, const std::string& want, const std::string& spec,
            Report* rep) {
  const bool ok = o.status == 200 && o.csv == want;
  if (!ok && rep->failed == 0)
    std::cerr << "perfbench: submission " << spec << " failed: HTTP " << o.status
              << (o.status == 200 ? ", streamed CSV differs from WriteCsv" : "") << "\n";
  rep->Count(ok);
  return ok;
}

double JsonNumber(const std::string& body, const char* key) {
  const ds::telemetry::JsonValue doc = ds::telemetry::ParseJson(body);
  const ds::telemetry::JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

/// Byte-exact expected CSV per spec variant: the same spec through
/// SweepEngine and ResultSink::WriteCsv, as `darksilicon sweep` writes it.
struct Expected {
  std::vector<std::string> estimate;
  std::vector<std::string> boost_transient;
  std::vector<double> csv_ms;
  std::vector<double> expand_ms;
};

Expected ExpectedCsvs(const Inputs& inputs, std::size_t threads) {
  Expected e;
  for (const bool bt : {false, true})
    for (const SpecDef& def : bt ? inputs.serve_bt() : inputs.serve_estimate()) {
      const SweepRig rig = SetUpSweep(def.Json());
      const EngineRun run = RunEngine(rig, threads, false);
      std::ostringstream csv;
      const Clock::time_point t0 = Clock::now();
      ds::runtime::ResultSink(rig.spec, rig.jobs).WriteCsv(csv, run.outcome.results);
      e.csv_ms.push_back(MsSince(t0));
      e.expand_ms.push_back(rig.expand_ms);
      (bt ? e.boost_transient : e.estimate).push_back(csv.str());
    }
  return e;
}

struct Sample {
  bool boost_transient = false;
  double first_row_ms = 0.0;
  double post_ms = 0.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
};

struct LoopResult {
  std::vector<Sample> samples;
  std::size_t rows = 0;
  std::size_t rejects = 0;
  double wall_s = 0.0;
};

/// Closed loop: `tenants` threads, each submitting its seeded sequence
/// and streaming every sweep before the next, until `submissions` have
/// been issued across all tenants. With `status` each tenant
/// also reads GET /status after its rows (the traced run).
LoopResult ClosedLoop(const ServeRig& rig, const Inputs& inputs,
                      const Expected& expected, std::size_t tenants,
                      std::size_t first_tenant, std::size_t submissions,
                      bool status, Report* rep) {
  LoopResult out;
  std::mutex mu;
  std::atomic<std::size_t> issued{0};
  const std::uint16_t port = rig.server->port();
  const Clock::time_point start = Clock::now();
  const auto tenant = [&](std::size_t t) {
    const std::string client = "tenant-" + std::to_string(t);
    // Staggered start: each tenant begins at its own place in the
    // estimate, estimate, estimate, boost_transient order.
    for (std::size_t n = t;; ++n) {
      if (issued++ >= submissions || SecondsSince(start) >= kHardCapS) break;
      const Submission sub = inputs.Submit(t, n);
      const std::int64_t req = static_cast<std::int64_t>(1000000 * t + n);
      const Outcome o = SubmitAndStream(port, client, sub.text, req);
      Sample s;
      s.boost_transient = sub.boost_transient;
      s.first_row_ms = o.first_row_ms;
      s.post_ms = o.post_ms;
      if (status && o.status == 200) {
        const ds::net::ClientResponse st =
            ds::net::Fetch(port, "GET", "/v1/sweeps/" + o.id + "/status");
        s.queue_wait_ms = JsonNumber(st.body, "queue_wait_ms");
        s.run_ms = JsonNumber(st.body, "run_ms");
      }
      const std::string& want = sub.boost_transient
                                    ? expected.boost_transient[sub.variant]
                                    : expected.estimate[sub.variant];
      const std::lock_guard<std::mutex> lock(mu);
      const bool ok = Verify(o, want, sub.text, rep);
      if (o.status == 429) ++out.rejects;
      if (!ok) continue;
      out.samples.push_back(s);
      out.rows += o.rows;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < tenants; ++t) pool.emplace_back(tenant, first_tenant + t);
  for (std::thread& t : pool) t.join();
  out.wall_s = SecondsSince(start);
  return out;
}

/// Service + server start plus one warm-up submission per spec kind on
/// a cold cache.
std::unique_ptr<ServeRig> SetUpServe(const Ctx& ctx, const Inputs& inputs,
                                     const Expected& expected, Report* rep,
                                     double* setup_s) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<ServeRig> rig = StartServe(ctx.threads);
  for (const bool bt : {false, true}) {
    const SpecDef& def = bt ? inputs.serve_bt()[0] : inputs.serve_estimate()[0];
    const Outcome o = SubmitAndStream(rig->server->port(), "warmup", def.Json(), -1);
    Verify(o, bt ? expected.boost_transient[0] : expected.estimate[0], def.Json(), rep);
  }
  *setup_s = SecondsSince(t0);
  return rig;
}

std::size_t PerSeconds(const Ctx& ctx, double share) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(share * kSubmissionsPerSecond * ctx.seconds)));
}

std::vector<double> FirstRows(const LoopResult& r, int kind) {
  std::vector<double> v;
  for (const Sample& s : r.samples)
    if (kind < 0 || s.boost_transient == (kind == 1)) v.push_back(s.first_row_ms);
  return v;
}

}  // namespace

Report RunServeMix(const Ctx& ctx) {
  Report rep;
  ds::telemetry::SetEnabled(true);  // `darksilicon serve` always runs with it on
  const Inputs inputs(ctx.seed, ctx.heldout, ctx.tiny);
  const Expected expected = ExpectedCsvs(inputs, ctx.threads);
  const std::size_t tenants = ctx.threads;

  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> owned;
  for (int i = 0; i < (ctx.tiny ? 1 : 3); ++i) {
    owned.reset();
    double s = 0.0;
    owned = SetUpServe(ctx, inputs, expected, &rep, &s);
    setup_s.push_back(s);
  }
  const ServeRig& rig = *owned;

  if (!ctx.trace) {
    const LoopResult loop =
        ClosedLoop(rig, inputs, expected, tenants, 0,
                   ctx.tiny ? 8 : std::max(kMinLatencySamples, PerSeconds(ctx, 1.0)),
                   false, &rep);
    const LoopResult single = ClosedLoop(rig, inputs, expected, 1, tenants,
                                         ctx.tiny ? 2 : PerSeconds(ctx, 0.2), false,
                                         &rep);
    const std::vector<double> first = FirstRows(loop, -1);
    std::cerr << "perfbench: serve_mix " << first.size() << " first-row samples ("
              << FirstRows(loop, 1).size() << " boost_transient), "
              << single.samples.size() << " single-tenant sweeps\n";
    rep.Set("setup_s", Median(setup_s));
    rep.Set("jobs_per_s", static_cast<double>(loop.rows) / loop.wall_s);
    rep.Set("jobs_per_s_1t", static_cast<double>(single.rows) / single.wall_s);
    rep.Set("first_row_p50_ms", Percentile(first, 0.50));
    rep.Set("first_row_p95_ms", Percentile(first, 0.95));
    rep.Set("peak_rss_mb", PeakRssMb());
    return rep;
  }

  // Traced run: an untraced and a traced loop of equal length; the
  // traced one adds spans, GET /status per sweep and a /healthz sampler.
  Tracer& tracer = Tracer::Get();
  const std::size_t phase = ctx.tiny ? 8 : PerSeconds(ctx, 0.25);
  tracer.set_enabled(false);
  const LoopResult plain =
      ClosedLoop(rig, inputs, expected, tenants, 0, phase, false, &rep);
  tracer.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<double> healthz_ms;
  std::thread sampler([&] {
    while (!stop.load()) {
      const ScopedSpan span("GET /healthz", "net");
      const Clock::time_point t0 = Clock::now();
      ds::net::Fetch(rig.server->port(), "GET", "/healthz");
      healthz_ms.push_back(MsSince(t0));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const LoopResult traced =
      ClosedLoop(rig, inputs, expected, tenants, 0, phase, true, &rep);
  stop.store(true);
  sampler.join();

  std::vector<double> post, wait, run, start_est, start_bt;
  for (const Sample& s : traced.samples) {
    post.push_back(s.post_ms);
    wait.push_back(s.queue_wait_ms);
    run.push_back(s.run_ms);
    (s.boost_transient ? start_bt : start_est)
        .push_back(s.first_row_ms - s.post_ms - s.queue_wait_ms);
  }
  const double plain_s_per_row = plain.wall_s / static_cast<double>(plain.rows);
  const double traced_s_per_row = traced.wall_s / static_cast<double>(traced.rows);
  rep.Set("telemetry.overhead_frac", traced_s_per_row / plain_s_per_row - 1.0);
  rep.Set("service.submit_ms_p50", Median(post));
  rep.Set("service.queue_wait_ms_p50", Median(wait));
  rep.Set("service.run_ms_p50", Median(run));
  rep.Set("service.start_to_first_row_ms_p50.estimate", Median(start_est));
  rep.Set("service.start_to_first_row_ms_p50.boost_transient", Median(start_bt));
  rep.Set("service.rejects", static_cast<double>(plain.rejects + traced.rejects));
  rep.Set("net.healthz_rtt_ms_p50", Median(healthz_ms));
  rep.Set("runtime.spec.expand_ms", Median(expected.expand_ms));
  rep.Set("runtime.sink.csv_ms", Median(expected.csv_ms));
  const ds::runtime::ModelCache::Stats cs = rig.cache->stats();
  rep.Set("runtime.model_cache.misses", static_cast<double>(cs.misses));
  rep.Set("runtime.model_cache.mb", static_cast<double>(cs.bytes) / (1024.0 * 1024.0));
  owned.reset();
  ds::telemetry::SetEnabled(false);
  MeasureModels({"16nm"}, ctx.tiny, rep);
  return rep;
}

}  // namespace pb
