// ds_report -- offline run analytics over sweep observability output.
//
// Usage:
//   ds_report <events.jsonl> [--summary summary.json] [--json out.json]
//   ds_report --serve <events.jsonl>
//   ds_report --bench BENCH_sweep.json --baseline base.json
//             [--max-regress pct] [--json out.json]
//
// Events mode joins the JSON-lines job-lifecycle stream a sweep wrote
// with `--events-out` into per-run analytics: job latency percentiles
// (from `completed` wall_ms), outcome/retry/quarantine breakdowns,
// chaos-injection and journal-recovery tallies, and bus drop
// accounting. With `--summary`, every count the events can rebuild is
// checked against the engine's own record of the run: the SweepStats
// JSON the same run wrote (`--summary-json`). Any disagreement -- a
// lost event, a miscounted retry, a field the summary lacks -- exits
// nonzero, which is how CI proves the event stream is a faithful
// record and not a lossy approximation.
//
// Serve mode reads the event stream a `darksilicon serve` daemon wrote
// (--events-out) and breaks the service plane down per client and per
// sweep: queue-wait vs run latency, admission rejects by reason, and
// cancellations -- who got capacity, who got turned away, and how long
// everyone waited.
//
// Bench mode diffs two BENCH_*.json perf reports (same schema as
// bench_common.hpp WriteSweepReport) and exits nonzero when any
// bench's throughput regressed by more than --max-regress percent
// (default 10). Each entry gates on its native throughput metric:
// rows_per_s when present (BENCH_serve.json), jobs_per_s otherwise.
// BENCH_thermal.json's flat batch_{scalar_,}us_k<k> pairs get their
// own section: batched lockstep member-steps/s vs k independent
// simulators, with the per-k speedup gated against the baseline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using ds::telemetry::JsonValue;
using ds::telemetry::ParseJson;

int Usage() {
  std::cerr
      << "usage: ds_report <events.jsonl> [--summary summary.json]\n"
         "                 [--json out.json]\n"
         "       ds_report --serve <events.jsonl>\n"
         "       ds_report --bench BENCH.json --baseline base.json\n"
         "                 [--max-regress pct] [--json out.json]\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

double NumField(const JsonValue& obj, const std::string& key,
                double def = 0.0) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->number : def;
}

std::string StrField(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_string()) ? v->str : std::string();
}

/// Nearest-rank percentile of a sorted sample (p in [0, 100]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Everything ds_report reconstructs from one events file.
struct RunReport {
  // run_start / run_end envelope.
  bool has_run_start = false;
  bool has_run_end = false;
  std::size_t jobs_total = 0;
  std::size_t jobs_resumed = 0;
  double wall_s = 0.0;

  // Per-kind tallies.
  std::size_t scheduled = 0;
  std::size_t started = 0;        // scalar attempt starts (untagged)
  std::size_t cohort_starts = 0;  // cohort-lane starts (detail "cohort")
  std::size_t retries = 0;        // scalar attempts beyond a job's first
  std::size_t detaches = 0;       // "cohort detach" retries: cohort -> scalar
  std::size_t backoffs = 0;
  std::size_t heartbeats = 0;
  std::size_t cache_evicts = 0;
  double cache_evict_bytes = 0.0;
  std::size_t chaos_fail = 0;
  std::size_t chaos_delay = 0;
  std::size_t journal_corrupt = 0;
  std::size_t journal_dedup = 0;
  std::size_t journal_torn = 0;
  double journal_torn_bytes = 0.0;

  // completed outcomes, keyed by detail.
  std::map<std::string, std::size_t> outcomes;  // ok/skipped/failed/quarantined
  std::size_t completed = 0;

  // Per-job retry chains: job -> (attempts, outcome).
  std::map<std::int64_t, std::pair<std::size_t, std::string>> retried_jobs;
  std::vector<std::int64_t> quarantined_jobs;

  // Latency sample (completed wall_ms), sorted ascending after parse.
  std::vector<double> wall_ms;

  // bus_close accounting.
  std::uint64_t bus_written = 0;
  std::uint64_t bus_dropped = 0;
};

/// Parses the JSON-lines event stream. Throws std::runtime_error with a
/// line-annotated message on malformed input.
RunReport ParseEvents(const std::string& text) {
  RunReport r;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue ev;
    try {
      ev = ParseJson(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(line_no) + ": " +
                               e.what());
    }
    if (!ev.is_object())
      throw std::runtime_error("line " + std::to_string(line_no) +
                               ": not a JSON object");
    const std::string kind = StrField(ev, "ev");
    const auto job = static_cast<std::int64_t>(NumField(ev, "job", -1.0));
    if (kind == "run_start") {
      r.has_run_start = true;
      r.jobs_total = static_cast<std::size_t>(NumField(ev, "jobs_total"));
      r.jobs_resumed = static_cast<std::size_t>(NumField(ev, "jobs_resumed"));
    } else if (kind == "run_end") {
      r.has_run_end = true;
      r.wall_s = NumField(ev, "wall_s");
    } else if (kind == "scheduled") {
      ++r.scheduled;
    } else if (kind == "started") {
      // A detached cohort member re-runs scalar and publishes a second,
      // untagged start; keeping the lanes separate keeps per-attempt
      // accounting exact (untagged starts == scalar attempts).
      if (StrField(ev, "detail") == "cohort")
        ++r.cohort_starts;
      else
        ++r.started;
    } else if (kind == "retry") {
      // A member leaving its cohort for the scalar lane is announced as
      // a retry but is not an extra attempt: the engine counts it as a
      // detach, so keep it out of the retry tally.
      if (StrField(ev, "detail") == "cohort detach")
        ++r.detaches;
      else
        ++r.retries;
    } else if (kind == "backoff") {
      ++r.backoffs;
    } else if (kind == "quarantined") {
      r.quarantined_jobs.push_back(job);
    } else if (kind == "cache_evict") {
      ++r.cache_evicts;
      r.cache_evict_bytes += NumField(ev, "bytes");
    } else if (kind == "chaos_inject") {
      const std::string detail = StrField(ev, "detail");
      if (detail == "delay")
        ++r.chaos_delay;
      else
        ++r.chaos_fail;
    } else if (kind == "journal_skip") {
      const std::string detail = StrField(ev, "detail");
      if (detail == "corrupt_record") ++r.journal_corrupt;
      if (detail == "dedup_drop") ++r.journal_dedup;
      if (detail == "torn_tail") {
        ++r.journal_torn;
        r.journal_torn_bytes += NumField(ev, "bytes");
      }
    } else if (kind == "completed") {
      ++r.completed;
      const std::string outcome = StrField(ev, "detail");
      ++r.outcomes[outcome];
      r.wall_ms.push_back(NumField(ev, "wall_ms"));
      const auto attempts = static_cast<std::size_t>(NumField(ev, "attempt"));
      if (attempts > 1) r.retried_jobs[job] = {attempts, outcome};
    } else if (kind == "heartbeat") {
      ++r.heartbeats;
    } else if (kind == "bus_close") {
      r.bus_written = static_cast<std::uint64_t>(NumField(ev, "written"));
      r.bus_dropped = static_cast<std::uint64_t>(NumField(ev, "dropped"));
    }
  }
  std::sort(r.wall_ms.begin(), r.wall_ms.end());
  std::sort(r.quarantined_jobs.begin(), r.quarantined_jobs.end());
  return r;
}

void PrintReport(const RunReport& r) {
  std::cout << "run: " << r.jobs_total << " jobs (" << r.jobs_resumed
            << " resumed), " << r.completed << " completed this run";
  if (r.has_run_end)
    std::cout << " in " << r.wall_s << " s";
  std::cout << "\n";

  ds::util::Table outcomes({"outcome", "jobs"});
  for (const auto& [name, count] : r.outcomes)
    outcomes.Row().Cell(name.empty() ? "(none)" : name).Cell(count);
  outcomes.Print(std::cout);

  if (!r.wall_ms.empty()) {
    ds::util::Table lat({"latency [ms]", "value"});
    double sum = 0.0;
    for (const double v : r.wall_ms) sum += v;
    lat.Row().Cell("mean").Cell(sum / static_cast<double>(r.wall_ms.size()),
                                3);
    lat.Row().Cell("p50").Cell(Percentile(r.wall_ms, 50.0), 3);
    lat.Row().Cell("p90").Cell(Percentile(r.wall_ms, 90.0), 3);
    lat.Row().Cell("p99").Cell(Percentile(r.wall_ms, 99.0), 3);
    lat.Row().Cell("max").Cell(r.wall_ms.back(), 3);
    lat.Print(std::cout);
  }

  std::cout << "resilience: " << r.retries << " retries, " << r.backoffs
            << " backoffs, " << r.quarantined_jobs.size() << " quarantined, "
            << r.detaches << " cohort detaches; chaos: " << r.chaos_fail
            << " faults, " << r.chaos_delay << " delays\n";
  if (!r.retried_jobs.empty()) {
    ds::util::Table chains({"job", "attempts", "outcome"});
    for (const auto& [job, info] : r.retried_jobs)
      chains.Row()
          .Cell(static_cast<std::size_t>(job))
          .Cell(info.first)
          .Cell(info.second);
    chains.Print(std::cout);
  }
  if (r.journal_corrupt > 0 || r.journal_dedup > 0 || r.journal_torn > 0)
    std::cout << "journal recovery: " << r.journal_corrupt
              << " corrupt records, " << r.journal_dedup << " dedup drops, "
              << r.journal_torn_bytes << " torn bytes\n";
  if (r.cache_evicts > 0)
    std::cout << "cache: " << r.cache_evicts << " evictions ("
              << r.cache_evict_bytes << " bytes)\n";
  std::cout << "bus: " << r.bus_written << " written, " << r.bus_dropped
            << " dropped, " << r.heartbeats << " heartbeats\n";
}

void WriteReportJson(const RunReport& r, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "{\n";
  out << "  \"jobs_total\": " << r.jobs_total << ",\n";
  out << "  \"jobs_resumed\": " << r.jobs_resumed << ",\n";
  out << "  \"completed\": " << r.completed << ",\n";
  out << "  \"retries\": " << r.retries << ",\n";
  out << "  \"quarantined\": " << r.quarantined_jobs.size() << ",\n";
  out << "  \"chaos_fail\": " << r.chaos_fail << ",\n";
  out << "  \"chaos_delay\": " << r.chaos_delay << ",\n";
  out << "  \"journal_corrupt\": " << r.journal_corrupt << ",\n";
  out << "  \"journal_dedup\": " << r.journal_dedup << ",\n";
  out << "  \"cache_evicts\": " << r.cache_evicts << ",\n";
  out << "  \"heartbeats\": " << r.heartbeats << ",\n";
  out << "  \"bus_written\": " << r.bus_written << ",\n";
  out << "  \"bus_dropped\": " << r.bus_dropped << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", Percentile(r.wall_ms, 50.0));
  out << "  \"wall_ms_p50\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.6f", Percentile(r.wall_ms, 99.0));
  out << "  \"wall_ms_p99\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.6f",
                r.wall_ms.empty() ? 0.0 : r.wall_ms.back());
  out << "  \"wall_ms_max\": " << buf << "\n";
  out << "}\n";
}

/// Checks every count the event stream can rebuild against the
/// SweepStats summary the same run wrote, field by field under the
/// summary's own names. Returns the number of mismatches.
int VerifyAgainstSummary(const RunReport& r, const JsonValue& summary) {
  int mismatches = 0;
  const auto check = [&](const char* field, double events) {
    const JsonValue* v = summary.Find(field);
    if (v == nullptr || !v->is_number()) {
      std::cerr << "ds_report: MISMATCH " << field
                << ": summary has no such count\n";
      ++mismatches;
    } else if (events != v->number) {  // exact integral counts
      std::cerr << "ds_report: MISMATCH " << field << ": events say "
                << events << ", summary says " << v->number << "\n";
      ++mismatches;
    }
  };
  std::size_t failed = 0;
  for (const auto& [name, count] : r.outcomes)
    if (name == "failed" || name == "quarantined") failed += count;
  check("jobs_total", static_cast<double>(r.jobs_total));
  check("jobs_resumed", static_cast<double>(r.jobs_resumed));
  check("jobs_executed", static_cast<double>(r.completed));
  check("jobs_failed", static_cast<double>(failed));
  check("jobs_quarantined", static_cast<double>(r.quarantined_jobs.size()));
  check("retries_total", static_cast<double>(r.retries));
  check("batch_detached", static_cast<double>(r.detaches));
  check("batch_cohort_members", static_cast<double>(r.cohort_starts));
  check("journal_corrupt_records", static_cast<double>(r.journal_corrupt));
  check("journal_dedup_drops", static_cast<double>(r.journal_dedup));
  check("journal_truncated_bytes", r.journal_torn_bytes);
  return mismatches;
}

int RunEventsMode(const ds::util::ArgParser& args) {
  const std::string events_path = args.positionals()[0];
  std::string text;
  if (!ReadFile(events_path, &text)) {
    std::cerr << "ds_report: cannot open " << events_path << "\n";
    return 1;
  }
  RunReport r;
  try {
    r = ParseEvents(text);
  } catch (const std::exception& e) {
    std::cerr << "ds_report: " << events_path << ": " << e.what() << "\n";
    return 1;
  }
  if (!r.has_run_start || r.bus_written == 0) {
    std::cerr << "ds_report: " << events_path
              << ": missing run_start or bus_close record\n";
    return 1;
  }
  PrintReport(r);

  const std::string json_path = args.GetString("json");
  if (!json_path.empty()) WriteReportJson(r, json_path);

  const std::string summary_path = args.GetString("summary");
  if (!summary_path.empty()) {
    std::string summary_text;
    if (!ReadFile(summary_path, &summary_text)) {
      std::cerr << "ds_report: cannot open " << summary_path << "\n";
      return 1;
    }
    JsonValue summary;
    try {
      summary = ParseJson(summary_text);
    } catch (const std::exception& e) {
      std::cerr << "ds_report: " << summary_path << ": " << e.what() << "\n";
      return 1;
    }
    const int mismatches = VerifyAgainstSummary(r, summary);
    if (mismatches > 0) {
      std::cerr << "ds_report: " << mismatches
                << " mismatch(es) between events and " << summary_path << "\n";
      return 1;
    }
    std::cout << "summary check: events reconstruct " << summary_path
              << " exactly\n";
  }
  return 0;
}

/// Per-client aggregation of the service-plane events.
struct ServeClient {
  std::size_t submits = 0;
  std::size_t rejects = 0;
  std::size_t cancels = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  double rows = 0.0;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
};

/// Per-sweep lifecycle joined across submit/sweep_start/sweep_end.
struct ServeSweep {
  std::string client;
  double jobs_total = 0.0;
  double queue_wait_ms = -1.0;  // -1: never left the queue
  double run_ms = -1.0;
  double rows = 0.0;
  std::string outcome = "queued";
};

int RunServeMode(const ds::util::ArgParser& args) {
  const std::string events_path = args.GetString("serve");
  std::string text;
  if (!ReadFile(events_path, &text)) {
    std::cerr << "ds_report: cannot open " << events_path << "\n";
    return 1;
  }

  std::map<std::string, ServeClient> clients;
  std::map<std::int64_t, ServeSweep> sweeps;
  std::size_t service_events = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue ev;
    try {
      ev = ParseJson(line);
    } catch (const std::exception& e) {
      std::cerr << "ds_report: " << events_path << ": line "
                << std::to_string(line_no) << ": " << e.what() << "\n";
      return 1;
    }
    if (!ev.is_object()) continue;
    const std::string kind = StrField(ev, "ev");
    const std::string client = StrField(ev, "detail");
    const auto seq = static_cast<std::int64_t>(NumField(ev, "job", -1.0));
    if (kind == "submit") {
      ++service_events;
      ++clients[client].submits;
      sweeps[seq].client = client;
      sweeps[seq].jobs_total = NumField(ev, "jobs_total");
    } else if (kind == "reject") {
      ++service_events;
      ++clients[client].rejects;
    } else if (kind == "cancel") {
      ++service_events;
      ++clients[client].cancels;
    } else if (kind == "sweep_start") {
      ++service_events;
      const double wait = NumField(ev, "queue_wait_ms");
      clients[client].queue_wait_ms.push_back(wait);
      sweeps[seq].client = client;
      sweeps[seq].queue_wait_ms = wait;
      if (sweeps[seq].outcome == "queued") sweeps[seq].outcome = "running";
    } else if (kind == "sweep_end") {
      ++service_events;
      ServeClient& c = clients[client];
      ServeSweep& s = sweeps[seq];
      s.client = client;
      s.run_ms = NumField(ev, "run_ms");
      s.rows = NumField(ev, "rows");
      c.run_ms.push_back(s.run_ms);
      c.rows += s.rows;
      if (NumField(ev, "cancelled") > 0.0) {
        s.outcome = "cancelled";
        ++c.cancelled;
      } else if (NumField(ev, "failed") > 0.0) {
        s.outcome = "failed";
        ++c.failed;
      } else {
        s.outcome = "done";
        ++c.done;
      }
    }
  }
  if (service_events == 0) {
    std::cerr << "ds_report: " << events_path
              << ": no service-plane events (submit/sweep_start/...)\n";
    return 1;
  }

  ds::util::Table by_client({"client", "submits", "rejects", "cancels",
                             "done", "failed", "cancelled", "rows",
                             "p50 wait [ms]", "p50 run [ms]"});
  for (auto& [name, c] : clients) {
    std::sort(c.queue_wait_ms.begin(), c.queue_wait_ms.end());
    std::sort(c.run_ms.begin(), c.run_ms.end());
    by_client.Row()
        .Cell(name.empty() ? "(none)" : name)
        .Cell(c.submits)
        .Cell(c.rejects)
        .Cell(c.cancels)
        .Cell(c.done)
        .Cell(c.failed)
        .Cell(c.cancelled)
        .Cell(static_cast<std::size_t>(c.rows))
        .Cell(Percentile(c.queue_wait_ms, 50.0), 3)
        .Cell(Percentile(c.run_ms, 50.0), 3);
  }
  by_client.Print(std::cout);

  ds::util::Table by_sweep(
      {"seq", "client", "jobs", "wait [ms]", "run [ms]", "outcome"});
  for (const auto& [seq, s] : sweeps)
    by_sweep.Row()
        .Cell(static_cast<std::size_t>(seq))
        .Cell(s.client)
        .Cell(static_cast<std::size_t>(s.jobs_total))
        .Cell(std::max(s.queue_wait_ms, 0.0), 3)
        .Cell(std::max(s.run_ms, 0.0), 3)
        .Cell(s.outcome);
  std::cout << "\n";
  by_sweep.Print(std::cout);
  return 0;
}

int RunBenchMode(const ds::util::ArgParser& args) {
  const std::string bench_path = args.GetString("bench");
  const std::string base_path = args.GetString("baseline");
  const double max_regress = args.GetDouble("max-regress", 10.0);
  std::string bench_text;
  std::string base_text;
  if (!ReadFile(bench_path, &bench_text)) {
    std::cerr << "ds_report: cannot open " << bench_path << "\n";
    return 1;
  }
  if (!ReadFile(base_path, &base_text)) {
    std::cerr << "ds_report: cannot open " << base_path << "\n";
    return 1;
  }
  JsonValue bench;
  JsonValue base;
  try {
    bench = ParseJson(bench_text);
    base = ParseJson(base_text);
  } catch (const std::exception& e) {
    std::cerr << "ds_report: " << e.what() << "\n";
    return 1;
  }
  if (!bench.is_object() || !base.is_object()) {
    std::cerr << "ds_report: bench reports must be JSON objects\n";
    return 1;
  }
  ds::util::Table t({"bench", "metric", "base", "now", "delta %"});
  int regressions = 0;
  for (const auto& [name, entry] : bench.object) {
    if (!entry.is_object()) continue;  // schema_version / git stamps
    // Each entry gates on its native throughput metric: the serve
    // bench reports rows_per_s, the sweep benches jobs_per_s.
    const char* metric =
        entry.Find("rows_per_s") != nullptr ? "rows_per_s" : "jobs_per_s";
    const double now = NumField(entry, metric);
    const JsonValue* base_entry = base.Find(name);
    if (base_entry == nullptr || !base_entry->is_object()) {
      t.Row().Cell(name).Cell(metric).Cell("(new)").Cell(now, 3).Cell("-");
      continue;
    }
    const double was = NumField(*base_entry, metric);
    const double delta_pct = was > 0.0 ? 100.0 * (now - was) / was : 0.0;
    t.Row().Cell(name).Cell(metric).Cell(was, 3).Cell(now, 3).Cell(delta_pct,
                                                                   2);
    if (was > 0.0 && delta_pct < -max_regress) {
      std::cerr << "ds_report: REGRESSION " << name << ": " << metric << " "
                << was << " -> " << now << " (" << delta_pct << "% < -"
                << max_regress << "%)\n";
      ++regressions;
    }
  }
  t.Print(std::cout);

  // Flat thermal kernel reports (BENCH_thermal.json) carry the batched
  // lockstep A/B section as per-k scalar/batched us-per-member-step
  // pairs. Convert to member-steps/s, show batched vs the scalar
  // baseline (k independent simulators), and gate the batched speedup
  // against --baseline so a panel-kernel regression fails CI the same
  // way a throughput regression in the sweep benches does.
  ds::util::Table bt({"cohort", "scalar steps/s", "batched steps/s",
                      "speedup", "base speedup"});
  static const std::string kBatchUs = "batch_us_k";
  bool have_batch = false;
  for (const auto& [name, entry] : bench.object) {
    if (!entry.is_number() || name.rfind(kBatchUs, 0) != 0) continue;
    const std::string k = name.substr(kBatchUs.size());
    const double batch_us = entry.number;
    const double scalar_us = NumField(bench, "batch_scalar_us_k" + k);
    if (batch_us <= 0.0 || scalar_us <= 0.0) continue;
    have_batch = true;
    const double speedup = scalar_us / batch_us;
    double base_speedup = 0.0;
    const JsonValue* base_us = base.Find(name);
    if (base_us != nullptr && base_us->is_number() && base_us->number > 0.0) {
      const double base_scalar = NumField(base, "batch_scalar_us_k" + k);
      if (base_scalar > 0.0) base_speedup = base_scalar / base_us->number;
    }
    bt.Row()
        .Cell("k=" + k)
        .Cell(1e6 / scalar_us, 0)
        .Cell(1e6 / batch_us, 0)
        .Cell(speedup, 2);
    if (base_speedup > 0.0) {
      bt.Cell(base_speedup, 2);
      const double delta_pct = 100.0 * (speedup - base_speedup) / base_speedup;
      if (delta_pct < -max_regress) {
        std::cerr << "ds_report: REGRESSION batch k=" << k << ": speedup "
                  << base_speedup << "x -> " << speedup << "x (" << delta_pct
                  << "% < -" << max_regress << "%)\n";
        ++regressions;
      }
    } else {
      bt.Cell("-");
    }
  }
  if (have_batch) {
    std::cout << "\nbatched lockstep stepping (vs independent simulators)\n";
    bt.Print(std::cout);
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ds::util::ArgParser args(argc, argv);
  const bool bench_mode = args.Has("bench");
  if (bench_mode) {
    if (args.GetString("bench").empty() || args.GetString("baseline").empty())
      return Usage();
    return RunBenchMode(args);
  }
  if (args.Has("serve")) {
    if (args.GetString("serve").empty()) return Usage();
    return RunServeMode(args);
  }
  if (args.positionals().empty()) return Usage();
  return RunEventsMode(args);
}
