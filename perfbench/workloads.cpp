// The sweep workloads (bt_sweep, estimate_sweep) and chip_sim.
#include <atomic>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "rig.hpp"
#include "sim/chip_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace pb {

using ds::runtime::JobResult;
using ds::runtime::SweepJob;

namespace {

/// A run keeps measuring past --seconds until it has this many row
/// latencies (>= 10 samples beyond p95), bounded by kHardCapS.
constexpr std::size_t kMinLatencySamples = 210;
constexpr double kHardCapS = 120.0;

Reference LoadReference(const Ctx& ctx, const std::string& workload) {
  return Reference::Load(ctx.data_dir + "/reference/" + workload + ".csv",
                         ctx.perturb);
}

// ---------------------------------------------------------------------
// Sweeps

/// Timed run: each pass sets up a fresh sweep and runs it at T threads,
/// then sets up again and runs at 1 thread. Every row is checked.
Report TimedSweep(const Ctx& ctx, const std::string& text, Reference& ref) {
  Report rep;
  std::vector<double> setup_s, jps, jps_1t, row_ms, rss_mb;
  const Clock::time_point start = Clock::now();
  const std::size_t min_rows = ctx.tiny ? 0 : kMinLatencySamples;
  for (std::size_t pass = 0;; ++pass) {
    ResetPeakRss();
    for (const std::size_t threads : {ctx.threads, std::size_t{1}}) {
      const SweepRig rig = SetUpSweep(text);
      setup_s.push_back(rig.setup_s);
      const bool timed_latency = threads == ctx.threads;
      const EngineRun run = RunEngine(rig, threads, timed_latency);
      CheckRows(rig.jobs, run.outcome.results, ref, rep);
      std::size_t ok = 0;
      for (const JobResult& r : run.outcome.results) ok += r.ok ? 1 : 0;
      (timed_latency ? jps : jps_1t).push_back(static_cast<double>(ok) / run.wall_s);
      if (timed_latency) row_ms.insert(row_ms.end(), run.row_ms.begin(), run.row_ms.end());
    }
    rss_mb.push_back(PeakRssMb());
    const double elapsed = SecondsSince(start);
    if ((elapsed >= ctx.seconds && row_ms.size() >= min_rows && pass >= 1) ||
        elapsed >= kHardCapS)
      break;
  }
  std::cerr << "perfbench: " << jps.size() << " passes, " << row_ms.size()
            << " row-latency samples; jobs/s at T threads:";
  for (const double v : jps) std::cerr << ' ' << v;
  std::cerr << "; at 1 thread:";
  for (const double v : jps_1t) std::cerr << ' ' << v;
  std::cerr << "\n";
  rep.Set("setup_s", Median(setup_s));
  rep.Set("jobs_per_s", Median(jps));
  rep.Set("jobs_per_s_1t", Median(jps_1t));
  rep.Set("first_row_p50_ms", Percentile(row_ms, 0.50));
  rep.Set("first_row_p95_ms", Percentile(row_ms, 0.95));
  rep.Set("peak_rss_mb", Median(rss_mb));
  return rep;
}

/// Traced run of a sweep workload (see METRICS.md for each metric).
Report TracedSweep(const Ctx& ctx, const SpecDef& def, Reference& ref) {
  Report rep;
  Tracer& tracer = Tracer::Get();
  const std::string text = def.Json();

  // 1. Untraced and traced set-up + Run + sink, alternating. The traced
  //    side has telemetry on and gives the per-run counts.
  std::vector<double> untraced_s, traced_s, run_wall_s, expand_ms, csv_ms;
  ds::runtime::SweepStats stats;
  double factors_per_job = 0.0, solves_per_job = 0.0, cache_mb = 0.0;
  std::uint64_t cache_misses = 0;  // distinct models: set-up builds each once
  const int reps = ctx.tiny ? 1 : 3;
  for (int i = 0; i < reps; ++i) {
    for (const bool traced : {false, true}) {
      ds::telemetry::SetEnabled(traced);
      tracer.set_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      const SweepRig rig = SetUpSweep(text);
      const std::uint64_t lu0 = CounterValue("lu.factorizations");
      const std::uint64_t ss0 = CounterValue("thermal.steady_solves");
      EngineRun run;
      {
        const ScopedSpan span("SweepEngine::Run", "runtime");
        run = RunEngine(rig, ctx.threads, false);
      }
      {
        const ScopedSpan span("ResultSink::WriteCsv", "runtime");
        std::ostringstream csv;
        ds::runtime::ResultSink(rig.spec, rig.jobs).WriteCsv(csv, run.outcome.results);
        csv_ms.push_back(span.ms());
      }
      (traced ? traced_s : untraced_s).push_back(SecondsSince(t0));
      CheckRows(rig.jobs, run.outcome.results, ref, rep);
      if (!traced) {
        run_wall_s.push_back(run.wall_s);
        continue;
      }
      const double jobs = static_cast<double>(rig.jobs.size());
      stats = run.outcome.stats;
      factors_per_job = static_cast<double>(CounterValue("lu.factorizations") - lu0) / jobs;
      solves_per_job = static_cast<double>(CounterValue("thermal.steady_solves") - ss0) / jobs;
      cache_mb = static_cast<double>(rig.cache->stats().bytes) / (1024.0 * 1024.0);
      cache_misses = rig.cache->stats().misses;
      expand_ms.push_back(rig.expand_ms);
    }
  }
  ds::telemetry::SetEnabled(false);
  tracer.set_enabled(true);
  rep.Set("telemetry.overhead_frac", Median(traced_s) / Median(untraced_s) - 1.0);
  rep.Set("runtime.spec.expand_ms", Median(expand_ms));
  rep.Set("runtime.sink.csv_ms", Median(csv_ms));
  rep.Set("runtime.model_cache.misses", static_cast<double>(cache_misses));
  rep.Set("runtime.model_cache.mb", cache_mb);
  rep.Set("runtime.engine.threads_used", static_cast<double>(stats.threads_used));
  rep.Set("runtime.engine.chunks",
          static_cast<double>(stats.jobs_total - stats.batch_cohort_members +
                              stats.batch_cohorts));
  rep.Set("runtime.engine.cohort_k_mean",
          stats.batch_cohorts == 0
              ? 0.0
              : static_cast<double>(stats.batch_cohort_members) /
                    static_cast<double>(stats.batch_cohorts));
  rep.Set("runtime.engine.detached", static_cast<double>(stats.batch_detached));
  rep.Set("runtime.engine.steals", static_cast<double>(stats.steals));
  rep.Set("thermal.lu.factors_per_job", factors_per_job);
  rep.Set("thermal.steady.solves_per_job", solves_per_job);

  // 2. Every job alone through RunScenario at 1 thread, models built,
  //    each followed by a replay of the runner's public call sequence on
  //    the same inputs. Back to back, both see the same machine state; an
  //    untimed first job builds the lazy state (hold operators) first.
  const SweepRig rig = SetUpSweep(text);
  {
    JobResult warm;
    ds::runtime::RunScenario(rig.spec.kind(), rig.jobs[0], *rig.cache, &warm);
  }
  std::vector<double> job_ms;
  ReplayTotals totals;
  for (const SweepJob& job : rig.jobs) {
    JobResult r;
    {
      const ScopedSpan span("RunScenario", "runtime", static_cast<std::int64_t>(job.index));
      ds::runtime::RunScenario(rig.spec.kind(), job, *rig.cache, &r);
      job_ms.push_back(span.ms());
    }
    std::vector<JobResult> one{r};
    CheckRows({job}, one, ref, rep);
    ReplayJob(rig.spec.kind(), job, *rig.cache, ref, &totals);
  }
  double job_ms_sum = 0.0;
  for (const double ms : job_ms) job_ms_sum += ms;
  rep.Set("runtime.scenarios.job_ms_p50", Median(job_ms));
  rep.Set("runtime.scenarios.job_ms_mean", Mean(job_ms));
  rep.Set("runtime.engine.parallel_eff",
          job_ms_sum / (1e3 * static_cast<double>(stats.threads_used) * Median(run_wall_s)));

  // 3. Engine fixed cost: Run on a one-job spec minus that job alone.
  {
    const SweepRig one = SetUpSweep(def.FirstPointOnly().Json());
    JobResult warm;
    ds::runtime::RunScenario(one.spec.kind(), one.jobs[0], *one.cache, &warm);
    std::vector<double> run_ms, alone_ms;
    for (int i = 0; i < (ctx.tiny ? 2 : 7); ++i) {
      const EngineRun run = RunEngine(one, 1, false);
      run_ms.push_back(1e3 * run.wall_s);
      const Clock::time_point t0 = Clock::now();
      JobResult r;
      ds::runtime::RunScenario(one.spec.kind(), one.jobs[0], *one.cache, &r);
      alone_ms.push_back(MsSince(t0));
    }
    rep.Set("runtime.engine.fixed_ms", Median(run_ms) - Median(alone_ms));
  }

  // 4. One cohort as the engine forms it: the first up-to-16 jobs that
  //    share job 0's cohort key, in job order.
  if (ds::runtime::KindIsBatchable(rig.spec.kind())) {
    const std::string key =
        ds::runtime::BatchCohortKey(rig.spec.kind(), rig.jobs[0].point);
    std::vector<const SweepJob*> members;
    for (const SweepJob& job : rig.jobs)
      if (members.size() < 16 &&
          ds::runtime::BatchCohortKey(rig.spec.kind(), job.point) == key)
        members.push_back(&job);
    std::vector<double> per_member_ms;
    for (int i = 0; i < (ctx.tiny ? 1 : 3); ++i) {
      std::vector<JobResult> results(members.size());
      std::vector<JobResult*> slots;
      for (JobResult& r : results) slots.push_back(&r);
      std::vector<bool> detached(members.size(), false);
      const ScopedSpan span("RunBoostTransientCohort", "runtime");
      ds::runtime::RunBoostTransientCohort(
          members, *rig.cache, slots, [](std::size_t) { return false; }, &detached);
      per_member_ms.push_back(span.ms() / static_cast<double>(members.size()));
      std::vector<SweepJob> jobs;
      for (const SweepJob* j : members) jobs.push_back(*j);
      CheckRows(jobs, results, ref, rep);
    }
    rep.Set("runtime.scenarios.cohort_ms_per_member", Median(per_member_ms));
  }

  // 5. What the replay's layer spans did not cover of the runner's time.
  rep.Set("runtime.scenarios.unattributed_frac", 1.0 - totals.attributed_ms / job_ms_sum);
  if (!totals.level_search_ms.empty()) {
    rep.Set("core.level_search_ms", Mean(totals.level_search_ms));
    rep.Set("core.control_us", Mean(totals.control_us));
  }
  if (!totals.estimate_tdp_ms.empty())
    rep.Set("core.estimate_tdp_ms", Mean(totals.estimate_tdp_ms));
  if (!totals.estimate_thermal_ms.empty())
    rep.Set("core.estimate_thermal_ms", Mean(totals.estimate_thermal_ms));
  if (totals.drifted > 0)
    std::cerr << "perfbench: note: " << totals.drifted << " of " << rig.jobs.size()
              << " replayed jobs differ from their reference rows\n";

  // 6. Model-level costs on this sweep's models.
  std::vector<std::string> nodes;
  for (const SweepJob& job : rig.jobs)
    if (std::find(nodes.begin(), nodes.end(), job.point.node) == nodes.end())
      nodes.push_back(job.point.node);
  MeasureModels(nodes, ctx.tiny, rep);
  return rep;
}

Report SweepWorkload(const Ctx& ctx, const SpecDef& def, const std::string& name) {
  Reference ref = LoadReference(ctx, name);
  return ctx.trace ? TracedSweep(ctx, def, ref) : TimedSweep(ctx, def.Json(), ref);
}

// ---------------------------------------------------------------------
// chip_sim

struct ChipRig {
  std::unique_ptr<ds::runtime::ModelCache> cache;
  std::map<std::string, ds::arch::Platform> platforms;
  double setup_s = 0.0;
};

/// Platform, LU, influence matrix and 1 ms fold for each platform.
ChipRig SetUpChip() {
  const Clock::time_point t0 = Clock::now();
  ChipRig rig;
  rig.cache = std::make_unique<ds::runtime::ModelCache>();
  for (const char* node : {"16nm", "11nm"}) {
    ds::runtime::SweepPoint point;
    point.node = node;
    ds::arch::Platform platform = PlatformFor(point);
    {
      const ScopedSpan span("ModelCache::InstallThermal", "runtime");
      rig.cache->InstallThermal(platform);
    }
    {
      const ScopedSpan span("PropagatorSet::For", "thermal");
      platform.propagators()->For(platform.thermal_model(), 1e-3);
    }
    rig.platforms.emplace(node, std::move(platform));
  }
  rig.setup_s = SecondsSince(t0);
  return rig;
}

std::vector<std::pair<std::string, double>> ChipMetrics(const ds::sim::FullSimResult& r) {
  return {{"avg_gips", r.avg_gips},
          {"avg_power_w", r.avg_power_w},
          {"energy_j", r.energy_j},
          {"max_temp_c", r.max_temp_c},
          {"time_above_tdtm_s", r.time_above_tdtm_s},
          {"jobs_arrived", static_cast<double>(r.jobs_arrived)},
          {"jobs_completed", static_cast<double>(r.jobs_completed)},
          {"avg_active_cores", r.avg_active_cores},
          {"aging_imbalance", r.aging_imbalance},
          {"avg_noc_power_w", r.avg_noc_power_w}};
}

/// One chip_sim run, checked against its reference aggregates.
double RunChip(const ChipRig& rig, const ChipRun& run, double duration_s,
               Reference& ref, Report* rep, std::mutex* rep_mu, std::int64_t req) {
  ds::sim::SimConfig config;
  config.duration_s = duration_s;
  config.seed = run.arrival_seed;
  const ds::sim::ChipSimulator sim(rig.platforms.at(run.node), config);
  const Clock::time_point t0 = Clock::now();
  ds::sim::FullSimResult result;
  {
    const ScopedSpan span("ChipSimulator::Run", "sim", req);
    result = sim.Run();
  }
  const double wall_s = SecondsSince(t0);
  std::string why;
  const std::lock_guard<std::mutex> lock(*rep_mu);
  const bool ok = ref.Check(ChipKey(run), "ok", ChipMetrics(result), &why);
  if (!ok && rep->failed == 0) std::cerr << "perfbench: chip_sim check failed: " << why << "\n";
  rep->Count(ok);
  return wall_s;
}

/// Runs the seeded chip_sim runs in order on `threads` threads, in
/// batches of four rounds, until `seconds` pass. Returns runs/s;
/// appends each run's wall time [ms] and, when `rss_mb` is given, each
/// batch's peak RSS [MiB].
double ChipPhase(const ChipRig& rig, const Inputs& inputs, std::size_t threads,
                 double seconds, std::size_t first_run, Reference& ref,
                 Report* rep, std::vector<double>* run_ms,
                 std::vector<double>* rss_mb) {
  constexpr std::size_t kBatchRuns = 16;
  std::mutex mu;
  std::size_t done = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t first = first_run; done == 0 || SecondsSince(start) < seconds;
       first += kBatchRuns) {
    ResetPeakRss();
    std::atomic<std::size_t> next{first};
    const auto worker = [&] {
      for (std::size_t n = next++; n < first + kBatchRuns; n = next++) {
        const ChipRun run = inputs.ChipRound(n / 4)[n % 4];
        const double wall = RunChip(rig, run, ChipDurationS(), ref, rep, &mu,
                                    static_cast<std::int64_t>(n));
        const std::lock_guard<std::mutex> lock(mu);
        run_ms->push_back(1e3 * wall);
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (rss_mb != nullptr) rss_mb->push_back(PeakRssMb());
    done += kBatchRuns;
  }
  return static_cast<double>(done) / SecondsSince(start);
}

Report TimedChip(const Ctx& ctx, const Inputs& inputs, Reference& ref) {
  Report rep;
  std::vector<double> setup_s;
  ChipRig rig;
  for (int i = 0; i < (ctx.tiny ? 1 : 3); ++i) {
    rig = SetUpChip();
    setup_s.push_back(rig.setup_s);
  }
  // Runs at T threads, then one at a time (latency: a run's whole
  // result arrives when it ends). Peak RSS: the concurrent phase.
  std::vector<double> parallel_ms, alone_ms, rss_mb;
  const double jps = ChipPhase(rig, inputs, ctx.threads, 0.5 * ctx.seconds, 0, ref,
                               &rep, &parallel_ms, &rss_mb);
  const double jps_1t = ChipPhase(rig, inputs, 1, 0.5 * ctx.seconds, 1 << 20, ref,
                                  &rep, &alone_ms, nullptr);
  rep.Set("setup_s", Median(setup_s));
  rep.Set("jobs_per_s", jps);
  rep.Set("jobs_per_s_1t", jps_1t);
  rep.Set("first_row_p50_ms", Percentile(alone_ms, 0.50));
  rep.Set("first_row_p95_ms", Percentile(alone_ms, 0.95));
  rep.Set("peak_rss_mb", Median(rss_mb));
  return rep;
}

Report TracedChip(const Ctx& ctx, const Inputs& inputs, Reference& ref) {
  Report rep;
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  const ChipRig rig = SetUpChip();
  const ds::runtime::ModelCache::Stats cs = rig.cache->stats();
  rep.Set("runtime.model_cache.misses", static_cast<double>(cs.misses));
  rep.Set("runtime.model_cache.mb", static_cast<double>(cs.bytes) / (1024.0 * 1024.0));

  // Alternating untraced / traced rounds of the same four runs.
  std::mutex mu;
  std::vector<double> untraced_s, traced_s;
  double sim_s = 0.0, wall_s = 0.0, runs = 0.0, step_us = 0.0;
  std::uint64_t counts[5] = {0, 0, 0, 0, 0};
  const char* const kCounters[5] = {"thermal.kernel.propagator_steps",
                                    "thermal.kernel.hold_steps",
                                    "thermal.kernel.lu_steps", "lu.factorizations",
                                    "thermal.steady_solves"};
  ds::telemetry::Histogram& step_hist =
      ds::telemetry::Registry().GetHistogram("thermal.transient_step_us");
  for (std::size_t r = 0; r < (ctx.tiny ? 1u : 2u); ++r) {
    const std::vector<ChipRun> round = inputs.ChipRound(r);
    for (const bool traced : {false, true}) {
      ds::telemetry::SetEnabled(traced);
      tracer.set_enabled(traced);
      std::uint64_t before[5];
      for (int c = 0; c < 5; ++c) before[c] = CounterValue(kCounters[c]);
      const double hist0 = step_hist.sum();
      double round_s = 0.0;
      for (std::size_t i = 0; i < round.size(); ++i)
        round_s += RunChip(rig, round[i], ChipDurationS(), ref, &rep, &mu,
                           static_cast<std::int64_t>(4 * r + i));
      (traced ? traced_s : untraced_s).push_back(round_s);
      if (traced) {
        for (int c = 0; c < 5; ++c) counts[c] += CounterValue(kCounters[c]) - before[c];
        step_us += step_hist.sum() - hist0;
        runs += static_cast<double>(round.size());
      } else {
        sim_s += ChipDurationS() * static_cast<double>(round.size());
        wall_s += round_s;
      }
    }
  }
  ds::telemetry::SetEnabled(false);
  tracer.set_enabled(true);
  double traced_total = 0.0;
  for (const double s : traced_s) traced_total += s;
  rep.Set("telemetry.overhead_frac", Median(traced_s) / Median(untraced_s) - 1.0);
  rep.Set("sim_s_per_s", sim_s / wall_s);
  rep.Set("thermal.kernel.propagator_steps", static_cast<double>(counts[0]) / runs);
  rep.Set("thermal.kernel.hold_steps", static_cast<double>(counts[1]) / runs);
  rep.Set("thermal.kernel.lu_steps", static_cast<double>(counts[2]) / runs);
  rep.Set("thermal.lu.factors_per_job", static_cast<double>(counts[3]) / runs);
  rep.Set("thermal.steady.solves_per_job", static_cast<double>(counts[4]) / runs);
  rep.Set("thermal.transient.step_share", 1e-6 * step_us / traced_total);
  MeasureModels({"16nm", "11nm"}, ctx.tiny, rep);
  return rep;
}

}  // namespace

Report RunBtSweep(const Ctx& ctx) {
  return SweepWorkload(ctx, Inputs(ctx.seed, ctx.heldout, ctx.tiny).bt_sweep(), "bt_sweep");
}

Report RunEstimateSweep(const Ctx& ctx) {
  return SweepWorkload(ctx, Inputs(ctx.seed, ctx.heldout, ctx.tiny).estimate_sweep(),
                       "estimate_sweep");
}

Report RunChipSim(const Ctx& ctx) {
  const Inputs inputs(ctx.seed, ctx.heldout, ctx.tiny);
  Reference ref = LoadReference(ctx, "chip_sim");
  return ctx.trace ? TracedChip(ctx, inputs, ref) : TimedChip(ctx, inputs, ref);
}

void WriteReferences(const std::string& data_dir, std::size_t threads) {
  for (const auto& [name, def] :
       {std::make_pair(std::string("bt_sweep"), BtUniverse()),
        std::make_pair(std::string("estimate_sweep"), EstimateUniverse())}) {
    const SweepRig rig = SetUpSweep(def.Json());
    const EngineRun run = RunEngine(rig, threads, false);
    std::vector<std::pair<std::string, std::pair<std::string, std::vector<double>>>> rows;
    for (std::size_t i = 0; i < rig.jobs.size(); ++i) {
      const JobResult& r = run.outcome.results[i];
      if (!r.ok) throw std::runtime_error(name + ": reference job failed: " + r.error);
      std::vector<double> values;
      for (const auto& m : r.metrics) values.push_back(m.second);
      rows.push_back({JobKey(rig.jobs[i]), {RowStatus(r), values}});
    }
    Reference::Write(data_dir + "/reference/" + name + ".csv",
                     ds::runtime::MetricColumns(rig.spec.kind()), rows);
    std::cerr << "perfbench: wrote " << rows.size() << " " << name << " reference rows\n";
  }
  const ChipRig rig = SetUpChip();
  std::vector<std::pair<std::string, std::pair<std::string, std::vector<double>>>> rows;
  std::vector<std::string> columns;
  for (const ChipRun& run : ChipUniverse()) {
    ds::sim::SimConfig config;
    config.duration_s = ChipDurationS();
    config.seed = run.arrival_seed;
    const ds::sim::FullSimResult result =
        ds::sim::ChipSimulator(rig.platforms.at(run.node), config).Run();
    std::vector<double> values;
    columns.clear();
    for (const auto& [name, v] : ChipMetrics(result)) {
      columns.push_back(name);
      values.push_back(v);
    }
    rows.push_back({ChipKey(run), {"ok", values}});
  }
  Reference::Write(data_dir + "/reference/chip_sim.csv", columns, rows);
  std::cerr << "perfbench: wrote " << rows.size() << " chip_sim reference rows\n";
}

}  // namespace pb
