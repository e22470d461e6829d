#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "apps/app_profile.hpp"
#include "core/boosting.hpp"
#include "core/estimator.hpp"
#include "power/technology.hpp"
#include "rig.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/batch_propagator.hpp"
#include "thermal/propagator.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

namespace pb {

using ds::runtime::JobResult;
using ds::runtime::SweepJob;
using ds::runtime::SweepKind;

ds::arch::Platform PlatformFor(const ds::runtime::SweepPoint& p) {
  const ds::power::TechnologyParams& tech = ds::power::TechByName(p.node);
  ds::arch::Platform platform =
      p.cores > 0 ? ds::arch::Platform(tech.node, p.cores)
                  : ds::arch::Platform::PaperPlatform(tech.node);
  if (p.tdtm_c > 0.0) platform.set_tdtm_c(p.tdtm_c);
  return platform;
}

SweepRig SetUpSweep(const std::string& spec_text) {
  const Clock::time_point t0 = Clock::now();
  SweepRig rig;
  {
    const ScopedSpan span("SweepSpec::FromJsonText+Jobs", "runtime");
    rig.spec = ds::runtime::SweepSpec::FromJsonText(spec_text);
    rig.jobs = rig.spec.Jobs();
    rig.expand_ms = span.ms();
  }
  rig.cache = std::make_unique<ds::runtime::ModelCache>();
  const bool batchable = ds::runtime::KindIsBatchable(rig.spec.kind());
  std::map<std::pair<std::string, std::size_t>, ds::arch::Platform> platforms;
  std::set<std::tuple<std::string, std::size_t, double>> folds;
  for (const SweepJob& job : rig.jobs) {
    const auto key = std::make_pair(job.point.node, job.point.cores);
    auto it = platforms.find(key);
    if (it == platforms.end()) {
      ds::arch::Platform platform = PlatformFor(job.point);
      {
        const ScopedSpan span("ModelCache::InstallThermal", "runtime");
        rig.cache->InstallThermal(platform);
      }
      it = platforms.emplace(key, std::move(platform)).first;
    }
    if (batchable &&
        folds.emplace(key.first, key.second, job.point.control_ms).second) {
      const ScopedSpan span("PropagatorSet::For", "thermal");
      it->second.propagators()->For(it->second.thermal_model(),
                                    job.point.control_ms * 1e-3);
    }
  }
  rig.setup_s = SecondsSince(t0);
  return rig;
}

EngineRun RunEngine(const SweepRig& rig, std::size_t threads, bool stream) {
  EngineRun run;
  std::mutex mu;
  std::vector<double> delivered(rig.jobs.size(), 0.0);
  Clock::time_point t0;
  ds::runtime::SweepOptions options;
  options.threads = threads;
  options.cache = rig.cache.get();
  if (stream)
    options.on_result = [&](const JobResult& r) {
      const double t = MsSince(t0);
      const std::lock_guard<std::mutex> lock(mu);
      if (r.index < delivered.size()) delivered[r.index] = t;
    };
  ds::runtime::SweepEngine engine(rig.spec, std::move(options));
  t0 = Clock::now();
  run.outcome = engine.Run();
  run.wall_s = SecondsSince(t0);
  if (stream) {
    double prefix = 0.0;
    for (const double t : delivered) {
      prefix = std::max(prefix, t);
      run.row_ms.push_back(prefix);
    }
  }
  return run;
}

const char* RowStatus(const JobResult& r) {
  if (r.quarantined) return "quarantined";
  if (!r.ok) return "failed";
  return r.skipped ? "skipped" : "ok";
}

void CheckRows(const std::vector<SweepJob>& jobs,
               const std::vector<JobResult>& results, Reference& ref,
               Report& rep) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string why;
    const bool ok = i < results.size() && results[i].ok &&
                    ref.Check(JobKey(jobs[i]), RowStatus(results[i]),
                              results[i].metrics, &why);
    if (!ok && rep.failed == 0)
      std::cerr << "perfbench: row check failed: "
                << (why.empty() ? "job " + std::to_string(i) + " not ok" : why)
                << "\n";
    rep.Count(ok);
  }
}

std::uint64_t CounterValue(const char* name) {
  return ds::telemetry::Registry().GetCounter(name).value();
}

namespace {

/// Repeats `fn` until `min_s` has passed and at least `min_reps` calls
/// ran; returns the median time per call [us].
template <typename Fn>
double TimeUs(Fn&& fn, std::size_t min_reps, double min_s) {
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  while (us.size() < min_reps || SecondsSince(start) < min_s) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(1e6 * SecondsSince(t0));
  }
  return Median(us);
}

/// Steady state under 2 W per core: a realistic mid-load start.
std::vector<double> WarmState(const ds::arch::Platform& platform,
                              std::vector<double>* powers) {
  powers->assign(platform.num_cores(), 2.0);
  return platform.solver().SolveFull(*powers);
}

}  // namespace

void MeasureModels(const std::vector<std::string>& nodes, bool tiny,
                   Report& rep) {
  const double min_s = tiny ? 0.01 : 0.05;
  std::map<std::string, std::vector<double>> per_model;
  for (const std::string& node : nodes) {
    ds::runtime::SweepPoint point;
    point.node = node;
    ds::runtime::ModelCache cache;
    ds::arch::Platform platform = PlatformFor(point);
    {
      const ScopedSpan span("ModelCache::InstallThermal", "runtime");
      cache.InstallThermal(platform);
      per_model["runtime.model_cache.build_ms"].push_back(span.ms());
    }
    per_model["arch.platform_us"].push_back(TimeUs(
        [&] {
          ds::arch::Platform p = PlatformFor(point);
          cache.InstallThermal(p);
        },
        5, min_s));
    const ds::thermal::RcModel& model = platform.thermal_model();
    std::optional<ds::thermal::SteadyStateSolver> solver;
    {
      const ScopedSpan span("SteadyStateSolver::SteadyStateSolver", "thermal");
      solver.emplace(model);
      per_model["thermal.lu.factor_ms"].push_back(span.ms());
    }
    {
      const ScopedSpan span("SteadyStateSolver::InfluenceMatrix", "thermal");
      solver->InfluenceMatrix();
      per_model["thermal.influence.build_ms"].push_back(span.ms());
    }
    std::vector<double> powers;
    const std::vector<double> state = WarmState(platform, &powers);
    per_model["thermal.steady.solve_us"].push_back(
        TimeUs([&] { solver->SolveFull(powers); }, 10, min_s));
    // The fold: the first For() on the cache's empty set constructs the
    // StepPropagator. Batched stepping below runs on this one shared
    // propagator, as production cohorts and the k = 1 scalar lane do.
    std::shared_ptr<const ds::thermal::StepPropagator> prop;
    {
      const ScopedSpan span("PropagatorSet::For", "thermal");
      prop = platform.propagators()->For(model, 1e-3);
      per_model["thermal.fold.build_ms"].push_back(span.ms());
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{16}}) {
      ds::thermal::BatchStepPropagator batch(prop, k);
      for (std::size_t m = 0; m < k; ++m)
        batch.SetPowers(batch.AddMember(state), powers);
      for (int i = 0; i < 5; ++i) batch.Step();
      const double step_us = TimeUs([&] { batch.Step(); }, 10, min_s);
      if (k == 1) {
        per_model["thermal.batch.member_step_us_k1"].push_back(step_us);
      } else {
        per_model["thermal.batch.member_step_us_k16"].push_back(step_us / 16.0);
        const double n = static_cast<double>(prop->num_nodes());
        const double c = static_cast<double>(prop->num_cores());
        per_model["thermal.batch.gflop_s_k16"].push_back(
            2.0 * n * (n + c) * 16.0 / (step_us * 1e3));
      }
    }
    // The per-job simulator chip_sim steps, past its kAuto upgrade.
    ds::thermal::TransientSimulator sim(model, 1e-3,
                                        ds::thermal::StepKernel::kAuto,
                                        platform.propagators());
    sim.InitializeSteadyState(powers);
    for (std::size_t i = 0; i < ds::thermal::TransientSimulator::kAutoUpgradeSteps + 8; ++i)
      sim.Step(powers);
    per_model["thermal.transient.step_us"].push_back(
        TimeUs([&] { sim.Step(powers); }, 10, min_s));
  }
  for (const auto& [name, values] : per_model) rep.Set(name, Mean(values));
}

namespace {

void CheckReplay(const SweepJob& job, const JobResult& replayed,
                 Reference& ref, ReplayTotals* totals) {
  std::string why;
  if (!ref.Check(JobKey(job), RowStatus(replayed), replayed.metrics, &why)) {
    if (totals->drifted == 0)
      std::cerr << "perfbench: replay drifted from the runner: " << why << "\n";
    ++totals->drifted;
  }
}

void ReplayEstimate(const SweepJob& job, ds::runtime::ModelCache& cache,
                    Reference& ref, ReplayTotals* totals) {
  const std::int64_t req = static_cast<std::int64_t>(job.index);
  const ds::runtime::SweepPoint& p = job.point;
  std::optional<ds::arch::Platform> platform;
  double attributed = 0.0;
  {
    const ScopedSpan span("Platform+InstallThermal", "arch", req);
    platform.emplace(PlatformFor(p));
    cache.InstallThermal(*platform);
    attributed += span.ms();
  }
  const ds::apps::AppProfile& app = ds::apps::AppByName(p.app);
  const std::size_t level = p.freq_ghz <= 0.0
                                ? platform->ladder().NominalLevel()
                                : platform->ladder().LevelAtOrBelow(p.freq_ghz);
  ds::core::Estimate e;
  if (p.constraint == "thermal") {
    const ScopedSpan span("DarkSiliconEstimator::UnderTemperature", "core", req);
    const ds::core::DarkSiliconEstimator estimator(*platform);
    e = estimator.UnderTemperature(app, p.threads, level);
    totals->estimate_thermal_ms.push_back(span.ms());
    attributed += span.ms();
  } else {
    const ScopedSpan span("DarkSiliconEstimator::UnderPowerBudget", "core", req);
    const ds::core::DarkSiliconEstimator estimator(*platform);
    e = estimator.UnderPowerBudget(app, p.threads, level, p.tdp_w);
    totals->estimate_tdp_ms.push_back(span.ms());
    attributed += span.ms();
  }
  totals->attributed_ms += attributed;
  JobResult r;
  r.ok = true;
  r.metrics = {{"level_freq_ghz", platform->ladder()[level].freq},
               {"active_cores", static_cast<double>(e.active_cores)},
               {"instances", static_cast<double>(e.instances)},
               {"dark_frac", e.dark_fraction},
               {"total_power_w", e.total_power_w},
               {"budget_power_w", e.budget_power_w},
               {"peak_temp_c", e.peak_temp_c},
               {"violation", e.thermal_violation ? 1.0 : 0.0},
               {"gips", e.total_gips}};
  CheckReplay(job, r, ref, totals);
}

/// The boost_transient runner's sequence for one job (a cohort of one):
/// level search, 3-iteration steady warm start, fold lookup, settle
/// hold, then one control decision and one panel step per period.
void ReplayBoostTransient(const SweepJob& job, ds::runtime::ModelCache& cache,
                          Reference& ref, ReplayTotals* totals) {
  constexpr std::size_t kSettleSteps = 8;
  const std::int64_t req = static_cast<std::int64_t>(job.index);
  const ds::runtime::SweepPoint& p = job.point;
  double attributed = 0.0;
  std::optional<ds::arch::Platform> platform;
  {
    const ScopedSpan span("Platform+InstallThermal", "arch", req);
    platform.emplace(PlatformFor(p));
    cache.InstallThermal(*platform);
    attributed += span.ms();
  }
  std::optional<ds::core::BoostingSimulator> boosting;
  {
    const ScopedSpan span("BoostingSimulator::BoostingSimulator", "core", req);
    boosting.emplace(*platform, ds::apps::AppByName(p.app), p.instances, p.threads);
    attributed += span.ms();
  }
  const ds::core::BoostingSimulator& sim = *boosting;
  std::size_t level = 0;
  bool feasible = false;
  {
    const ScopedSpan span("BoostingSimulator::MaxSafeConstantLevel", "core", req);
    feasible = sim.MaxSafeConstantLevel(p.power_cap_w, &level);
    totals->level_search_ms.push_back(span.ms());
    attributed += span.ms();
  }
  JobResult r;
  r.ok = true;
  if (!feasible) {
    r.skipped = true;
    totals->attributed_ms += attributed;
    CheckReplay(job, r, ref, totals);
    return;
  }
  const std::size_t cores = platform->num_cores();
  const ds::thermal::RcModel& model = platform->thermal_model();
  std::vector<double> temps(cores, model.ambient_c());
  std::vector<double> powers;
  std::vector<double> state;
  std::optional<ds::thermal::SteadyStateSolver> solver;
  {
    const ScopedSpan span("SteadyStateSolver::SteadyStateSolver", "thermal", req);
    solver.emplace(model);
    attributed += span.ms();
  }
  for (int it = 0; it < 3; ++it) {
    {
      const ScopedSpan span("BoostingSimulator::CorePowersAt", "core", req);
      powers = sim.CorePowersAt(level, temps);
      attributed += span.ms();
    }
    {
      const ScopedSpan span("SteadyStateSolver::SolveFull", "thermal", req);
      state = solver->SolveFull(powers);
      attributed += span.ms();
    }
    temps.assign(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(cores));
  }
  const double dt_s = p.control_ms * 1e-3;
  std::shared_ptr<const ds::thermal::StepPropagator> prop;
  {
    const ScopedSpan span("PropagatorSet::For", "thermal", req);
    prop = platform->propagators()->For(model, dt_s);
    attributed += span.ms();
  }
  std::optional<ds::thermal::BatchStepPropagator> panel;
  std::size_t h = 0;
  {
    const ScopedSpan span("BatchStepPropagator::AddMember", "thermal", req);
    panel.emplace(prop, 1);
    h = panel->AddMember(state);
    panel->SetPowers(h, powers);
    attributed += span.ms();
  }
  ds::thermal::BatchStepPropagator& batch = *panel;
  {
    const ScopedSpan span("BatchStepPropagator::StepN", "thermal", req);
    batch.StepN(kSettleSteps);
    attributed += span.ms();
  }
  const std::size_t steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(p.duration_s / dt_s)));
  const ds::power::DvfsLadder& ladder = platform->ladder();
  double gips_acc = 0.0, energy_acc = 0.0, max_power = 0.0, max_temp = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    const double peak = batch.PeakDieTemp(h);
    const auto member = batch.MemberState(h);
    temps.assign(member.begin(), member.begin() + static_cast<std::ptrdiff_t>(cores));
    double control_ms = 0.0;
    if (peak < platform->tdtm_c()) {
      const std::size_t up = ladder.StepUp(level);
      if (up != level) {
        const ScopedSpan span("BoostingSimulator::CorePowersAt", "core", req);
        powers = sim.CorePowersAt(up, temps);
        double total_up = 0.0;
        for (const double w : powers) total_up += w;
        if (total_up <= p.power_cap_w) level = up;
        control_ms += span.ms();
      }
    } else {
      level = ladder.StepDown(level);
    }
    {
      const ScopedSpan span("BoostingSimulator::CorePowersAt", "core", req);
      powers = sim.CorePowersAt(level, temps);
      control_ms += span.ms();
    }
    totals->control_us.push_back(1e3 * control_ms);
    attributed += control_ms;
    double total_power = 0.0;
    for (const double w : powers) total_power += w;
    batch.SetPowers(h, powers);
    gips_acc += sim.GipsAtLevel(level);
    energy_acc += total_power * dt_s;
    max_power = std::max(max_power, total_power);
    max_temp = std::max(max_temp, peak);
    {
      const ScopedSpan span("BatchStepPropagator::Step", "thermal", req);
      batch.Step();
      attributed += span.ms();
    }
  }
  totals->attributed_ms += attributed;
  const double peak = batch.PeakDieTemp(h);
  const double duration_s = static_cast<double>(steps) * dt_s;
  r.metrics = {{"avg_gips", gips_acc / static_cast<double>(steps)},
               {"avg_power_w", energy_acc / duration_s},
               {"energy_j", energy_acc},
               {"max_power_w", max_power},
               {"max_temp_c", std::max(max_temp, peak)},
               {"final_peak_c", peak},
               {"final_freq_ghz", ladder[level].freq}};
  CheckReplay(job, r, ref, totals);
}

}  // namespace

void ReplayJob(SweepKind kind, const SweepJob& job,
               ds::runtime::ModelCache& cache, Reference& ref,
               ReplayTotals* totals) {
  const ScopedSpan root("job", "bench", static_cast<std::int64_t>(job.index));
  if (kind == SweepKind::kBoostTransient)
    ReplayBoostTransient(job, cache, ref, totals);
  else
    ReplayEstimate(job, cache, ref, totals);
}

}  // namespace pb
