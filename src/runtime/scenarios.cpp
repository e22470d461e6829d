#include "runtime/scenarios.hpp"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>

#include "apps/app_profile.hpp"
#include "core/boosting.hpp"
#include "thermal/batch_propagator.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "core/tsp.hpp"
#include "power/technology.hpp"
#include "uarch/characterize.hpp"
#include "uarch/multicore.hpp"
#include "uarch/trace_gen.hpp"
#include "util/contracts.hpp"

namespace ds::runtime {

namespace {

/// Builds the point's platform with cache-shared thermal assets
/// installed, so the job never factorizes a conductance matrix that any
/// earlier job (or concurrent job, after blocking on the build) already
/// produced.
arch::Platform MakePlatform(const SweepPoint& point, ModelCache& cache) {
  const power::TechnologyParams& tech = power::TechByName(point.node);
  arch::Platform platform =
      point.cores > 0 ? arch::Platform(tech.node, point.cores)
                      : arch::Platform::PaperPlatform(tech.node);
  if (point.tdtm_c > 0.0) platform.set_tdtm_c(point.tdtm_c);
  cache.InstallThermal(platform);
  return platform;
}

/// Fills `result->metrics` with `values`, in MetricColumns(kind) order.
void SetMetrics(SweepKind kind, std::initializer_list<double> values,
                JobResult* result) {
  const std::vector<std::string>& columns = MetricColumns(kind);
  DS_REQUIRE(values.size() == columns.size(),
             SweepKindName(kind) << ": " << values.size() << " values for "
                                 << columns.size() << " metric columns");
  result->metrics.clear();
  result->metrics.reserve(columns.size());
  const double* value = values.begin();
  for (const std::string& column : columns)
    result->metrics.emplace_back(column, *value++);
}

std::size_t LevelFor(const arch::Platform& platform, double freq_ghz) {
  if (freq_ghz <= 0.0) return platform.ladder().NominalLevel();
  return platform.ladder().LevelAtOrBelow(freq_ghz);
}

void RunEstimate(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  const apps::AppProfile& app = apps::AppByName(p.app);
  const core::DarkSiliconEstimator estimator(platform);
  const std::size_t level = LevelFor(platform, p.freq_ghz);
  const core::MappingPolicy policy = core::MappingPolicyByName(p.mapping);
  const core::Estimate e =
      p.constraint == "thermal"
          ? estimator.UnderTemperature(app, p.threads, level, policy)
          : estimator.UnderPowerBudget(app, p.threads, level, p.tdp_w,
                                       policy);
  SetMetrics(SweepKind::kEstimate,
             {platform.ladder()[level].freq,
              static_cast<double>(e.active_cores),
              static_cast<double>(e.instances), e.dark_fraction,
              e.total_power_w, e.budget_power_w, e.peak_temp_c,
              e.thermal_violation ? 1.0 : 0.0, e.total_gips},
             result);
}

void RunTspCurve(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  DS_REQUIRE(p.count >= 1 && p.count <= platform.num_cores(),
             "tsp_curve: count " << p.count << " out of 1.."
                                 << platform.num_cores());
  const double budget = p.mapping == "spread"
                            ? cache.TspBestCase(platform, p.count)
                            : cache.TspWorstCase(platform, p.count);
  SetMetrics(SweepKind::kTspCurve,
             {budget, budget * static_cast<double>(p.count)}, result);
}

void RunTspPerf(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  const apps::AppProfile& app = apps::AppByName(p.app);
  const core::Tsp tsp(platform);
  const std::size_t active = static_cast<std::size_t>(
      static_cast<double>(platform.num_cores()) * (1.0 - p.dark_pct / 100.0));
  DS_REQUIRE(active >= 1, "tsp_perf: dark_pct " << p.dark_pct
                                                << " leaves no active core");
  const double budget = p.mapping == "spread"
                            ? cache.TspBestCase(platform, active)
                            : cache.TspWorstCase(platform, active);
  std::size_t level = 0;
  double freq = 0.0;
  double gips = 0.0;
  const bool feasible =
      tsp.MaxLevelWithinBudget(app, p.threads, budget, &level);
  if (feasible) {
    // TSP operates within the nominal DVFS range (no boosting).
    level = std::min(level, platform.ladder().NominalLevel());
    freq = platform.ladder()[level].freq;
    const std::size_t instances = active / p.threads;
    gips = static_cast<double>(instances) * app.InstanceGips(p.threads, freq);
    if (active % p.threads != 0)
      gips += app.InstanceGips(active % p.threads, freq);
  }
  SetMetrics(SweepKind::kTspPerf,
             {static_cast<double>(active), budget, feasible ? 1.0 : 0.0, freq,
              gips},
             result);
}

void RunBoost(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  const apps::AppProfile& app = apps::AppByName(p.app);
  const core::BoostingSimulator sim(platform, app, p.instances, p.threads);
  const core::BoostingSimulator::Comparison c =
      sim.Compare(platform.tdtm_c(), p.power_cap_w);
  if (!c.feasible) {
    result->skipped = true;
    return;
  }
  SetMetrics(SweepKind::kBoost,
             {platform.ladder()[c.level].freq, sim.GipsAtLevel(c.level),
              c.steady.total_power_w, c.boost.avg_gips, c.boost.avg_power_w,
              c.boost.peak_power_w,
              platform.ladder()[c.boost.base_level].freq},
             result);
}

/// One boost_transient member. The platform and simulator live on the
/// heap so the pointers the simulator and the loop hold stay stable.
/// The member steps while it has a loop (not skipped or detached).
struct BtMember {
  JobResult* result = nullptr;
  std::unique_ptr<arch::Platform> platform;
  std::unique_ptr<core::BoostingSimulator> sim;
  std::optional<core::BoostLoop> loop;
  std::size_t handle = 0;  // BatchStepPropagator member handle
};

/// The row from a member's finished loop. Two of its cells differ from
/// RunBoosting's trace by definition: max_temp_c also counts the peak
/// the first period started from (the trace samples after each step),
/// and avg_power_w divides by the simulated time (the trace by the
/// requested duration).
void FinishRow(BtMember& m, const thermal::BatchStepPropagator& batch,
               double simulated_s) {
  const core::BoostTrace t = m.loop->Finish(
      batch.MemberState(m.handle).first(batch.num_cores()));
  SetMetrics(SweepKind::kBoostTransient,
             {t.avg_gips, t.energy_j / simulated_s, t.energy_j,
              t.max_power_w, std::max(m.loop->warm_peak_c(), t.max_temp_c),
              batch.PeakDieTemp(m.handle),
              m.platform->ladder()[m.loop->level()].freq},
             m.result);
  m.result->ok = true;
}

void RunCharacterize(const SweepPoint& p, JobResult* result) {
  const uarch::Characterization c =
      uarch::Characterize(uarch::TraceParamsByName(p.app));
  SetMetrics(SweepKind::kCharacterize,
             {c.ipc, c.ceff22_nf, c.pind22_w, c.sim.l1_miss_rate,
              c.sim.mpki_l2, c.sim.branch_mispredict_rate},
             result);
}

void RunSpeedup(const SweepPoint& p, JobResult* result) {
  const uarch::SyncParams& params = uarch::SyncParamsByName(p.app);
  std::vector<uarch::SpeedupResult> curve;
  for (const std::size_t n : {2UL, 4UL, 8UL, 16UL, 64UL})
    curve.push_back(uarch::SimulateSpeedup(params, n));
  const uarch::SpeedupResult& at8 = curve[2];
  SetMetrics(SweepKind::kSpeedup,
             {curve[0].speedup, curve[1].speedup, curve[2].speedup,
              curve[3].speedup, curve[4].speedup,
              uarch::FitSerialFraction(curve), at8.lock_wait_fraction,
              at8.barrier_wait_fraction},
             result);
}

}  // namespace

void RunBoostTransientCohort(
    std::span<const SweepJob* const> jobs, ModelCache& cache,
    std::span<JobResult* const> results,
    const std::function<bool(std::size_t)>& should_detach,
    std::vector<bool>* detached) {
  DS_REQUIRE(jobs.size() == results.size() && !jobs.empty(),
             "RunBoostTransientCohort: " << jobs.size() << " jobs, "
                                         << results.size() << " results");
  DS_REQUIRE(detached != nullptr && detached->size() == jobs.size(),
             "RunBoostTransientCohort: detached vector size mismatch");
  const bool cohort_mode = static_cast<bool>(should_detach);
  const std::size_t k = jobs.size();

  // dt and step count are cohort-wide, so the cohort key MUST split
  // on both; enforce it here so a key regression is a loud cohort
  // failure (-> scalar re-run), never silent rows simulated for the
  // wrong horizon.
  for (std::size_t i = 1; i < k; ++i)
    DS_REQUIRE(jobs[i]->point.control_ms == jobs[0]->point.control_ms &&
                   jobs[i]->point.duration_s == jobs[0]->point.duration_s,
               "RunBoostTransientCohort: member " << i
                   << " mixes control_ms/duration_s with member 0");
  const double dt_s = jobs[0]->point.control_ms * 1e-3;

  std::vector<BtMember> members(k);
  std::unique_ptr<thermal::BatchStepPropagator> batch;
  std::size_t steps = 0;

  for (std::size_t i = 0; i < k; ++i) {
    BtMember& m = members[i];
    const SweepPoint& p = jobs[i]->point;
    m.result = results[i];
    try {
      m.platform = std::make_unique<arch::Platform>(MakePlatform(p, cache));
      m.sim = std::make_unique<core::BoostingSimulator>(
          *m.platform, apps::AppByName(p.app), p.instances, p.threads,
          core::MappingPolicyByName(p.mapping));
      std::size_t level = 0;
      if (!m.sim->MaxSafeConstantLevel(p.power_cap_w, &level)) {
        m.result->skipped = true;
        m.result->ok = true;
        continue;
      }
      m.loop.emplace(*m.sim,
                     core::BoostLaw{core::BoostLaw::Kind::kTurbo,
                                    m.platform->tdtm_c(), p.power_cap_w},
                     level, p.duration_s, dt_s);
      if (batch == nullptr) {
        // One folded propagator serves the whole cohort; the shared
        // PropagatorSet memoizes it across cohorts and sweep threads.
        batch = std::make_unique<thermal::BatchStepPropagator>(
            m.platform->propagators()->For(m.platform->thermal_model(),
                                           dt_s),
            k);
        steps = m.loop->steps();
      }
      // The warm start on the model's cached solver (MakePlatform just
      // installed it): deterministic, so every lane and cohort size
      // starts from bitwise the same state.
      m.handle = batch->AddMember(m.sim->SteadyWarmStart(level),
                                  m.platform->solver());
    } catch (...) {
      if (!cohort_mode) throw;
      m.loop.reset();
      (*detached)[i] = true;
    }
  }

  if (batch == nullptr) return;  // every member skipped or detached

  const auto detach = [&](std::size_t i) {
    batch->RemoveMember(members[i].handle);
    members[i].loop.reset();
    (*detached)[i] = true;
  };
  for (std::size_t s = 0; s < steps; ++s) {
    std::size_t stepping = 0;
    for (std::size_t i = 0; i < k; ++i) {
      BtMember& m = members[i];
      if (!m.loop) continue;
      if (cohort_mode && should_detach(i)) {
        detach(i);
        continue;
      }
      try {
        batch->SetPowers(m.handle,
                         m.loop->Control(batch->MemberState(m.handle).first(
                             batch->num_cores())));
        ++stepping;
      } catch (...) {
        if (!cohort_mode) throw;
        detach(i);
      }
    }
    if (stepping == 0) return;
    batch->Step();
  }

  for (BtMember& m : members)
    if (m.loop) FinishRow(m, *batch, static_cast<double>(steps) * dt_s);
}

void RunScenario(SweepKind kind, const SweepJob& job, ModelCache& cache,
                 JobResult* result) {
  result->index = job.index;
  switch (kind) {
    case SweepKind::kEstimate: RunEstimate(job.point, cache, result); break;
    case SweepKind::kTspCurve: RunTspCurve(job.point, cache, result); break;
    case SweepKind::kTspPerf: RunTspPerf(job.point, cache, result); break;
    case SweepKind::kBoost: RunBoost(job.point, cache, result); break;
    case SweepKind::kCharacterize: RunCharacterize(job.point, result); break;
    case SweepKind::kSpeedup: RunSpeedup(job.point, result); break;
    case SweepKind::kBoostTransient: {
      // Scalar lane = a cohort of one through the same panel-kernel
      // code, which is what keeps sweep CSVs byte-identical at any
      // cohort width. A null detach predicate lets exceptions
      // propagate to the engine's retry classification.
      const SweepJob* jp = &job;
      JobResult* rp = result;
      std::vector<bool> detached(1, false);
      RunBoostTransientCohort({&jp, 1}, cache, {&rp, 1}, nullptr,
                              &detached);
      break;
    }
  }
  result->ok = true;
}

bool KindIsBatchable(SweepKind kind) {
  return kind == SweepKind::kBoostTransient;
}

std::string BatchCohortKey(SweepKind kind, const SweepPoint& point) {
  if (!KindIsBatchable(kind)) return "";
  // (node, cores) pins the floorplan/package content -- and therefore
  // the model hash -- and control_ms pins dt; duration_s pins the step
  // count (RunBoostTransientCohort derives it from jobs[0], so a
  // mixed-duration cohort would run every member for the first
  // member's horizon); tdtm_c does not enter the RC model but DOES
  // change ThermalAssets installation inputs, so it is included
  // conservatively.
  std::string key = point.node;
  key += '/';
  key += CanonicalNumber(static_cast<double>(point.cores));
  key += '/';
  key += CanonicalNumber(point.control_ms);
  key += '/';
  key += CanonicalNumber(point.duration_s);
  key += '/';
  key += CanonicalNumber(point.tdtm_c);
  return key;
}

const std::vector<std::string>& MetricColumns(SweepKind kind) {
  static const std::vector<std::string> kEstimate{
      "level_freq_ghz", "active_cores",   "instances",
      "dark_frac",      "total_power_w",  "budget_power_w",
      "peak_temp_c",    "violation",      "gips"};
  static const std::vector<std::string> kTspCurve{"tsp_w_per_core",
                                                  "total_w"};
  static const std::vector<std::string> kTspPerf{
      "active", "budget_w_per_core", "feasible", "freq_ghz", "gips"};
  static const std::vector<std::string> kBoost{
      "const_freq_ghz",    "const_gips",         "const_power_w",
      "boost_gips",        "boost_avg_power_w",  "boost_peak_power_w",
      "boost_base_freq_ghz"};
  static const std::vector<std::string> kCharacterize{
      "ipc",     "ceff22_nf", "pind22_w", "l1_miss_rate",
      "mpki_l2", "branch_mispredict_rate"};
  static const std::vector<std::string> kSpeedup{
      "s2",  "s4",  "s8",  "s16", "s64", "serial_frac_fit",
      "lock_wait_frac", "barrier_wait_frac"};
  static const std::vector<std::string> kBoostTransient{
      "avg_gips",    "avg_power_w",  "energy_j",      "max_power_w",
      "max_temp_c",  "final_peak_c", "final_freq_ghz"};
  switch (kind) {
    case SweepKind::kEstimate: return kEstimate;
    case SweepKind::kTspCurve: return kTspCurve;
    case SweepKind::kTspPerf: return kTspPerf;
    case SweepKind::kBoost: return kBoost;
    case SweepKind::kCharacterize: return kCharacterize;
    case SweepKind::kSpeedup: return kSpeedup;
    case SweepKind::kBoostTransient: return kBoostTransient;
  }
  DS_REQUIRE(false, "MetricColumns: invalid kind");
}

}  // namespace ds::runtime
