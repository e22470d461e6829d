#include "runtime/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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

core::MappingPolicy PolicyByName(const std::string& name) {
  if (name == "contiguous") return core::MappingPolicy::kContiguous;
  if (name == "spread") return core::MappingPolicy::kSpread;
  if (name == "checkerboard") return core::MappingPolicy::kCheckerboard;
  if (name == "densest" || name == "worst")
    return core::MappingPolicy::kDensest;
  DS_REQUIRE(false, "RunScenario: unknown mapping policy '" << name << "'");
}

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

std::size_t LevelFor(const arch::Platform& platform, double freq_ghz) {
  if (freq_ghz <= 0.0) return platform.ladder().NominalLevel();
  return platform.ladder().LevelAtOrBelow(freq_ghz);
}

void RunEstimate(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  const apps::AppProfile& app = apps::AppByName(p.app);
  const core::DarkSiliconEstimator estimator(platform);
  const std::size_t level = LevelFor(platform, p.freq_ghz);
  const core::MappingPolicy policy = PolicyByName(p.mapping);
  const core::Estimate e =
      p.constraint == "thermal"
          ? estimator.UnderTemperature(app, p.threads, level, policy)
          : estimator.UnderPowerBudget(app, p.threads, level, p.tdp_w,
                                       policy);
  result->metrics = {
      {"level_freq_ghz", platform.ladder()[level].freq},
      {"active_cores", static_cast<double>(e.active_cores)},
      {"instances", static_cast<double>(e.instances)},
      {"dark_frac", e.dark_fraction},
      {"total_power_w", e.total_power_w},
      {"budget_power_w", e.budget_power_w},
      {"peak_temp_c", e.peak_temp_c},
      {"violation", e.thermal_violation ? 1.0 : 0.0},
      {"gips", e.total_gips},
  };
}

void RunTspCurve(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  DS_REQUIRE(p.count >= 1 && p.count <= platform.num_cores(),
             "tsp_curve: count " << p.count << " out of 1.."
                                 << platform.num_cores());
  const double budget = p.mapping == "spread"
                            ? cache.TspBestCase(platform, p.count)
                            : cache.TspWorstCase(platform, p.count);
  result->metrics = {
      {"tsp_w_per_core", budget},
      {"total_w", budget * static_cast<double>(p.count)},
  };
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
  result->metrics = {
      {"active", static_cast<double>(active)},
      {"budget_w_per_core", budget},
      {"feasible", feasible ? 1.0 : 0.0},
      {"freq_ghz", freq},
      {"gips", gips},
  };
}

void RunBoost(const SweepPoint& p, ModelCache& cache, JobResult* result) {
  const arch::Platform platform = MakePlatform(p, cache);
  const apps::AppProfile& app = apps::AppByName(p.app);
  const core::BoostingSimulator sim(platform, app, p.instances, p.threads);
  std::size_t level = 0;
  if (!sim.MaxSafeConstantLevel(p.power_cap_w, &level)) {
    result->skipped = true;
    return;
  }
  const core::Estimate steady = sim.SteadyAtLevel(level);
  const core::BoostingSimulator::QuasiSteadyBoost boost =
      sim.EstimateBoosting(platform.tdtm_c(), p.power_cap_w);
  result->metrics = {
      {"const_freq_ghz", platform.ladder()[level].freq},
      {"const_gips", sim.GipsAtLevel(level)},
      {"const_power_w", steady.total_power_w},
      {"boost_gips", boost.avg_gips},
      {"boost_avg_power_w", boost.avg_power_w},
      {"boost_peak_power_w", boost.peak_power_w},
      {"boost_base_freq_ghz", platform.ladder()[boost.base_level].freq},
  };
}

/// One boost_transient member's control state. The platform lives on
/// the heap so the BoostingSimulator's internal pointer stays stable
/// while the member vector grows.
struct BtMember {
  const SweepPoint* p = nullptr;
  JobResult* result = nullptr;
  std::unique_ptr<arch::Platform> platform;
  std::unique_ptr<core::BoostingSimulator> sim;
  std::size_t handle = 0;  // BatchStepPropagator member handle
  std::size_t level = 0;
  bool stepping = false;  // in the lockstep loop (not skipped/detached)
  double gips_acc = 0.0;
  double energy_acc = 0.0;
  double max_power_w = 0.0;
  double max_temp_c = 0.0;
};

/// Per-control-period control decision + power update for one member;
/// mirrors BoostingSimulator::RunBoosting's loop body against the
/// member's panel column instead of a private TransientSimulator.
void BtControlStep(BtMember& m, thermal::BatchStepPropagator& batch,
                   double dt_s, std::vector<double>& temps_buf,
                   std::vector<double>& powers_buf) {
  const power::DvfsLadder& ladder = m.platform->ladder();
  const double threshold_c = m.platform->tdtm_c();
  const double peak = batch.PeakDieTemp(m.handle);
  auto member_state = batch.MemberState(m.handle);
  temps_buf.assign(member_state.begin(),
                   member_state.begin() +
                       static_cast<std::ptrdiff_t>(
                           m.platform->num_cores()));
  if (peak < threshold_c) {
    const std::size_t up = ladder.StepUp(m.level);
    if (up != m.level) {
      powers_buf = m.sim->CorePowersAt(up, temps_buf);
      double total_up = 0.0;
      for (const double w : powers_buf) total_up += w;
      if (total_up <= m.p->power_cap_w) m.level = up;
    }
  } else {
    m.level = ladder.StepDown(m.level);
  }
  powers_buf = m.sim->CorePowersAt(m.level, temps_buf);
  double total_power = 0.0;
  for (const double w : powers_buf) total_power += w;
  batch.SetPowers(m.handle, powers_buf);

  const double gips = m.sim->GipsAtLevel(m.level);
  m.gips_acc += gips;
  m.energy_acc += total_power * dt_s;
  m.max_power_w = std::max(m.max_power_w, total_power);
  m.max_temp_c = std::max(m.max_temp_c, peak);
}

void BtFinishMember(BtMember& m, thermal::BatchStepPropagator& batch,
                    std::size_t steps, double duration_s) {
  const double peak = batch.PeakDieTemp(m.handle);
  m.max_temp_c = std::max(m.max_temp_c, peak);
  m.result->metrics = {
      {"avg_gips", m.gips_acc / static_cast<double>(steps)},
      {"avg_power_w", m.energy_acc / duration_s},
      {"energy_j", m.energy_acc},
      {"max_power_w", m.max_power_w},
      {"max_temp_c", m.max_temp_c},
      {"final_peak_c", peak},
      {"final_freq_ghz", m.platform->ladder()[m.level].freq},
  };
  m.result->ok = true;
}

void RunCharacterize(const SweepPoint& p, JobResult* result) {
  const uarch::Characterization c =
      uarch::Characterize(uarch::TraceParamsByName(p.app));
  result->metrics = {
      {"ipc", c.ipc},
      {"ceff22_nf", c.ceff22_nf},
      {"pind22_w", c.pind22_w},
      {"l1_miss_rate", c.sim.l1_miss_rate},
      {"mpki_l2", c.sim.mpki_l2},
      {"branch_mispredict_rate", c.sim.branch_mispredict_rate},
  };
}

void RunSpeedup(const SweepPoint& p, JobResult* result) {
  const uarch::SyncParams& params = uarch::SyncParamsByName(p.app);
  std::vector<uarch::SpeedupResult> curve;
  for (const std::size_t n : {2UL, 4UL, 8UL, 16UL, 64UL})
    curve.push_back(uarch::SimulateSpeedup(params, n));
  const uarch::SpeedupResult& at8 = curve[2];
  result->metrics = {
      {"s2", curve[0].speedup},
      {"s4", curve[1].speedup},
      {"s8", curve[2].speedup},
      {"s16", curve[3].speedup},
      {"s64", curve[4].speedup},
      {"serial_frac_fit", uarch::FitSerialFraction(curve)},
      {"lock_wait_frac", at8.lock_wait_fraction},
      {"barrier_wait_frac", at8.barrier_wait_fraction},
  };
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

  const double dt_s = jobs[0]->point.control_ms * 1e-3;
  const std::size_t steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(jobs[0]->point.duration_s / dt_s)));
  const double duration_s = static_cast<double>(steps) * dt_s;
  // dt and step count are cohort-wide (derived from jobs[0]), so the
  // cohort key MUST split on both; enforce it here so a key regression
  // is a loud cohort failure (-> scalar re-run), never silent rows
  // simulated for the wrong horizon.
  for (std::size_t i = 1; i < k; ++i)
    DS_REQUIRE(jobs[i]->point.control_ms == jobs[0]->point.control_ms &&
                   jobs[i]->point.duration_s == jobs[0]->point.duration_s,
               "RunBoostTransientCohort: member " << i
                   << " mixes control_ms/duration_s with member 0");

  std::vector<BtMember> members(k);
  std::unique_ptr<thermal::BatchStepPropagator> batch;
  // Shared control-step scratch, hoisted out of the stepping loop:
  // every member's control step fully overwrites it, so sharing is
  // safe and the hot path stays allocation-light.
  std::vector<double> temps_buf;
  std::vector<double> powers_buf;

  for (std::size_t i = 0; i < k; ++i) {
    BtMember& m = members[i];
    m.p = &jobs[i]->point;
    m.result = results[i];
    bool added = false;
    try {
      m.platform =
          std::make_unique<arch::Platform>(MakePlatform(*m.p, cache));
      const apps::AppProfile& app = apps::AppByName(m.p->app);
      m.sim = std::make_unique<core::BoostingSimulator>(
          *m.platform, app, m.p->instances, m.p->threads,
          PolicyByName(m.p->mapping));
      std::size_t level = 0;
      if (!m.sim->MaxSafeConstantLevel(m.p->power_cap_w, &level)) {
        m.result->skipped = true;
        m.result->ok = true;
        continue;
      }
      m.level = level;
      // BoostingSimulator's closed-loop warm start, on the model's
      // cached solver (MakePlatform just installed it); the solver is
      // deterministic, so every lane and cohort size starts from
      // bitwise the same state.
      const core::BoostingSimulator::WarmStart warm =
          m.sim->SteadyWarmStart(level);
      if (batch == nullptr) {
        // One folded propagator serves the whole cohort; the shared
        // PropagatorSet memoizes it across cohorts and sweep threads.
        batch = std::make_unique<thermal::BatchStepPropagator>(
            m.platform->propagators()->For(m.platform->thermal_model(),
                                           dt_s),
            k);
      }
      m.handle = batch->AddMember(warm.state);
      added = true;
      batch->SetPowers(m.handle, warm.powers);
      m.stepping = true;
    } catch (...) {
      // Evict a half-initialized member (e.g. SetPowers rejected a
      // non-finite power after AddMember succeeded) so the cohort does
      // not step a ghost column for the whole run.
      if (added && batch != nullptr) batch->RemoveMember(m.handle);
      if (!cohort_mode) throw;
      (*detached)[i] = true;
    }
  }

  if (batch == nullptr) return;  // every member skipped or detached

  for (std::size_t s = 0; s < steps; ++s) {
    std::size_t stepping = 0;
    for (std::size_t i = 0; i < k; ++i) {
      BtMember& m = members[i];
      if (!m.stepping) continue;
      if (cohort_mode && should_detach(i)) {
        batch->RemoveMember(m.handle);
        m.stepping = false;
        (*detached)[i] = true;
        continue;
      }
      try {
        BtControlStep(m, *batch, dt_s, temps_buf, powers_buf);
        ++stepping;
      } catch (...) {
        if (!cohort_mode) throw;
        batch->RemoveMember(m.handle);
        m.stepping = false;
        (*detached)[i] = true;
      }
    }
    if (stepping == 0) return;
    batch->Step();
  }

  for (BtMember& m : members)
    if (m.stepping) BtFinishMember(m, *batch, steps, duration_s);
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
      RunBoostTransientCohort(std::span<const SweepJob* const>(&jp, 1),
                              cache, std::span<JobResult* const>(&rp, 1),
                              nullptr, &detached);
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

std::vector<std::string> MetricColumns(SweepKind kind) {
  switch (kind) {
    case SweepKind::kEstimate:
      return {"level_freq_ghz", "active_cores", "instances",
              "dark_frac",      "total_power_w", "budget_power_w",
              "peak_temp_c",    "violation",     "gips"};
    case SweepKind::kTspCurve:
      return {"tsp_w_per_core", "total_w"};
    case SweepKind::kTspPerf:
      return {"active", "budget_w_per_core", "feasible", "freq_ghz", "gips"};
    case SweepKind::kBoost:
      return {"const_freq_ghz",    "const_gips",
              "const_power_w",     "boost_gips",
              "boost_avg_power_w", "boost_peak_power_w",
              "boost_base_freq_ghz"};
    case SweepKind::kCharacterize:
      return {"ipc",         "ceff22_nf", "pind22_w",
              "l1_miss_rate", "mpki_l2",  "branch_mispredict_rate"};
    case SweepKind::kSpeedup:
      return {"s2",  "s4",  "s8",
              "s16", "s64", "serial_frac_fit",
              "lock_wait_frac", "barrier_wait_frac"};
    case SweepKind::kBoostTransient:
      return {"avg_gips",    "avg_power_w", "energy_j",
              "max_power_w", "max_temp_c",  "final_peak_c",
              "final_freq_ghz"};
  }
  DS_REQUIRE(false, "MetricColumns: invalid kind");
}

}  // namespace ds::runtime
