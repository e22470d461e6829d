#include "sim/chip_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "apps/app_profile.hpp"
#include "apps/workload.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "faults/sensor_bus.hpp"
#include "telemetry/scoped.hpp"
#include "thermal/transient.hpp"
#include "util/rng.hpp"
#include "util/contracts.hpp"

namespace ds::sim {
namespace {

struct Job {
  const apps::AppProfile* app;
  double remaining_s;
  std::vector<std::size_t> cores;
};

}  // namespace

void SimConfig::Validate() const {
  DS_REQUIRE(duration_s > 0.0 && std::isfinite(duration_s),
             "SimConfig: duration_s " << duration_s << " must be positive");
  DS_REQUIRE(control_period_s > 0.0 && std::isfinite(control_period_s),
             "SimConfig: control_period_s " << control_period_s
                 << " must be positive");
  DS_REQUIRE(scheduler_period_s > 0.0 && std::isfinite(scheduler_period_s),
             "SimConfig: scheduler_period_s " << scheduler_period_s
                 << " must be positive");
  DS_REQUIRE(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
             "SimConfig: arrival_rate " << arrival_rate
                 << " must be finite and >= 0");
  DS_REQUIRE(min_job_s > 0.0 && max_job_s >= min_job_s,
             "SimConfig: job duration band [" << min_job_s << ", "
                 << max_job_s << "] must satisfy 0 < min <= max");
  DS_REQUIRE(threads_per_job >= 1, "SimConfig: threads_per_job must be >= 1");
  DS_REQUIRE(std::isfinite(power_cap_w) && power_cap_w > 0.0,
             "SimConfig: power_cap_w " << power_cap_w << " must be positive");
  DS_REQUIRE(std::isfinite(thermal_margin_c) && thermal_margin_c >= 0.0,
             "SimConfig: thermal_margin_c " << thermal_margin_c
                 << " must be finite and >= 0");
  faults.Validate();
}

ChipSimulator::ChipSimulator(const arch::Platform& platform,
                             const SimConfig& config)
    : platform_(&platform), config_(config) {
  config_.Validate();
}

FullSimResult ChipSimulator::Run() const {
  DS_TELEM_SPAN_ARG("sim", "chip_sim_run", ds::telemetry::TraceLevel::kSpan,
                    "duration_s", config_.duration_s);
  const std::size_t n = platform_->num_cores();
  const power::DvfsLadder& ladder = platform_->ladder();
  const power::PowerModel& pm = platform_->power_model();
  const util::Matrix& influence = platform_->solver().InfluenceMatrix();
  const double t_dtm = platform_->tdtm_c();
  const double headroom =
      t_dtm - platform_->thermal_model().ambient_c();
  const auto& suite = apps::ParsecSuite();
  const std::size_t threads = config_.threads_per_job;
  const std::size_t nominal = ladder.NominalLevel();
  const std::size_t max_level =
      config_.enable_boost ? ladder.size() - 1 : nominal;

  util::Rng rng(config_.seed);
  // std::poisson_distribution requires a positive mean: at rate 0 no
  // job arrives and no engine value is drawn.
  std::optional<std::poisson_distribution<int>> arrivals;
  if (config_.arrival_rate > 0.0) arrivals.emplace(config_.arrival_rate);
  thermal::TransientSimulator thermal =
      platform_->MakeTransient(config_.control_period_s);
  const noc::MeshNoc mesh(platform_->floorplan());
  reliability::AgingState aging(n);

  // Fault machinery; null when disabled so the fault-free path stays
  // bit-identical (the bus then passes true temperatures through).
  std::unique_ptr<faults::FaultInjector> injector;
  if (config_.faults.enabled)
    injector = std::make_unique<faults::FaultInjector>(config_.faults, n);
  faults::SensorBus bus(n, platform_->thermal_model().ambient_c());
  bus.AttachInjector(injector.get());

  std::vector<Job> running;
  std::deque<Job> queue;
  std::vector<bool> used(n, false);
  std::vector<bool> down(n, false);  // fail-stopped / transiently-out cores
  // Predicted steady rise per core from budget powers (admission).
  std::vector<double> rise(n, 0.0);

  std::size_t level = nominal;
  std::vector<double> noc_power(n, 0.0);

  FullSimResult result;
  double gips_acc = 0.0;
  double active_acc = 0.0;
  double noc_acc = 0.0;
  std::size_t control_steps = 0;

  // Per-core budget power of a job, the admission's rise weights.
  const core::DarkSiliconEstimator estimator(*platform_);
  auto budget_power = [&](const apps::AppProfile& app) {
    return std::vector<double>(
        n, estimator.BudgetCorePower(app, threads, nominal));
  };

  auto rebuild_noc = [&]() {
    if (!config_.enable_noc) return;
    apps::Workload w;
    std::vector<std::size_t> active;
    const power::VfLevel& vf = ladder[level];
    for (const Job& job : running) {
      w.Add({job.app, threads, vf.freq, vf.vdd});
      active.insert(active.end(), job.cores.begin(), job.cores.end());
    }
    noc_power = w.empty() ? std::vector<double>(n, 0.0)
                          : mesh.Evaluate(w, active).per_core_power_w;
  };

  const std::size_t steps_per_epoch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(config_.scheduler_period_s /
                                              config_.control_period_s)));
  const std::size_t total_steps = static_cast<std::size_t>(
      std::lround(config_.duration_s / config_.control_period_s));

  for (std::size_t step = 0; step < total_steps; ++step) {
    const double now_s =
        static_cast<double>(step) * config_.control_period_s;

    // ---- Fault schedule and migration off failed cores.
    if (injector) {
      injector->BeginStep(now_s, config_.control_period_s);
      for (const std::size_t c : injector->TakeNewlyRecoveredCores())
        down[c] = false;
      const std::vector<std::size_t> failed = injector->TakeNewlyDownCores();
      if (!failed.empty()) {
        for (const std::size_t c : failed) down[c] = true;
        // Requeue (migrate) every running job that touches a failed
        // core; thermal-safe admission re-places it on the degraded
        // core set at the next epoch boundary.
        for (auto it = running.begin(); it != running.end();) {
          const bool hit = std::any_of(
              it->cores.begin(), it->cores.end(),
              [&](std::size_t c) { return down[c]; });
          if (!hit) {
            ++it;
            continue;
          }
          core::ReleaseCores(influence, it->cores, budget_power(*it->app),
                             used, rise);
          it->cores.clear();
          if (it->remaining_s <= 0.0) {
            ++result.jobs_completed;  // finished before the core died
          } else {
            ++result.jobs_requeued;
            DS_TELEM_COUNT("sim.jobs_requeued", 1);
            ds::telemetry::EmitInstant("controller", "job_requeued",
                                       ds::telemetry::TraceLevel::kDecision,
                                       "sim_time_s", now_s);
            queue.push_front(std::move(*it));
          }
          it = running.erase(it);
        }
        for (const std::size_t c : failed) {
          injector->log().Record(
              now_s, faults::FaultEventKind::kMitigated,
              injector->CoreDownPermanent(c)
                  ? faults::FaultKind::kCoreFailStop
                  : faults::FaultKind::kCoreTransient,
              c, 0.0,
              "jobs migrated off core; admission re-runs on the "
              "degraded core set");
        }
        rebuild_noc();
      }
    }

    // ---- Scheduler epoch boundary.
    if (step % steps_per_epoch == 0) {
      DS_TELEM_SPAN_ARG("sim", "scheduler_epoch",
                        ds::telemetry::TraceLevel::kVerbose, "time_s", now_s);
      DS_TELEM_COUNT("sim.epochs", 1);
      // Departures first (jobs that finished during the last epoch).
      for (auto it = running.begin(); it != running.end();) {
        if (it->remaining_s <= 0.0) {
          core::ReleaseCores(influence, it->cores, budget_power(*it->app),
                             used, rise);
          ++result.jobs_completed;
          it = running.erase(it);
        } else {
          ++it;
        }
      }
      // Arrivals (plus the initial burst at t = 0).
      int k = arrivals ? (*arrivals)(rng.engine()) : 0;
      if (step == 0) k += static_cast<int>(config_.initial_jobs);
      for (int i = 0; i < k; ++i) {
        Job job;
        job.app = &suite[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(suite.size()) - 1))];
        job.remaining_s = rng.Uniform(config_.min_job_s, config_.max_job_s);
        queue.push_back(std::move(job));
        ++result.jobs_arrived;
      }
      // Thermal-safe admission with incremental dispersed placement
      // (down cores are excluded: the degraded core set).
      std::vector<std::size_t> alive;
      for (std::size_t c = 0; c < n; ++c)
        if (!down[c]) alive.push_back(c);
      while (!queue.empty()) {
        Job& job = queue.front();
        std::size_t free_count = 0;
        for (const std::size_t c : alive)
          if (!used[c]) ++free_count;
        if (free_count < threads) break;
        std::vector<bool> used_try = used;
        std::vector<double> rise_try = rise;
        std::vector<std::size_t> placed =
            core::PlaceDispersed(influence, alive, budget_power(*job.app),
                                 threads, used_try, rise_try);
        const double predicted =
            *std::max_element(rise_try.begin(), rise_try.end());
        if (predicted > headroom) break;
        used = std::move(used_try);
        rise = std::move(rise_try);
        job.cores = std::move(placed);
        running.push_back(std::move(job));
        queue.pop_front();
      }
      rebuild_noc();

      // Warm start: jump the package to the steady state of the first
      // epoch's placement (a cold sink would otherwise mask every
      // thermal effect for the first ~30 s of simulated time).
      if (step == 0 && !running.empty()) {
        std::vector<double> p0(n);
        const std::vector<double> t0 = thermal.DieTemps();
        for (std::size_t c = 0; c < n; ++c)
          p0[c] = noc_power[c] + pm.DarkCorePower(t0[c]);
        for (const Job& job : running) {
          const double p_core =
              estimator.BudgetCorePower(*job.app, threads, level);
          for (const std::size_t c : job.cores) p0[c] = noc_power[c] + p_core;
        }
        const bool inject_solver_fault =
            injector != nullptr && injector->ConsumeSolverFault();
        if (thermal.InitializeSteadyStateRobust(p0, platform_->solver(),
                                                inject_solver_fault)) {
          ++result.solver_retries;
          if (injector)
            injector->log().Record(
                now_s, faults::FaultEventKind::kMitigated,
                faults::FaultKind::kSolverNonConvergence, faults::kNoCore,
                0.0, "warm start retried with perturbed pivoting");
        }
      }
    }

    // ---- Per-core power at the current level and temperatures.
    // Physics (leakage) always follows the true die temperatures; only
    // control decisions below read the sensed values.
    const std::vector<double> temps = thermal.DieTemps();
    const power::VfLevel& vf = ladder[level];
    std::vector<double> powers(n);
    for (std::size_t c = 0; c < n; ++c)
      powers[c] = down[c] ? 0.0 : noc_power[c] + pm.DarkCorePower(temps[c]);
    double gips_now = 0.0;
    for (const Job& job : running) {
      for (const std::size_t c : job.cores) {
        powers[c] = noc_power[c] +
                    pm.TotalPower(job.app->Activity(threads),
                                  job.app->ceff22_nf, job.app->pind22,
                                  vf.vdd, vf.freq, temps[c]);
      }
      gips_now += job.app->InstanceGips(threads, vf.freq);
    }
    double total_power = 0.0;
    for (const double p : powers) total_power += p;

    // ---- Governor: DTM throttle / Turbo boost, on sensed readings.
    const std::vector<double>& sensed = bus.Sample(now_s, temps);
    const double peak =
        *std::max_element(sensed.begin(), sensed.end());
    const double true_peak = thermal.PeakDieTemp();
    std::size_t requested = level;
    if (bus.InSafeState()) {
      requested = 0;  // watchdog: pin the ladder at its lowest level
    } else if (peak > t_dtm) {
      requested = ladder.StepDown(level);
    } else if (peak < t_dtm - config_.thermal_margin_c &&
               level < max_level && total_power <= config_.power_cap_w) {
      requested = ladder.StepUp(level);
    } else if (level > nominal && total_power > config_.power_cap_w) {
      requested = ladder.StepDown(level);
    }
    const std::size_t prev_level = level;
    level = injector ? injector->ApplyDvfs(requested, level) : requested;
    if (level != prev_level) {
      const bool up = level > prev_level;
      DS_TELEM_COUNT("sim.governor_changes", 1);
      ds::telemetry::EmitInstant(
          "controller",
          bus.InSafeState() ? "governor_safe"
          : up              ? "governor_up"
                            : "governor_down",
          ds::telemetry::TraceLevel::kDecision, "freq_ghz",
          ladder[level].freq, "sim_time_s", now_s);
    }
    if (level > nominal) DS_TELEM_COUNT("sim.boost_steps", 1);
    if (true_peak > t_dtm)
      result.time_above_tdtm_s += config_.control_period_s;
    if (bus.InSafeState()) result.safe_state_s += config_.control_period_s;

    // ---- Advance physics.
    thermal.Step(powers);
    aging.Advance(temps, config_.control_period_s / 3600.0);
    for (Job& job : running) job.remaining_s -= config_.control_period_s;

    gips_acc += gips_now;
    result.energy_j += total_power * config_.control_period_s;
    result.max_temp_c = std::max(result.max_temp_c, thermal.PeakDieTemp());
    std::size_t active = 0;
    for (const Job& job : running) active += job.cores.size();
    active_acc += static_cast<double>(active);
    double noc_total = 0.0;
    for (const double p : noc_power) noc_total += p;
    noc_acc += noc_total;
    ++control_steps;
    DS_TELEM_COUNT("sim.control_steps", 1);
    DS_TELEM_GAUGE_MAX("sim.peak_temp_c", thermal.PeakDieTemp());

    if (step % steps_per_epoch == 0) {
      SimSnapshot snap;
      snap.time_s = thermal.time();
      snap.gips = gips_now;
      snap.power_w = total_power;
      snap.peak_temp_c = peak;
      snap.freq_ghz = ladder[level].freq;
      snap.active_cores = active;
      snap.running_jobs = running.size();
      result.trace.push_back(snap);
    }
  }

  const double steps_d = static_cast<double>(control_steps);
  result.avg_gips = gips_acc / steps_d;
  result.avg_power_w = result.energy_j / config_.duration_s;
  result.avg_active_cores = active_acc / steps_d;
  result.aging_imbalance = aging.Imbalance();
  result.avg_noc_power_w = noc_acc / steps_d;
  result.sensor_substitutions = bus.substitutions();
  if (injector) {
    result.cores_failed = injector->num_down_cores();
    result.fault_log = std::move(injector->log());
  }
  DS_TELEM_GAUGE_SET("sim.sensor_substitutions",
                     static_cast<double>(result.sensor_substitutions));
  DS_TELEM_GAUGE_SET("sim.jobs_completed",
                     static_cast<double>(result.jobs_completed));
  return result;
}

}  // namespace ds::sim
