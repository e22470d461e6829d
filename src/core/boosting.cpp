#include "core/boosting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"

namespace ds::core {

BoostingSimulator::BoostingSimulator(const arch::Platform& platform,
                                     const apps::AppProfile& app,
                                     std::size_t instances,
                                     std::size_t threads,
                                     MappingPolicy policy)
    : platform_(&platform),
      app_(&app),
      instances_(instances),
      threads_(threads),
      estimator_(platform) {
  if (instances * threads > platform.num_cores())
    throw std::invalid_argument(
        "BoostingSimulator: workload does not fit the chip");
  active_set_ = SelectCores(platform, instances * threads, policy);
}

apps::Workload BoostingSimulator::WorkloadAtLevel(std::size_t level) const {
  const power::VfLevel& vf = platform_->ladder()[level];
  apps::Workload w;
  w.AddN({app_, threads_, vf.freq, vf.vdd}, instances_);
  return w;
}

double BoostingSimulator::GipsAtLevel(std::size_t level) const {
  return WorkloadAtLevel(level).TotalGips();
}

Estimate BoostingSimulator::SteadyAtLevel(std::size_t level) const {
  return estimator_.EvaluateWorkload(WorkloadAtLevel(level), active_set_);
}

bool BoostingSimulator::MaxSafeConstantLevel(double power_cap_w,
                                             std::size_t* level_out) const {
  DS_REQUIRE(level_out != nullptr,
             "MaxSafeConstantLevel: level_out must not be null");
  bool found = false;
  for (std::size_t level = 0; level < platform_->ladder().size(); ++level) {
    Estimate e;
    try {
      e = SteadyAtLevel(level);
    } catch (const std::runtime_error&) {
      break;  // thermal runaway at this level and above
    }
    if (!e.thermal_violation && e.total_power_w <= power_cap_w) {
      *level_out = level;
      found = true;
    }
  }
  return found;
}

BoostingSimulator::WarmStart BoostingSimulator::SteadyWarmStart(
    std::size_t level) const {
  const thermal::SteadyStateSolver& solver = platform_->solver();
  const std::size_t n = platform_->num_cores();
  std::vector<double> temps(n, platform_->thermal_model().ambient_c());
  WarmStart warm;
  for (int it = 0; it < 3; ++it) {
    warm.powers = CorePowers(level, temps);
    warm.state = solver.SolveFull(warm.powers);
    temps.assign(warm.state.begin(),
                 warm.state.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return warm;
}

BoostTrace BoostingSimulator::RunPerInstanceBoosting(
    std::size_t start_level, double threshold_c, double power_cap_w,
    double duration_s, double control_period_s) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  const power::PowerModel& pm = platform_->power_model();
  const std::size_t n = platform_->num_cores();
  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);
  sim.SetState(SteadyWarmStart(start_level).state);

  // Per-instance domain levels and core ownership.
  std::vector<std::size_t> domain_level(instances_, start_level);
  std::vector<std::size_t> domain_of(n, instances_);  // sentinel = dark
  for (std::size_t i = 0; i < instances_; ++i)
    for (std::size_t t = 0; t < threads_; ++t)
      domain_of[active_set_[i * threads_ + t]] = i;
  const double activity = app_->Activity(threads_);

  auto powers_at = [&](const std::vector<double>& temps) {
    std::vector<double> p(n);
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t d = domain_of[c];
      if (d == instances_) {
        p[c] = pm.DarkCorePower(temps[c]);
      } else {
        const power::VfLevel& vf = ladder[domain_level[d]];
        p[c] = pm.TotalPower(activity, app_->ceff22_nf, app_->pind22,
                             vf.vdd, vf.freq, temps[c]);
      }
    }
    return p;
  };

  const std::size_t steps =
      static_cast<std::size_t>(std::lround(duration_s / control_period_s));
  BoostTrace trace;
  trace.duration_s = duration_s;
  const std::size_t stride = std::max<std::size_t>(1, steps / 1000);
  double gips_acc = 0.0;
  double energy_acc = 0.0;

  for (std::size_t s = 0; s < steps; ++s) {
    const std::vector<double> temps = sim.DieTemps();
    // Per-domain control from each domain's hottest core.
    double total_now = 0.0;
    for (const double p : powers_at(temps)) total_now += p;
    for (std::size_t d = 0; d < instances_; ++d) {
      double hottest = 0.0;
      for (std::size_t t = 0; t < threads_; ++t)
        hottest =
            std::max(hottest, temps[active_set_[d * threads_ + t]]);
      if (hottest >= threshold_c) {
        domain_level[d] = ladder.StepDown(domain_level[d]);
      } else if (total_now < power_cap_w) {
        domain_level[d] = ladder.StepUp(domain_level[d]);
      }
    }

    const std::vector<double> powers = powers_at(temps);
    double total_power = 0.0;
    for (const double p : powers) total_power += p;
    sim.Step(powers);

    double gips = 0.0;
    for (std::size_t d = 0; d < instances_; ++d)
      gips += app_->InstanceGips(threads_, ladder[domain_level[d]].freq);
    gips_acc += gips;
    energy_acc += total_power * control_period_s;
    trace.max_power_w = std::max(trace.max_power_w, total_power);
    trace.max_temp_c = std::max(trace.max_temp_c, sim.PeakDieTemp());
    if (s % stride == 0) {
      trace.time_s.push_back(sim.time());
      trace.gips.push_back(gips);
      trace.peak_temp_c.push_back(sim.PeakDieTemp());
      trace.power_w.push_back(total_power);
    }
  }
  trace.avg_gips = gips_acc / static_cast<double>(steps);
  trace.energy_j = energy_acc;
  trace.avg_power_w = energy_acc / duration_s;
  return trace;
}

BoostTrace BoostingSimulator::RunRaplBoosting(std::size_t start_level,
                                              double pl1_w, double pl2_w,
                                              double tau_s,
                                              double threshold_c,
                                              double duration_s,
                                              double control_period_s) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);
  sim.SetState(SteadyWarmStart(start_level).state);

  std::size_t level = start_level;
  const double alpha = control_period_s / tau_s;  // EWMA coefficient
  double ewma = 0.0;
  {
    std::vector<double> temps = sim.DieTemps();
    for (const double p : CorePowers(level, temps)) ewma += p;
  }

  const std::size_t steps =
      static_cast<std::size_t>(std::lround(duration_s / control_period_s));
  BoostTrace trace;
  trace.duration_s = duration_s;
  const std::size_t stride = std::max<std::size_t>(1, steps / 1000);
  double gips_acc = 0.0;
  double energy_acc = 0.0;

  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<double> temps = sim.DieTemps();
    // Control: thermal backstop first, then the power-limit logic.
    if (sim.PeakDieTemp() > threshold_c) {
      level = ladder.StepDown(level);
    } else if (ewma > pl1_w) {
      level = ladder.StepDown(level);
    } else {
      const std::size_t up = ladder.StepUp(level);
      if (up != level) {
        const std::vector<double> p_up = CorePowers(up, temps);
        double total_up = 0.0;
        for (const double p : p_up) total_up += p;
        if (total_up <= pl2_w) level = up;  // bursts may reach PL2
      }
    }

    const std::vector<double> powers = CorePowers(level, temps);
    double total_power = 0.0;
    for (const double p : powers) total_power += p;
    ewma += alpha * (total_power - ewma);
    sim.Step(powers);

    const double gips = GipsAtLevel(level);
    gips_acc += gips;
    energy_acc += total_power * control_period_s;
    trace.max_power_w = std::max(trace.max_power_w, total_power);
    trace.max_temp_c = std::max(trace.max_temp_c, sim.PeakDieTemp());
    if (s % stride == 0) {
      trace.time_s.push_back(sim.time());
      trace.gips.push_back(gips);
      trace.peak_temp_c.push_back(sim.PeakDieTemp());
      trace.power_w.push_back(total_power);
    }
  }
  trace.avg_gips = gips_acc / static_cast<double>(steps);
  trace.energy_j = energy_acc;
  trace.avg_power_w = energy_acc / duration_s;
  return trace;
}

BoostingSimulator::QuasiSteadyBoost BoostingSimulator::EstimateBoosting(
    double threshold_c, double power_cap_w) const {
  QuasiSteadyBoost out;
  // Highest level whose steady peak stays at or below the threshold.
  bool have_base = false;
  Estimate base;
  std::size_t base_level = 0;
  for (std::size_t level = 0; level < platform_->ladder().size(); ++level) {
    Estimate e;
    try {
      e = SteadyAtLevel(level);
    } catch (const std::runtime_error&) {
      break;
    }
    if (e.peak_temp_c <= threshold_c && e.total_power_w <= power_cap_w) {
      base = e;
      base_level = level;
      have_base = true;
    }
  }
  if (!have_base) {
    // Even the lowest level violates: the controller pins the floor.
    base = SteadyAtLevel(0);
    base_level = 0;
  }
  out.base_level = base_level;

  const std::size_t up = platform_->ladder().StepUp(base_level);
  if (up == base_level) {
    out.avg_gips = GipsAtLevel(base_level);
    out.avg_power_w = out.peak_power_w = base.total_power_w;
    return out;
  }
  Estimate boosted;
  bool boosted_ok = true;
  try {
    boosted = SteadyAtLevel(up);
  } catch (const std::runtime_error&) {
    boosted_ok = false;  // runaway at the boosted level: never boost
  }
  if (!boosted_ok || boosted.total_power_w > power_cap_w) {
    out.avg_gips = GipsAtLevel(base_level);
    out.avg_power_w = out.peak_power_w = base.total_power_w;
    return out;
  }
  const double denom = boosted.peak_temp_c - base.peak_temp_c;
  const double d =
      denom <= 1e-9
          ? 1.0
          : std::clamp((threshold_c - base.peak_temp_c) / denom, 0.0, 1.0);
  out.boosted = d > 0.0;
  out.duty = d;
  out.avg_gips =
      (1.0 - d) * GipsAtLevel(base_level) + d * GipsAtLevel(up);
  out.avg_power_w =
      (1.0 - d) * base.total_power_w + d * boosted.total_power_w;
  out.peak_power_w = boosted.total_power_w;
  return out;
}

std::vector<double> BoostingSimulator::CorePowers(
    std::size_t level, std::vector<double>& die_temps) const {
  const power::VfLevel& vf = platform_->ladder()[level];
  const power::PowerModel& pm = platform_->power_model();
  const double activity = app_->Activity(threads_);
  std::vector<double> p(platform_->num_cores());
  std::vector<bool> active(platform_->num_cores(), false);
  for (const std::size_t i : active_set_) active[i] = true;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = active[i]
               ? pm.TotalPower(activity, app_->ceff22_nf, app_->pind22,
                               vf.vdd, vf.freq, die_temps[i])
               : pm.DarkCorePower(die_temps[i]);
  }
  return p;
}

BoostTrace BoostingSimulator::RunConstant(std::size_t level,
                                          double duration_s) const {
  // At a fixed level the trajectory starting from its own steady state
  // is constant; evaluate once and synthesize the (flat) trace.
  const Estimate e = SteadyAtLevel(level);
  const double gips = GipsAtLevel(level);
  BoostTrace trace;
  const std::size_t samples =
      static_cast<std::size_t>(std::lround(duration_s / 1e-3));
  const std::size_t stride = std::max<std::size_t>(1, samples / 1000);
  for (std::size_t s = 0; s < samples; s += stride) {
    trace.time_s.push_back(static_cast<double>(s) * 1e-3);
    trace.gips.push_back(gips);
    trace.peak_temp_c.push_back(e.peak_temp_c);
    trace.power_w.push_back(e.total_power_w);
  }
  trace.avg_gips = gips;
  trace.avg_power_w = e.total_power_w;
  trace.max_power_w = e.total_power_w;
  trace.max_temp_c = e.peak_temp_c;
  trace.duration_s = duration_s;
  trace.energy_j = e.total_power_w * duration_s;
  return trace;
}

BoostTrace BoostingSimulator::RunBoosting(std::size_t start_level,
                                          double threshold_c,
                                          double power_cap_w,
                                          double duration_s,
                                          double control_period_s) const {
  DS_TELEM_SPAN_ARG("controller", "boosting_run",
                    ds::telemetry::TraceLevel::kSpan, "duration_s",
                    duration_s);
  const power::DvfsLadder& ladder = platform_->ladder();
  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);
  // Warm start from the steady state of the starting level.
  sim.SetState(SteadyWarmStart(start_level).state);

  std::size_t level = start_level;
  const std::size_t steps =
      static_cast<std::size_t>(std::lround(duration_s / control_period_s));
  BoostTrace trace;
  trace.duration_s = duration_s;
  const std::size_t stride = std::max<std::size_t>(1, steps / 1000);

  double gips_acc = 0.0;
  double energy_acc = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    // Control decision from the temperature at the period start.
    const double peak = sim.PeakDieTemp();
    const std::size_t prev_level = level;
    if (peak < threshold_c) {
      const std::size_t up = ladder.StepUp(level);
      if (up != level) {
        // Respect the electrical power constraint at the higher level.
        std::vector<double> temps = sim.DieTemps();
        const std::vector<double> p_up = CorePowers(up, temps);
        double total_up = 0.0;
        for (const double p : p_up) total_up += p;
        if (total_up <= power_cap_w) level = up;
      }
    } else {
      level = ladder.StepDown(level);
    }
    if (level != prev_level) {
      DS_TELEM_COUNT("boost.level_changes", 1);
      ds::telemetry::EmitInstant(
          "controller", level > prev_level ? "boost_up" : "boost_down",
          ds::telemetry::TraceLevel::kDecision, "freq_ghz",
          ladder[level].freq, "sim_time_s", sim.time());
    }

    std::vector<double> temps = sim.DieTemps();
    const std::vector<double> powers = CorePowers(level, temps);
    double total_power = 0.0;
    for (const double p : powers) total_power += p;
    sim.Step(powers);

    const double gips = GipsAtLevel(level);
    gips_acc += gips;
    energy_acc += total_power * control_period_s;
    trace.max_power_w = std::max(trace.max_power_w, total_power);
    trace.max_temp_c = std::max(trace.max_temp_c, sim.PeakDieTemp());
    if (s % stride == 0) {
      trace.time_s.push_back(sim.time());
      trace.gips.push_back(gips);
      trace.peak_temp_c.push_back(sim.PeakDieTemp());
      trace.power_w.push_back(total_power);
    }
  }
  trace.avg_gips = gips_acc / static_cast<double>(steps);
  trace.energy_j = energy_acc;
  trace.avg_power_w = energy_acc / duration_s;
  return trace;
}

}  // namespace ds::core
