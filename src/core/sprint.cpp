#include "core/sprint.hpp"

#include <cmath>
#include <stdexcept>

#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/matrix.hpp"

namespace ds::core {

SprintAnalysis::SprintAnalysis(const arch::Platform& platform)
    : platform_(&platform) {}

SprintResult SprintAnalysis::Measure(const apps::AppProfile& app,
                                     std::size_t instances,
                                     std::size_t threads, std::size_t level,
                                     double idle_fraction,
                                     MappingPolicy policy,
                                     double max_duration_s,
                                     double dt_s) const {
  const std::size_t n = platform_->num_cores();
  if (instances * threads > n)
    throw std::invalid_argument("SprintAnalysis: workload does not fit");
  if (idle_fraction < 0.0 || idle_fraction > 1.0)
    throw std::invalid_argument("SprintAnalysis: idle_fraction in [0,1]");

  const power::VfLevel& vf = platform_->ladder()[level];
  const power::PowerModel& pm = platform_->power_model();
  const double t_dtm = platform_->tdtm_c();
  const auto active = SelectCores(*platform_, instances * threads, policy);
  const std::vector<bool> mask = ActiveMask(n, active);
  const double activity = app.Activity(threads);

  auto powers_at = [&](const std::vector<double>& temps, double scale) {
    std::vector<double> p(n);
    for (std::size_t c = 0; c < n; ++c) {
      p[c] = mask[c]
                 ? scale * pm.TotalPower(activity, app.ceff22_nf, app.pind22,
                                         vf.vdd, vf.freq, temps[c])
                 : pm.DarkCorePower(temps[c]);
    }
    return p;
  };

  const thermal::SteadyStateSolver& solver = platform_->solver();
  thermal::TransientSimulator sim = platform_->MakeTransient(dt_s);
  // Background state: steady state at idle_fraction of the sprint power.
  {
    std::vector<double> temps(n, platform_->thermal_model().ambient_c());
    for (int it = 0; it < 3; ++it) {
      sim.InitializeSteadyState(powers_at(temps, idle_fraction), solver);
      temps = sim.DieTemps();
    }
  }

  SprintResult result;
  result.start_peak_c = sim.PeakDieTemp();
  result.sprint_gips =
      static_cast<double>(instances) * app.InstanceGips(threads, vf.freq);

  // Where would the sprint settle? (Fixed point at full power.)
  {
    std::vector<double> temps(n, platform_->thermal_model().ambient_c());
    for (int it = 0; it < 5; ++it) temps = solver.Solve(powers_at(temps, 1.0));
    result.steady_peak_c = util::MaxElement(temps);
  }
  if (result.steady_peak_c <= t_dtm) {
    result.unlimited = true;
    result.duration_s = max_duration_s;
    return result;
  }
  if (result.start_peak_c >= t_dtm) return result;  // no sprint budget

  const std::size_t max_steps =
      static_cast<std::size_t>(std::lround(max_duration_s / dt_s));
  for (std::size_t s = 0; s < max_steps; ++s) {
    const std::vector<double> temps = sim.DieTemps();
    sim.Step(powers_at(temps, 1.0));
    if (sim.PeakDieTemp() >= t_dtm) {
      result.duration_s = sim.time();
      return result;
    }
  }
  result.duration_s = max_duration_s;
  return result;
}

}  // namespace ds::core
