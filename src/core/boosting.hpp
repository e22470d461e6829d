// Boosting vs constant-frequency execution (Sec. 6, Figs. 11-13).
//
// Boosting follows Intel Turbo Boost's closed-loop control: every
// control period (1 ms) the peak core temperature is compared against
// the critical threshold and the chip-wide frequency moves one 200 MHz
// ladder step up or down. The constant-frequency baseline runs at the
// highest level whose *steady-state* peak temperature stays below the
// threshold (and whose power stays below the electrical budget), i.e.
// "a few degrees below critical due to the available v/f steps".
#pragma once

#include <cstddef>
#include <vector>

#include "apps/app_profile.hpp"
#include "apps/workload.hpp"
#include "arch/platform.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "thermal/transient.hpp"

namespace ds::core {

/// Time series and aggregates of one transient run.
struct BoostTrace {
  std::vector<double> time_s;       // sampled once per control period
  std::vector<double> gips;
  std::vector<double> peak_temp_c;
  std::vector<double> power_w;
  double avg_gips = 0.0;
  double avg_power_w = 0.0;
  double max_power_w = 0.0;
  double max_temp_c = 0.0;
  double energy_j = 0.0;
  double duration_s = 0.0;
};

/// Simulates a homogeneous workload (m instances of one application,
/// n threads each) under chip-wide DVFS control.
class BoostingSimulator {
 public:
  /// Throws std::invalid_argument if the instances do not fit the chip.
  BoostingSimulator(const arch::Platform& platform,
                    const apps::AppProfile& app, std::size_t instances,
                    std::size_t threads,
                    MappingPolicy policy = MappingPolicy::kContiguous);

  /// Constant chip-wide level for `duration_s`, starting from the
  /// steady state of that level (the paper's steady traces).
  BoostTrace RunConstant(std::size_t level, double duration_s) const;

  /// Closed-loop boosting around `threshold_c`: one ladder step per
  /// control period, never exceeding `power_cap_w` (the paper's 500 W
  /// electrical constraint). Starts from the steady state of
  /// `start_level`.
  BoostTrace RunBoosting(std::size_t start_level, double threshold_c,
                         double power_cap_w, double duration_s,
                         double control_period_s = 1e-3) const;

  /// Quasi-steady boosting estimate: the closed-loop controller settles
  /// into an oscillation between the highest thermally safe level L and
  /// L+1; its long-run averages follow from the duty cycle d at which
  /// the power mix d*P(L+1) + (1-d)*P(L) pins the steady peak exactly
  /// at the threshold. Orders of magnitude faster than the transient
  /// run and accurate once the package has warmed up -- used for the
  /// Fig. 12/13 sweeps, and validated against RunBoosting in the tests.
  struct QuasiSteadyBoost {
    double avg_gips = 0.0;
    double avg_power_w = 0.0;
    double peak_power_w = 0.0;  // power at the boosted level
    double duty = 0.0;          // fraction of time at L+1
    std::size_t base_level = 0;
    bool boosted = false;       // false if already at ladder top / cap
  };
  QuasiSteadyBoost EstimateBoosting(double threshold_c,
                                    double power_cap_w) const;

  /// Per-instance (per-voltage-domain) boosting: each application
  /// instance owns a DVFS domain and the controller steps it by its own
  /// hottest core, instead of the paper's single chip-wide step. Cooler
  /// domains (die-edge instances) can hold boost levels the chip-wide
  /// loop must give up, so this quantifies what finer-grained DVFS
  /// hardware buys under the same thermal constraint.
  BoostTrace RunPerInstanceBoosting(std::size_t start_level,
                                    double threshold_c, double power_cap_w,
                                    double duration_s,
                                    double control_period_s = 1e-3) const;

  /// RAPL-style boosting (Sandy Bridge power architecture, paper ref
  /// [21]): the controller steps the frequency so that an exponentially
  /// weighted moving average of package power stays at PL1, while
  /// instantaneous power may burst to PL2. The thermal threshold still
  /// backstops the loop (a violation forces a step down). `tau_s` is
  /// the averaging window.
  BoostTrace RunRaplBoosting(std::size_t start_level, double pl1_w,
                             double pl2_w, double tau_s, double threshold_c,
                             double duration_s,
                             double control_period_s = 1e-3) const;

  /// Highest ladder level (<= ladder max) whose steady state satisfies
  /// peak temperature <= T_DTM and total power <= `power_cap_w`.
  /// Returns false if no level qualifies.
  bool MaxSafeConstantLevel(double power_cap_w, std::size_t* level_out) const;

  /// Aggregate performance [GIPS] of the workload at a ladder level.
  double GipsAtLevel(std::size_t level) const;

  /// Per-core power vector of the active mapping at `level` given the
  /// current die temperatures (leakage feedback) -- the same numbers
  /// the internal closed loops step with. Public for the batched
  /// transient boosting runner (runtime/scenarios.cpp),
  /// which drives cohort members through a shared lockstep stepper
  /// outside this class.
  std::vector<double> CorePowersAt(std::size_t level,
                                   std::vector<double>& die_temps) const {
    return CorePowers(level, die_temps);
  }

  /// Steady-state estimate at a ladder level (power, peak temperature).
  Estimate SteadyAtLevel(std::size_t level) const;

  /// The warm start every closed loop begins from: three leakage /
  /// temperature fixed-point passes at `level`, each the powers at the
  /// current die temperatures (ambient first) and then their steady
  /// state on the platform's factored solver, so it factors nothing.
  /// The batched sweep runner starts its cohort members from the same
  /// state and powers, so every lane starts bitwise alike.
  struct WarmStart {
    std::vector<double> state;   // all node temperatures [C]
    std::vector<double> powers;  // per-core powers of the last pass [W]
  };
  WarmStart SteadyWarmStart(std::size_t level) const;

  std::size_t active_cores() const { return active_set_.size(); }

 private:
  apps::Workload WorkloadAtLevel(std::size_t level) const;
  std::vector<double> CorePowers(std::size_t level,
                                 std::vector<double>& die_temps) const;

  const arch::Platform* platform_;
  const apps::AppProfile* app_;
  std::size_t instances_;
  std::size_t threads_;
  std::vector<std::size_t> active_set_;
  DarkSiliconEstimator estimator_;
};

}  // namespace ds::core
