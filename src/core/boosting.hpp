// Boosting vs constant-frequency execution (Sec. 6, Figs. 11-13).
//
// Boosting follows Intel Turbo Boost's closed-loop control: every
// control period (1 ms) the peak core temperature is compared against
// the critical threshold and the chip-wide frequency moves one 200 MHz
// ladder step up or down. The constant-frequency baseline runs at the
// highest level whose *steady-state* peak temperature stays below the
// threshold (and whose power stays below the electrical budget), i.e.
// "a few degrees below critical due to the available v/f steps".
//
// Both baselines come from one scan up the ladder: each level's steady
// state is solved once, and the scan stops at the first level whose
// steady state runs away. MaxSafeConstantLevel, EstimateBoosting and
// Compare read that one scan.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "apps/app_profile.hpp"
#include "apps/workload.hpp"
#include "arch/platform.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "thermal/transient.hpp"

namespace ds::core {

/// Time series and aggregates of one transient run. The series sample
/// every max(1, periods / 1000)-th control period; a BoostLoop's own
/// Finish fills the aggregates only.
struct BoostTrace {
  std::vector<double> time_s;  // end of the sampled period
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

/// A boost control law and its parameters: RunBoosting's (kTurbo),
/// RunPerInstanceBoosting's or RunRaplBoosting's.
struct BoostLaw {
  enum class Kind { kTurbo, kPerInstance, kRapl };
  Kind kind = Kind::kTurbo;
  double threshold_c = 0.0;
  double power_cap_w = 0.0;  // RAPL's PL2
  double pl1_w = 0.0;        // RAPL only
  double tau_s = 0.0;        // RAPL only
};

class BoostLoop;

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

  /// Constant frequency against boosting (Figs. 12-13), from one ladder
  /// scan: `feasible` and `level` are MaxSafeConstantLevel(power_cap_w),
  /// `steady` is SteadyAtLevel(level) and `boost` is
  /// EstimateBoosting(threshold_c, power_cap_w), bit for bit. `level`
  /// and `steady` mean nothing unless `feasible`.
  struct Comparison {
    bool feasible = false;
    std::size_t level = 0;
    Estimate steady;
    QuasiSteadyBoost boost;
  };
  Comparison Compare(double threshold_c, double power_cap_w) const;

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
  /// die temperatures (leakage feedback): the powers a chip-wide
  /// BoostLoop steps with. perfbench/layers.cpp names it.
  std::vector<double> CorePowersAt(std::size_t level,
                                   std::span<const double> die_temps) const;

  /// Steady-state estimate at a ladder level (power, peak temperature).
  Estimate SteadyAtLevel(std::size_t level) const;

  /// The per-core powers every closed loop warm-starts from (at their
  /// steady state, on the platform's solver): three leakage fixed-point
  /// passes at `level`, each the powers at the die temperatures the
  /// last pass solved to (ambient first).
  std::vector<double> SteadyWarmStart(std::size_t level) const;

 private:
  friend class BoostLoop;

  static constexpr std::size_t kDark = static_cast<std::size_t>(-1);

  /// Calls visit(level, steady state) from the bottom of the ladder up,
  /// until the ladder ends or a level's steady state runs away.
  template <typename Visit>
  void ScanLadder(Visit&& visit) const;

  apps::Workload WorkloadAtLevel(std::size_t level) const;
  /// Instance i's cores in domain_of_instance[i], the others kDark.
  std::vector<std::size_t> DomainOfCore(
      std::span<const std::size_t> domain_of_instance) const;
  /// TotalPower on active cores at their domain's level, else dark.
  void PowersAt(std::span<const std::size_t> domain_of_core,
                std::span<const std::size_t> levels,
                std::span<const double> die_temps,
                std::span<double> out) const;
  BoostTrace RunLoop(const BoostLaw& law, std::size_t start_level,
                     double duration_s, double control_period_s) const;

  const arch::Platform* platform_;
  const apps::AppProfile* app_;
  std::size_t instances_;
  std::size_t threads_;
  double activity_;
  std::vector<std::size_t> active_set_;
  std::vector<std::size_t> chip_domain_;  // every active core in domain 0
  DarkSiliconEstimator estimator_;
};

/// One closed-loop boost run (Sec. 6, Fig. 11): a law, its DVFS
/// domains' levels and the run's accumulators. Control takes each
/// period's starting die temperatures and returns the per-core powers
/// to step with; Finish takes the final ones and returns the
/// aggregates. The three Run*Boosting methods step one on a
/// TransientSimulator and sample its series, every boost_transient row
/// on a cohort column. Allocation-free after construction, whatever
/// the duration.
class BoostLoop {
 public:
  /// Throws std::invalid_argument unless `duration_s`,
  /// `control_period_s` and RAPL's `tau_s` are finite and positive.
  /// Runs max(1, round(duration / period)) periods from `start_level`.
  BoostLoop(const BoostingSimulator& sim, const BoostLaw& law,
            std::size_t start_level, double duration_s,
            double control_period_s);

  std::size_t steps() const { return steps_; }
  std::size_t level() const { return levels_[0]; }  // domain 0
  double warm_peak_c() const { return warm_peak_c_; }  // period 0's start
  /// The last controlled period's GIPS and total power.
  double gips() const { return gips_; }
  double power_w() const { return power_w_; }
  /// Simulated time at the end of the last controlled period.
  double time_s() const { return time_s_; }

  /// The returned view is valid until the next call.
  std::span<const double> Control(std::span<const double> die_temps);

  /// The aggregates, with max_temp_c over the temperatures after each
  /// step and the power averaged over the requested duration; the
  /// series stay empty.
  BoostTrace Finish(std::span<const double> die_temps);

 private:
  double TotalPower(std::span<const double> die_temps);  // into powers_
  void Decide(double peak, std::span<const double> die_temps);
  void MoveTo(std::size_t d, std::size_t level);

  const BoostingSimulator* sim_;
  BoostLaw law_;
  double period_s_;
  std::size_t steps_;
  std::size_t s_ = 0;  // periods controlled so far
  double time_s_ = 0.0;
  double gips_ = 0.0;
  double power_w_ = 0.0;
  std::vector<std::size_t> domain_of_instance_;
  std::vector<std::size_t> domain_of_core_;  // kDark for dark cores
  std::vector<std::size_t> levels_;          // per domain
  std::vector<double> powers_;               // per core
  double ewma_w_ = 0.0;                      // RAPL's power average
  double warm_peak_c_ = 0.0;
  double gips_acc_ = 0.0;
  BoostTrace trace_;
};

}  // namespace ds::core
