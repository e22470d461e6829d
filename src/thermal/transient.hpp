// Transient thermal simulation via implicit (backward) Euler.
//
//   C dT/dt = -G T + P + g_amb T_amb
//   (C/dt + G) T_{k+1} = (C/dt) T_k + P_{k+1} + g_amb T_amb
//
// Backward Euler is unconditionally stable, which matters here: the sink
// time constant (R_conv * C_conv ~ 14 s) and the die time constant
// (~ms) differ by four orders of magnitude. The 1 ms default step
// aligns with the paper's Turbo-Boost control period.
//
// Stepping (see StepKernel):
//  - kAuto (default, the one production path): the step is folded once
//    per (model, dt) into dense operators T' = M_state T + M_in P +
//    c_amb (thermal/propagator.hpp), at construction, through the
//    shared PropagatorSet when one is given. The simulator is then a
//    one-member BatchStepPropagator: each step is one allocation-free
//    k = 1 panel pass, the same kernel and fold order sweep cohorts
//    use, so DTM, sprint, chip_sim and Fig. 11 trajectories are bitwise
//    the ones a sweep row would compute. Constant-power segments can
//    advance k steps in one application via StepHold.
//  - kLu (reference lane): the system matrix is factored once and each
//    step is a permuted triangular solve into a reused buffer. It
//    exists for the equivalence tests and as the bench baseline.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "thermal/batch_propagator.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"
#include "util/lu.hpp"

namespace ds::thermal {

/// Which stepping lane a TransientSimulator uses: kAuto steps the
/// folded propagator on the panel kernel, kLu the reference LU solve.
enum class StepKernel { kAuto, kLu };

class TransientSimulator {
 public:
  /// Unused by the simulator (kAuto folds at construction); kept
  /// because perfbench/layers.cpp still names it.
  static constexpr std::size_t kAutoUpgradeSteps = 64;

  /// Prepares stepping at fixed step `dt_s` (seconds): folds the dense
  /// step propagator (kAuto), or factors (C/dt + G) (kLu).
  /// `shared` (optional) memoizes propagators across simulators of the
  /// same model -- pass arch::Platform::propagators() or the set from
  /// runtime::ModelCache so sweeps fold each (model, dt) exactly once.
  /// Throws std::invalid_argument for non-positive dt and
  /// util::SolverError when the step cannot be built (singular system,
  /// or a dt so small that C/dt overflows).
  explicit TransientSimulator(
      const RcModel& model, double dt_s = 1e-3,
      StepKernel kernel = StepKernel::kAuto,
      const std::shared_ptr<const PropagatorSet>& shared = nullptr);

  /// Resets all node temperatures to the ambient.
  void Reset();

  /// Sets the state to the steady-state solution of `core_powers`
  /// (useful to skip the multi-second package warm-up).
  void InitializeSteadyState(std::span<const double> core_powers);

  /// Hardened warm start: like InitializeSteadyState, but validates
  /// that the solution is finite and, when the direct solve fails (or
  /// `inject_failure` forces the failure path), retries once with a
  /// perturbed-pivot factorization before throwing util::SolverError.
  /// Returns true when the retry path produced the state -- callers log
  /// that as a mitigation. The fault-free path is numerically identical
  /// to InitializeSteadyState.
  bool InitializeSteadyStateRobust(std::span<const double> core_powers,
                                   bool inject_failure = false);

  /// Advances one step under the given per-core powers.
  /// Throws std::invalid_argument if any power is NaN/non-finite (a
  /// NaN would otherwise propagate silently through the implicit-Euler
  /// solve and poison the whole state vector).
  void Step(std::span<const double> core_powers);

  /// Advances `n` steps with constant powers. On kAuto this routes
  /// through StepHold (one operator application instead of n); the
  /// trajectory between the endpoints is not materialized.
  void StepN(std::span<const double> core_powers, std::size_t n);

  /// Power-hold fast path: advances `k` steps under constant powers in
  /// one application of the memoized k-step hold operator. Matches k
  /// explicit Step() calls to rounding error (tested at 1e-9 C). On
  /// the kLu lane this degrades to k explicit steps.
  void StepHold(std::span<const double> core_powers, std::size_t k);

  /// Current die temperatures [C].
  std::vector<double> DieTemps() const;

  /// Current peak die temperature [C].
  double PeakDieTemp() const;

  double dt() const { return dt_; }
  double time() const { return time_; }
  const RcModel& model() const { return *model_; }

  /// All node temperatures [C]. The view is valid until the next call
  /// that changes the state (Step, StepN, StepHold, Reset, Initialize*).
  std::span<const double> state() const;

  StepKernel kernel() const { return kernel_; }

 private:
  void CheckPowers(std::span<const double> core_powers,
                   const char* caller) const;
  void SetState(std::span<const double> state);
  void StepLu(std::span<const double> core_powers);

  const RcModel* model_;
  double dt_;
  double time_ = 0.0;
  StepKernel kernel_;
  std::optional<BatchStepPropagator> panel_;  // kAuto: member 0
  std::unique_ptr<util::LuFactorization> lu_;  // kLu: C/dt + G
  std::vector<double> state_;    // kLu: all node temperatures
  std::vector<double> rhs_;      // kLu: step RHS, reused
  std::vector<double> amb_rhs_;  // kLu: g_amb * T_amb, precomputed
};

}  // namespace ds::thermal
