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
// Stepping: the step is folded once per (model, dt) into dense
// operators T' = M_state T + M_in P + c_amb (thermal/propagator.hpp),
// at construction, through the shared PropagatorSet when one is given.
// The simulator is then a one-member BatchStepPropagator: each step is
// one allocation-free k = 1 panel pass, the same kernel and fold order
// sweep cohorts use, so DTM, sprint, chip_sim and Fig. 11 trajectories
// are bitwise the ones a sweep row would compute. Constant-power
// segments can advance k steps in one application via StepHold.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "thermal/batch_propagator.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"

namespace ds::thermal {

class SteadyStateSolver;

/// The stepping lane of a TransientSimulator. There is one: the folded
/// propagator on the panel kernel. perfbench/layers.cpp still names it.
enum class StepKernel { kAuto };

class TransientSimulator {
 public:
  /// Unused by the simulator (it folds at construction); kept because
  /// perfbench/layers.cpp still names it.
  static constexpr std::size_t kAutoUpgradeSteps = 64;

  /// Prepares stepping at fixed step `dt_s` (seconds) by folding the
  /// dense step propagator. `kernel` selects nothing (kAuto is the only
  /// lane). `shared` (optional) memoizes propagators across simulators
  /// of the same model -- pass arch::Platform::propagators() or the set
  /// from runtime::ModelCache so sweeps fold each (model, dt) exactly
  /// once. Throws std::invalid_argument for non-positive dt and
  /// util::SolverError when the step cannot be built (singular system,
  /// or a dt so small that C/dt overflows).
  explicit TransientSimulator(
      const RcModel& model, double dt_s = 1e-3,
      StepKernel kernel = StepKernel::kAuto,
      const std::shared_ptr<const PropagatorSet>& shared = nullptr);

  /// Resets all node temperatures to the ambient.
  void Reset();

  /// Sets all node temperatures (size model().num_nodes()) and restarts
  /// the clock at 0.
  void SetState(std::span<const double> state);

  /// Sets the state to the steady-state solution of `core_powers`
  /// (useful to skip the multi-second package warm-up). `solver` must
  /// be factored from this simulator's model; closed loops pass
  /// arch::Platform::solver(), so a warm start factors nothing.
  void InitializeSteadyState(std::span<const double> core_powers,
                             const SteadyStateSolver& solver);

  /// As above on a private solver, which costs a full LU of the
  /// conductance matrix plus the solver's B build per call.
  void InitializeSteadyState(std::span<const double> core_powers);

  /// Hardened warm start: like InitializeSteadyState, but validates
  /// that the solution is finite and, when the direct solve fails (or
  /// `inject_failure` forces the failure path), retries once with a
  /// perturbed-pivot factorization before throwing util::SolverError.
  /// Returns true when the retry path produced the state -- callers log
  /// that as a mitigation. The fault-free path is numerically identical
  /// to InitializeSteadyState.
  bool InitializeSteadyStateRobust(std::span<const double> core_powers,
                                   const SteadyStateSolver& solver,
                                   bool inject_failure = false);

  /// Advances one step under the given per-core powers.
  /// Throws std::invalid_argument if any power is NaN/non-finite (a
  /// NaN would otherwise propagate silently through the implicit-Euler
  /// solve and poison the whole state vector).
  void Step(std::span<const double> core_powers);

  /// Advances `n` steps with constant powers, through StepHold when
  /// n > 1 (one operator application instead of n); the trajectory
  /// between the endpoints is not materialized.
  void StepN(std::span<const double> core_powers, std::size_t n);

  /// Power-hold fast path: advances `k` steps under constant powers in
  /// one application of the memoized k-step hold operator. Matches k
  /// explicit Step() calls to rounding error (tested at 1e-9 C).
  void StepHold(std::span<const double> core_powers, std::size_t k);

  /// Current die temperatures [C].
  std::vector<double> DieTemps() const;

  /// Current peak die temperature [C].
  double PeakDieTemp() const;

  double dt() const { return dt_; }
  double time() const { return time_; }
  const RcModel& model() const { return *model_; }

  /// All node temperatures [C]. The view is valid until the next call
  /// that changes the state (Step, StepN, StepHold, Reset, SetState,
  /// Initialize*).
  std::span<const double> state() const { return panel_->MemberState(0); }

 private:
  void CheckPowers(std::span<const double> core_powers,
                   const char* caller) const;

  const RcModel* model_;
  double dt_;
  double time_ = 0.0;
  // Member 0 is the state. Optional only so that the constructor can
  // check dt before the fold.
  std::optional<BatchStepPropagator> panel_;
};

}  // namespace ds::thermal
