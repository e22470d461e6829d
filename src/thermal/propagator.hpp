// Folded step operators for the implicit-Euler transient solve.
//
// The backward-Euler update  (G + C/dt) T' = (C/dt) T + P_full + g_amb T_amb
// is linear in (T, P), so the whole step can be folded, once per
// (model, dt), into a dense affine operator
//
//     T' = M_state T + M_in P + c_amb
//
// with M_state = (G + C/dt)^-1 (C/dt)   [n x n]
//      M_in    = (G + C/dt)^-1 E_die    [n x num_cores]
//      c_amb   = (G + C/dt)^-1 (g_amb T_amb)
//
// where E_die holds the unit power-injection columns of the die nodes.
// All three come out of ONE blocked multi-RHS solve on the identity
// (util::LuFactorization::SolveMany): A^-1 e_i is column i, so M_state
// is A^-1 with column i scaled by cap_i/dt and M_in is the die-node
// column subset.
//
// Layout: every operator is stored once, TRANSPOSED -- M_state^T,
// M_in^T and c_amb^T (a 1 x n row) -- because that is what the panel
// kernels (util/panel.hpp) read: each output element is one ascending
// fold over an operator row. BatchStepPropagator applies them; a lone
// TransientSimulator is a one-member panel, so every stepping caller
// runs the same kernel on the same bits.
//
// Sharing: a propagator is immutable after construction, so one
// instance can serve every simulator (and every sweep thread) that uses
// the same (model, dt) -- see PropagatorSet, which runtime::ModelCache
// and arch::Platform hand out so a 70-job sweep folds the step
// operator exactly once.
#pragma once

#include <cstddef>
#include <map>
#include <memory>

#include "thermal/rc_model.hpp"
#include "util/lock_levels.hpp"
#include "util/matrix.hpp"
#include "util/thread_annotations.hpp"

namespace ds::thermal {

class StepPropagator {
 public:
  /// The one-step affine operator T' = A T + B P + c, stored
  /// transposed for the panel kernels.
  struct Operator {
    util::Matrix state_t;  // n x n: A^T
    util::Matrix input_t;  // num_cores x n: B^T
    util::Matrix ambient;  // 1 x n: c^T
  };

  /// Folds the implicit-Euler step of `model` at step `dt_s` into the
  /// dense operator triple. O(n^2 N) build (a factor within the
  /// system's profile of about N columns, then a multi-RHS solve on the
  /// identity), done once per (model, dt). Throws
  /// std::invalid_argument for non-positive dt and util::SolverError
  /// if the system matrix is singular or a folded operator is
  /// non-finite (e.g. a dt so small that C/dt overflows).
  StepPropagator(const RcModel& model, double dt_s);

  const Operator& step() const { return step_; }

  /// Resident bytes of the step operator (ModelCache budget
  /// accounting).
  std::size_t ApproxBytes() const;

  double dt() const { return dt_; }
  std::size_t num_nodes() const { return step_.state_t.rows(); }
  std::size_t num_cores() const { return step_.input_t.rows(); }
  const RcModel& model() const { return *model_; }

 private:
  const RcModel* model_;
  double dt_;
  Operator step_;
};

/// Thread-safe dt -> StepPropagator cache for one RcModel. Platforms
/// own one (lazily) and runtime::ModelCache shares one per cached
/// thermal entry, so every simulator and sweep job over the same model
/// reuses the same folded operators. Counts builds and hits into the
/// "thermal.propagator_*" telemetry counters.
class PropagatorSet {
 public:
  /// Returns the propagator for (model, dt), building it on first use.
  /// All calls must pass the same model (contract-checked): a set is
  /// tied to the model whose assets it caches.
  std::shared_ptr<const StepPropagator> For(const RcModel& model,
                                            double dt_s) const;

  /// Number of distinct (dt) entries built so far (tests/telemetry).
  std::size_t size() const;

  /// Sum of ApproxBytes over every propagator in the set.
  std::size_t ApproxBytes() const;

 private:
  mutable Mutex mu_{locks::kPropagator};
  mutable const RcModel* model_ DS_GUARDED_BY(mu_) = nullptr;
  mutable std::map<double, std::shared_ptr<const StepPropagator>> by_dt_
      DS_GUARDED_BY(mu_);
};

}  // namespace ds::thermal
