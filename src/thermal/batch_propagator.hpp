// Lockstep stepping: k scenarios sharing one (model, dt) propagator
// advance together with a single pass over M_state / M_in.
//
// One-column stepping is memory-bound: every step streams the ~n^2
// M_state operator from cache/memory to produce one n-vector. A sweep
// runs hundreds of jobs over the SAME operator (the paper sweeps hit
// the ModelCache 86-99% of the time), so a worker holding k ready jobs
// can pack their state vectors into a column-major n x k panel
// (util/panel.hpp) and advance all of them with one operator pass --
// the interval-batched stepping idiom CoMeT uses to keep full-system
// thermal simulation tractable. Each operator row is then reused k
// times while L1-hot, turning the hot loop from memory-bound into
// compute-bound.
//
// This is the only stepping path on the folded operators: sweep
// cohorts use k > 1, the sweep's scalar jobs k = 1, and every
// TransientSimulator (DTM, sprint, chip_sim, Fig. 11) is a one-member
// instance.
//
// Determinism: the panel kernels compute every output element with a
// fixed, k-independent summation order in an IEEE (no fast-math) TU,
// so a member's trajectory is bitwise identical at any cohort size --
// including k = 1.
//
// Membership is dynamic: a job that hits its deadline, gets cancelled,
// or throws detaches mid-flight (swap-last column compaction, safe
// because column bits never depend on column position) and the rest of
// the cohort keeps stepping.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "thermal/propagator.hpp"
#include "util/panel.hpp"

namespace ds::thermal {

class SteadyStateSolver;

/// Advances up to k_max state columns in lockstep over one shared
/// StepPropagator. Not thread-safe: one instance per worker/cohort.
/// Allocation-free after construction (panels are pre-sized to k_max).
class BatchStepPropagator {
 public:
  /// An invalid member handle (returned by none; useful as a sentinel).
  static constexpr std::size_t kNoMember = static_cast<std::size_t>(-1);

  BatchStepPropagator(std::shared_ptr<const StepPropagator> prop,
                      std::size_t k_max);

  std::size_t k() const { return k_; }
  std::size_t k_max() const { return state_.k_max(); }
  std::size_t num_nodes() const { return prop_->num_nodes(); }
  std::size_t num_cores() const { return prop_->num_cores(); }
  double dt() const { return prop_->dt(); }
  const StepPropagator& propagator() const { return *prop_; }

  /// Adds a member with the given initial node-temperature state
  /// (size num_nodes()). Returns a stable member handle. Requires
  /// k() < k_max(). The member's powers start at zero.
  std::size_t AddMember(std::span<const double> initial_state);

  /// Adds a member at the steady state of `core_powers` on `solver`,
  /// with those powers set: TransientSimulator::InitializeSteadyState's
  /// start, bit for bit. Adds nothing if it throws.
  std::size_t AddMember(std::span<const double> core_powers,
                        const SteadyStateSolver& solver);

  /// Detaches a member mid-cohort (swap-last compaction). The handle
  /// becomes inactive; remaining members are unaffected bitwise.
  void RemoveMember(std::size_t member);

  bool IsActive(std::size_t member) const;

  /// Sets the member's per-core powers for subsequent steps. Throws
  /// std::invalid_argument on non-finite input, matching
  /// TransientSimulator::Step.
  void SetPowers(std::size_t member, std::span<const double> core_powers);

  /// Overwrites the member's node state (size num_nodes()).
  void SetState(std::size_t member, std::span<const double> state);

  /// Copies the member's current node state into `out` (num_nodes()).
  void CopyState(std::size_t member, std::span<double> out) const;

  /// Contiguous view of the member's current state column.
  std::span<const double> MemberState(std::size_t member) const;

  double PeakDieTemp(std::size_t member) const;

  /// One lockstep step for every active member: one panel pass over
  /// M_state and M_in plus the ambient broadcast. No-op at k() == 0.
  void Step();

  /// n calls of Step(). perfbench/layers.cpp still names it.
  void StepN(std::size_t n);

  /// Steps advanced so far (per member; members step in lockstep).
  std::size_t steps() const { return steps_; }

 private:
  std::size_t ColumnOf(std::size_t member) const;

  std::shared_ptr<const StepPropagator> prop_;
  std::size_t k_ = 0;
  std::size_t steps_ = 0;
  util::ColPanel state_;    // n x k_max, column j = member state
  util::ColPanel scratch_;  // step output, swapped in
  util::ColPanel powers_;   // num_cores x k_max
  std::vector<std::size_t> col_of_member_;  // handle -> column or kNoMember
  std::vector<std::size_t> member_of_col_;  // column -> handle
};

}  // namespace ds::thermal
