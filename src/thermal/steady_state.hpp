// Steady-state thermal solver and the die-to-die influence matrix.
//
// G T = P + g_amb T_amb. Heat enters only at die nodes and the network
// is linear (G 1 = g_amb: conduction cancels on a uniform field), so
// every node temperature decomposes as
//
//     T = T_amb * 1 + B * P_core,   B = G^-1 restricted to die columns
//
// The constructor factors G, solves all unit die injections in one
// blocked multi-RHS pass to get B (num_nodes x num_cores) and keeps B;
// the LU factorization is a construction temporary. Every solve after
// that is a small dense product, not two triangular sweeps over all
// nodes. B's die rows are the influence matrix A[i][j] = dT_i/dP_j
// (symmetric, positive). TSP and the mapping policies in src/core are
// built directly on A: the peak temperature of any uniform-power
// mapping is a row-sum over the active set, which turns thermal
// feasibility checks into O(N^2) arithmetic.
//
// The solver is immutable after construction, so one instance is
// shared read-only across threads (runtime::ModelCache, Platform).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "thermal/rc_model.hpp"
#include "util/lu.hpp"
#include "util/matrix.hpp"

namespace ds::thermal {

class SteadyStateSolver {
 public:
  /// Factors the conductance matrix of `model` and builds B from it
  /// (O(n N^2) for n = 4N + 12 nodes: G's profile is about N wide;
  /// done once). The model must outlive the solver.
  explicit SteadyStateSolver(const RcModel& model);

  /// Die temperatures [C] for the given per-core powers [W]: bitwise
  /// the first num_cores entries of SolveFull.
  std::vector<double> Solve(std::span<const double> core_powers) const;

  /// All node temperatures [C] (die, TIM, spreader, sink, borders).
  std::vector<double> SolveFull(std::span<const double> core_powers) const;

  /// Steady state with temperature-dependent core power. `power_at_temp`
  /// maps (core index, core temperature) to that core's total power; the
  /// solver iterates power -> temperature to a fixed point.
  /// Returns die temperatures; `out_powers` (optional) receives the
  /// converged per-core powers. Throws util::SolverError if the
  /// iteration fails to converge (thermal runaway).
  std::vector<double> SolveWithFeedback(
      const std::function<double(std::size_t, double)>& power_at_temp,
      std::vector<double>* out_powers = nullptr, int max_iters = 50,
      double tol_c = 1e-4) const;

  /// Influence matrix A (num_cores x num_cores): B's die rows.
  const util::Matrix& InfluenceMatrix() const { return influence_; }

  /// Peak die temperature for a uniform power `p_each` on `active` cores
  /// (all other cores fully dark, zero power): closed form from A.
  double PeakTempUniform(std::span<const std::size_t> active,
                         double p_each) const;

  const RcModel& model() const { return *model_; }

 private:
  /// T_amb + B P over B's first `rows` rows (die nodes come first).
  std::vector<double> SolveRows(std::span<const double> core_powers,
                                std::size_t rows) const;

  const RcModel* model_;
  util::Matrix influence_;  // B's die rows (A)
  util::Matrix package_;    // B's other rows: TIM, spreader, sink, borders
};

}  // namespace ds::thermal
