// LU factorization with partial pivoting.
//
// The thermal solvers factor their conductance matrix once per platform
// and then reuse the factorization for many right-hand sides (one per
// candidate mapping / transient step), so factor and solve are split.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "util/matrix.hpp"

namespace ds::util {

/// Typed error for linear-solver failures (singular factorization,
/// non-convergent fixed-point iteration, non-finite solutions). Derives
/// from std::runtime_error so existing broad catches keep working while
/// hardened callers can catch the solver class specifically and retry.
class SolverError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// LU factorization (Doolittle, partial pivoting) of a square matrix.
///
/// Usage:
///   LuFactorization lu(G);          // O(n^3), done once
///   std::vector<double> t = lu.Solve(p);  // O(n^2), done many times
class LuFactorization {
 public:
  /// Factors `a`. Throws std::invalid_argument if `a` is not square and
  /// SolverError if the matrix is numerically singular.
  explicit LuFactorization(const Matrix& a);

  /// Perturbed-pivot factorization: a pivot whose magnitude falls below
  /// the singularity threshold is replaced by +/- `pivot_floor` instead
  /// of aborting. This is the retry path for solves that failed or were
  /// declared non-convergent: the perturbation regularizes the system
  /// at O(pivot_floor) accuracy cost. `pivot_floor` must be positive.
  LuFactorization(const Matrix& a, double pivot_floor);

  /// Solves A x = b for x. Requires b.size() == n().
  std::vector<double> Solve(std::span<const double> b) const;

  /// Blocked multi-RHS solve: treats each column of `b` (n x k) as an
  /// independent right-hand side and overwrites it with the solution,
  /// A B <- B. One cache-blocked pass does the permutation and both
  /// triangular sweeps for every column panel at once -- the inner
  /// loops run across the panel width, so they vectorize where the
  /// one-column solve is a serial dependency chain. Used to fold the
  /// implicit-Euler step operator into dense matrices
  /// (thermal::StepPropagator) and to build the influence matrix in
  /// one call instead of num_cores solves.
  void SolveMany(Matrix* b) const;

  std::size_t n() const { return n_; }

  /// Product of U's diagonal with pivot sign; useful for sanity checks
  /// (a well-formed conductance matrix has non-zero determinant).
  double Determinant() const;

 private:
  /// Forward/back substitution on an already-permuted RHS.
  void SolveInPlaceNoPermute(std::span<double> x) const;

  std::size_t n_ = 0;
  Matrix lu_;                 // packed L (unit diagonal implied) and U
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
};

}  // namespace ds::util
