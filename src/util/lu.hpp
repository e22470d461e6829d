// LU factorization with partial pivoting, bounded by the matrix profile.
//
// The thermal models factor a matrix once and then solve many
// right-hand sides against it (every unit die injection for the
// steady-state response block, every column of the folded step
// operator), so factor and solve are split.
//
// Profile. In natural node order an RC conductance matrix keeps every
// nonzero, and all the fill elimination creates, within about N + 4
// columns of the diagonal. The factorization tracks that profile --
// each row's first and last nonzero column, widened as fill arrives,
// and for each column the last row that can be nonzero in it -- and
// bounds every loop by it. Only structural zeros are skipped: the
// elimination order, the pivots and each element's sequence of
// operations are those of dense loops over all n columns, so L, U and
// every solve are bitwise what the dense loops compute
// (tests/test_lu.cpp keeps them as the reference). The one exception
// is a zero's sign: the dense loops can turn a structural +0 into -0
// (a zero times a negative reciprocal pivot) where the profile loops
// never touch it. Values compare equal.
//
// Partial pivoting stays, so the class is general. The thermal
// matrices (G, and C/dt + G) are diagonally dominant M-matrices and
// never swap a row.
//
// No fused multiply-add: each update is y -= f * x, rounded after the
// multiply and again after the subtract. The steady-state block B, the
// influence matrix and the folded step operators all carry those two
// roundings in their last bits, and chip_sim's greedy placement breaks
// ties between mirror-image cores on exactly those bits.
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

/// LU factorization (Doolittle, partial pivoting) of a square matrix,
/// with every loop bounded by the matrix profile (see file comment).
///
/// Usage:
///   LuFactorization lu(model.conductance());  // done once
///   std::vector<double> t = lu.Solve(p);      // done many times
class LuFactorization {
 public:
  /// Factors `a`, which it takes over: callers that assemble a matrix
  /// only to factor it move it in. Throws std::invalid_argument if `a`
  /// is not square and SolverError if it is numerically singular.
  ///
  /// A positive `pivot_floor` selects perturbed pivoting: a pivot whose
  /// magnitude falls below the singularity threshold is replaced by
  /// +/- `pivot_floor` instead of aborting. This is the retry path for
  /// solves that failed or were declared non-convergent: the
  /// perturbation regularizes the system at O(pivot_floor) accuracy
  /// cost. `pivot_floor` must not be negative.
  explicit LuFactorization(Matrix a, double pivot_floor = 0.0);

  /// Solves A x = b for x. Requires b.size() == n().
  std::vector<double> Solve(std::span<const double> b) const;

  /// Blocked multi-RHS solve: treats each column of `b` (n x k) as an
  /// independent right-hand side and overwrites it with the solution,
  /// A B <- B. One cache-blocked pass does the permutation and both
  /// triangular sweeps for every column panel at once -- the inner
  /// loops run across the panel width, so they vectorize where the
  /// one-column solve is a serial dependency chain. Used to fold the
  /// implicit-Euler step operator into dense matrices
  /// (thermal::StepPropagator) and to build the steady-state response
  /// block B (thermal::SteadyStateSolver) in one call instead of
  /// num_cores solves.
  void SolveMany(Matrix* b) const;

  std::size_t n() const { return n_; }

  /// Product of U's diagonal with pivot sign; useful for sanity checks
  /// (a well-formed conductance matrix has non-zero determinant).
  double Determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                 // packed L (unit diagonal implied) and U
  std::vector<std::size_t> perm_;   // row permutation
  std::vector<std::size_t> first_;  // per row: first column that can be
                                    // nonzero (L part)
  std::vector<std::size_t> last_;   // per row: last column that can be
                                    // nonzero (U part)
  int perm_sign_ = 1;
};

namespace detail {

/// The update of every LU loop: for each i < m, in order t = 0..q-1,
/// y[i] -= f[t] * x[t][i] -- one rounded multiply, then one rounded
/// subtract. Each element's sequence is that of q single-row passes, so
/// applying several source rows per pass over y changes no bit.
/// Exposed so the tests can hold the CPU's vector form and this plain
/// loop to the same bits.
void SubScaledRowsPortable(double* y, const double* f,
                           const double* const* x, std::size_t q,
                           std::size_t m);

/// The form LuFactorization runs on this CPU: AVX2 lanes where it has
/// them (q <= 4), else SubScaledRowsPortable.
void SubScaledRows(double* y, const double* f, const double* const* x,
                   std::size_t q, std::size_t m);

}  // namespace detail

}  // namespace ds::util
