#include "util/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::util {

LuFactorization::LuFactorization(const Matrix& a)
    : LuFactorization(a, 0.0) {}

LuFactorization::LuFactorization(const Matrix& a, double pivot_floor)
    : n_(a.rows()), lu_(a) {
  DS_REQUIRE(a.rows() == a.cols(), "LuFactorization: matrix is "
                                       << a.rows() << "x" << a.cols());
  DS_REQUIRE(pivot_floor >= 0.0,
             "LuFactorization: pivot_floor " << pivot_floor << " < 0");
  DS_TELEM_COUNT("lu.factorizations", 1);
  DS_TELEM_TIMER("lu.factor_us");
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivot: largest |a_ik| on or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      if (pivot_floor <= 0.0)
        throw SolverError("LuFactorization: matrix is singular");
      // Perturbed pivoting: regularize the vanishing pivot in place.
      lu_(pivot, k) = lu_(pivot, k) < 0.0 ? -pivot_floor : pivot_floor;
    }
    if (pivot != k) {
      auto rk = lu_.row(k);
      auto rp = lu_.row(pivot);
      for (std::size_t c = 0; c < n_; ++c) std::swap(rk[c], rp[c]);
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      // Exact zero skip is a sparsity fast path, not a tolerance test.
      if (factor == 0.0) continue;  // ds_lint: allow(float-equals)
      auto row_r = lu_.row(r);
      auto row_k = lu_.row(k);
      for (std::size_t c = k + 1; c < n_; ++c) row_r[c] -= factor * row_k[c];
    }
  }
}

std::vector<double> LuFactorization::Solve(std::span<const double> b) const {
  DS_REQUIRE(b.size() == n_,
             "LuFactorization::Solve: rhs size " << b.size() << " != " << n_);
  std::vector<double> x(n_);
  // Apply permutation while loading.
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  SolveInPlaceNoPermute(x);
  return x;
}

void LuFactorization::SolveInPlaceNoPermute(std::span<double> x) const {
  DS_TELEM_COUNT("lu.solves", 1);
  // Forward substitution with unit-diagonal L.
  for (std::size_t r = 1; r < n_; ++r) {
    auto row = lu_.row(r);
    double acc = x[r];
    for (std::size_t c = 0; c < r; ++c) acc -= row[c] * x[c];
    x[r] = acc;
  }
  // Back substitution with U.
  for (std::size_t ri = n_; ri-- > 0;) {
    auto row = lu_.row(ri);
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) acc -= row[c] * x[c];
    x[ri] = acc / row[ri];
  }
}

void LuFactorization::SolveMany(Matrix* b) const {
  DS_REQUIRE(b != nullptr, "LuFactorization::SolveMany: null rhs matrix");
  DS_REQUIRE(b->rows() == n_,
             "LuFactorization::SolveMany: rhs has " << b->rows()
                                                    << " rows, need " << n_);
  DS_TELEM_COUNT("lu.solve_many_calls", 1);
  DS_TELEM_COUNT("lu.solve_many_rhs", b->cols());
  const std::size_t k = b->cols();
  if (k == 0) return;

  // Apply the pivot permutation once, row-for-row, into a staging
  // matrix, then take it over. Build-time only; the per-step paths
  // never reach this function.
  Matrix permuted(n_, k);
  for (std::size_t r = 0; r < n_; ++r) {
    auto src = b->row(perm_[r]);
    auto dst = permuted.row(r);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  *b = std::move(permuted);

  // Both triangular sweeps, cache-blocked over column panels so the
  // active panel of B stays resident while the factor rows stream by.
  // Inside a panel the update is row_r -= lu(r,c) * row_c: the inner
  // loop runs across the panel width with no dependency chain.
  constexpr std::size_t kPanel = 128;
  for (std::size_t j0 = 0; j0 < k; j0 += kPanel) {
    const std::size_t j1 = std::min(k, j0 + kPanel);
    // Forward substitution with unit-diagonal L.
    for (std::size_t r = 1; r < n_; ++r) {
      auto lr = lu_.row(r);
      double* xr = b->row(r).data();
      for (std::size_t c = 0; c < r; ++c) {
        const double factor = lr[c];
        // Exact zero skip is a sparsity fast path, not a tolerance test.
        if (factor == 0.0) continue;  // ds_lint: allow(float-equals)
        const double* xc = b->row(c).data();
        for (std::size_t j = j0; j < j1; ++j) xr[j] -= factor * xc[j];
      }
    }
    // Back substitution with U.
    for (std::size_t ri = n_; ri-- > 0;) {
      auto lr = lu_.row(ri);
      double* xr = b->row(ri).data();
      for (std::size_t c = ri + 1; c < n_; ++c) {
        const double factor = lr[c];
        if (factor == 0.0) continue;  // ds_lint: allow(float-equals)
        const double* xc = b->row(c).data();
        for (std::size_t j = j0; j < j1; ++j) xr[j] -= factor * xc[j];
      }
      const double inv_diag = 1.0 / lr[ri];
      for (std::size_t j = j0; j < j1; ++j) xr[j] *= inv_diag;
    }
  }
}

double LuFactorization::Determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

}  // namespace ds::util
