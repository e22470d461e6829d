#include "util/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::util {
namespace {

using SubScaledRowsFn = void (*)(double* y, const double* f,
                                 const double* const* x, std::size_t q,
                                 std::size_t m);

// detail::SubScaledRowsPortable four lanes at a time, compiled for
// AVX2 per function and chosen once from the CPU. A multiply and a
// subtract, never fused (the library builds with -ffp-contract=off):
// each lane rounds twice, exactly as the plain loop does.
#if defined(__x86_64__)
#define DS_AVX2 __attribute__((target("avx2")))

DS_AVX2 inline void SubScaledRowAvx2(double* y, double f, const double* x,
                                     std::size_t m) {
  const __m256d vf = _mm256_set1_pd(f);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    _mm256_storeu_pd(y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i),
                                          _mm256_mul_pd(vf, _mm256_loadu_pd(
                                                                x + i))));
  for (; i < m; ++i) y[i] -= f * x[i];
}

/// Four source rows in one pass over y: y is loaded and stored once
/// per four updates, each element still taking them in order.
DS_AVX2 inline void SubScaledRows4Avx2(double* y, const double* f,
                                       const double* const* x,
                                       std::size_t m) {
  const __m256d f0 = _mm256_set1_pd(f[0]);
  const __m256d f1 = _mm256_set1_pd(f[1]);
  const __m256d f2 = _mm256_set1_pd(f[2]);
  const __m256d f3 = _mm256_set1_pd(f[3]);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256d acc = _mm256_loadu_pd(y + i);
    acc = _mm256_sub_pd(acc, _mm256_mul_pd(f0, _mm256_loadu_pd(x[0] + i)));
    acc = _mm256_sub_pd(acc, _mm256_mul_pd(f1, _mm256_loadu_pd(x[1] + i)));
    acc = _mm256_sub_pd(acc, _mm256_mul_pd(f2, _mm256_loadu_pd(x[2] + i)));
    acc = _mm256_sub_pd(acc, _mm256_mul_pd(f3, _mm256_loadu_pd(x[3] + i)));
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    double acc = y[i];
    acc -= f[0] * x[0][i];
    acc -= f[1] * x[1][i];
    acc -= f[2] * x[2][i];
    acc -= f[3] * x[3][i];
    y[i] = acc;
  }
}

DS_AVX2 void SubScaledRowsAvx2(double* y, const double* f,
                               const double* const* x, std::size_t q,
                               std::size_t m) {
  std::size_t t = 0;
  for (; t + 4 <= q; t += 4) SubScaledRows4Avx2(y, f + t, x + t, m);
  for (; t < q; ++t) SubScaledRowAvx2(y, f[t], x[t], m);
}
#endif

SubScaledRowsFn SelectSubScaledRows() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SubScaledRowsAvx2;
#endif
  return detail::SubScaledRowsPortable;
}

/// The update every loop below runs, chosen once from the CPU.
SubScaledRowsFn SubScaledRowsForCpu() {
  static const SubScaledRowsFn fn = SelectSubScaledRows();
  return fn;
}

bool AllZero(std::span<const double> v) {
  for (const double x : v)
    if (x != 0.0) return false;  // ds_lint: allow(float-equals)
  return true;
}

}  // namespace

namespace detail {

void SubScaledRowsPortable(double* y, const double* f,
                           const double* const* x, std::size_t q,
                           std::size_t m) {
  for (std::size_t t = 0; t < q; ++t)
    for (std::size_t i = 0; i < m; ++i) y[i] -= f[t] * x[t][i];
}

void SubScaledRows(double* y, const double* f, const double* const* x,
                   std::size_t q, std::size_t m) {
  SubScaledRowsForCpu()(y, f, x, q, m);
}

}  // namespace detail

LuFactorization::LuFactorization(Matrix a, double pivot_floor)
    : n_(a.rows()), lu_(std::move(a)) {
  DS_REQUIRE(lu_.rows() == lu_.cols(), "LuFactorization: matrix is "
                                           << lu_.rows() << "x"
                                           << lu_.cols());
  DS_REQUIRE(pivot_floor >= 0.0,
             "LuFactorization: pivot_floor " << pivot_floor << " < 0");
  DS_TELEM_COUNT("lu.factorizations", 1);
  DS_TELEM_TIMER("lu.factor_us");
  perm_.resize(n_);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // The input's profile, diagonal included. reach[k] is the last row
  // whose first column is at or before k: no row below it can hold a
  // nonzero in column k, then or after fill, because fill only lands
  // right of a row's first column. As a running maximum it stays valid
  // under the swaps below, which exchange rows within (k, reach[k]].
  first_.resize(n_);
  last_.resize(n_);
  std::vector<std::size_t> reach(n_, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::span<const double> row = lu_.row(r);
    std::size_t lo = 0;
    while (lo < r && row[lo] == 0.0) ++lo;  // ds_lint: allow(float-equals)
    std::size_t hi = n_ - 1;
    while (hi > r && row[hi] == 0.0) --hi;  // ds_lint: allow(float-equals)
    first_[r] = lo;
    last_[r] = hi;
    reach[lo] = std::max(reach[lo], r);
  }
  for (std::size_t k = 1; k < n_; ++k)
    reach[k] = std::max(reach[k], reach[k - 1]);

  const SubScaledRowsFn sub = SubScaledRowsForCpu();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t rows_end = reach[k] + 1;
    // Partial pivot: largest |a_rk| on or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < rows_end; ++r) {
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
      // Both rows are zero outside the union of their profiles.
      const std::size_t lo = std::min(first_[k], first_[pivot]);
      const std::size_t hi = std::max(last_[k], last_[pivot]) + 1;
      const auto rk = lu_.row(k);
      std::swap_ranges(rk.begin() + lo, rk.begin() + hi,
                       lu_.row(pivot).begin() + lo);
      std::swap(first_[k], first_[pivot]);
      std::swap(last_[k], last_[pivot]);
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    const double* row_k = lu_.row(k).data();
    const std::size_t width = last_[k] > k ? last_[k] - k : 0;
    for (std::size_t r = k + 1; r < rows_end; ++r) {
      double* row_r = lu_.row(r).data();
      const double factor = row_r[k] * inv_pivot;
      row_r[k] = factor;
      // Exact zero skip is a sparsity fast path, not a tolerance test.
      if (factor == 0.0) continue;  // ds_lint: allow(float-equals)
      const double* src = row_k + k + 1;
      sub(row_r + k + 1, &factor, &src, 1, width);
      last_[r] = std::max(last_[r], last_[k]);
    }
  }
}

std::vector<double> LuFactorization::Solve(std::span<const double> b) const {
  DS_REQUIRE(b.size() == n_,
             "LuFactorization::Solve: rhs size " << b.size() << " != " << n_);
  DS_TELEM_COUNT("lu.solves", 1);
  std::vector<double> x(n_);
  // Apply permutation while loading.
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  // Forward substitution with unit-diagonal L.
  for (std::size_t r = 1; r < n_; ++r) {
    const double* row = lu_.row(r).data();
    double acc = x[r];
    for (std::size_t c = first_[r]; c < r; ++c) acc -= row[c] * x[c];
    x[r] = acc;
  }
  // Back substitution with U.
  for (std::size_t r = n_; r-- > 0;) {
    const double* row = lu_.row(r).data();
    double acc = x[r];
    for (std::size_t c = r + 1; c <= last_[r]; ++c) acc -= row[c] * x[c];
    x[r] = acc / row[r];
  }
  return x;
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
  const SubScaledRowsFn sub = SubScaledRowsForCpu();
  std::size_t j0 = 0;  // the panel: columns [j0, j0 + w)
  std::size_t w = 0;
  // Row r of the panel -= lu(r, c) * row c of the panel, for every
  // nonzero lu(r, c) with c in [c0, c1), ascending, in one call.
  std::vector<double> f(n_);
  std::vector<const double*> x(n_);
  const auto subtract_rows = [&](std::size_t r, std::size_t c0,
                                 std::size_t c1) {
    const double* lr = lu_.row(r).data();
    std::size_t q = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      // Exact zero skip is a sparsity fast path, not a tolerance test.
      if (lr[c] == 0.0) continue;  // ds_lint: allow(float-equals)
      f[q] = lr[c];
      x[q] = b->row(c).data() + j0;
      ++q;
    }
    sub(b->row(r).data() + j0, f.data(), x.data(), q, w);
  };
  constexpr std::size_t kPanel = 128;
  for (; j0 < k; j0 += kPanel) {
    w = std::min(k, j0 + kPanel) - j0;
    // Forward substitution with unit-diagonal L. Rows above the
    // panel's first nonzero row stay zero, and the zero multiples of
    // them leave the rows below unchanged, so the sweep starts there.
    std::size_t start = 0;
    while (start < n_ && AllZero(b->row(start).subspan(j0, w))) ++start;
    for (std::size_t r = start + 1; r < n_; ++r)
      subtract_rows(r, std::max(first_[r], start), r);
    // Back substitution with U.
    for (std::size_t r = n_; r-- > 0;) {
      subtract_rows(r, r + 1, last_[r] + 1);
      const double inv_diag = 1.0 / lu_(r, r);
      double* xr = b->row(r).data() + j0;
      for (std::size_t j = 0; j < w; ++j) xr[j] *= inv_diag;
    }
  }
}

double LuFactorization::Determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

}  // namespace ds::util
