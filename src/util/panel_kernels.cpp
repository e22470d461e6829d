// Batched (panel) stepping kernels and the GEMM that folds the step
// propagator's ambient row -- the one dense kernel of the thermal
// stepping path.
//
// This TU is compiled without fast-math even in Release (see
// src/util/CMakeLists.txt): IEEE evaluation order here is a functional
// contract, not a tuning choice.
//
// Formulation: the operator is supplied TRANSPOSED (at(c, i) = A(i, c))
// and every output element is an outer-product fold
//
//     out(j, i) = fold over c = 0..n-1 of  x(j, c) * at(c, i)
//
// accumulated strictly in ascending c, one fused multiply-add per c.
// The CPU picks how it runs, once per process: the AVX2/FMA register
// tiles below (compiled for those instructions per function, so the
// binary needs neither) where it has them, detail::PanelFoldPortable's
// std::fma loop elsewhere. A fused multiply-add is correctly rounded,
// so every build, compiler setting and CPU gets the same bits. The
// per-element operation sequence depends ONLY on n and the
// zero/accumulate mode -- never on k, on the register-tile shape, or
// on the unroll factor -- because each element owns exactly one
// sequential dependency chain. That is what lets the sweep engine
// promise bitwise-identical trajectories at any cohort size: the k = 1
// lane (the sweep's scalar jobs and every TransientSimulator) runs the
// very same fold. Read with x = A and at = B, the same fold is the
// row-major product C = A B, which is how Gemm below reuses it.
//
// Speed comes from structure instead of reassociation license: the
// register tiles below keep 8 independent output accumulators live
// across the whole c loop, so the operator slab is read once per tile
// and re-used from L1/L2 across cohort members while the fma ports stay
// saturated -- turning the memory-bound one-column stream into a
// compute-bound panel pass.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/contracts.hpp"
#include "util/kernels.hpp"
#include "util/matrix.hpp"
#include "util/panel.hpp"

namespace ds::util {
namespace {

using PanelFold = void (*)(const Matrix& at, const Matrix& xs, std::size_t k,
                           Matrix& os, bool zero);

#if defined(__x86_64__)
#define DS_AVX2_FMA __attribute__((target("avx2,fma")))

/// 8-output x up-to-4-member register tile: one ymm accumulator pair
/// per member stays live across the full ascending-c loop, each 64-byte
/// operator row slice is loaded once and re-used by every member in the
/// group. The 8-wide slab (n rows x 64 B) fits L1, so across member
/// groups the operator is re-read from L1, not L2/memory. Per-element
/// order: one fused multiply-add per c, ascending.
template <int J>
DS_AVX2_FMA inline void Tile8(const double* at, std::size_t stride,
                              std::size_t n, const double* const* xj,
                              double* const* oj, bool zero) {
  static_assert(J >= 1 && J <= 4);
  __m256d lo[J], hi[J];
  for (int t = 0; t < J; ++t) {
    lo[t] = zero ? _mm256_setzero_pd() : _mm256_loadu_pd(oj[t]);
    hi[t] = zero ? _mm256_setzero_pd() : _mm256_loadu_pd(oj[t] + 4);
  }
  for (std::size_t c = 0; c < n; ++c, at += stride) {
    const __m256d r0 = _mm256_loadu_pd(at);
    const __m256d r1 = _mm256_loadu_pd(at + 4);
    for (int t = 0; t < J; ++t) {
      const __m256d b = _mm256_set1_pd(xj[t][c]);
      lo[t] = _mm256_fmadd_pd(b, r0, lo[t]);
      hi[t] = _mm256_fmadd_pd(b, r1, hi[t]);
    }
  }
  for (int t = 0; t < J; ++t) {
    _mm256_storeu_pd(oj[t], lo[t]);
    _mm256_storeu_pd(oj[t] + 4, hi[t]);
  }
}

/// 4-output x 1-member tail tile. Same per-element fold.
DS_AVX2_FMA inline void Tile4x1(const double* at, std::size_t stride,
                                std::size_t n, const double* x0, double* o0,
                                bool zero) {
  __m256d a = zero ? _mm256_setzero_pd() : _mm256_loadu_pd(o0);
  for (std::size_t c = 0; c < n; ++c, at += stride)
    a = _mm256_fmadd_pd(_mm256_set1_pd(x0[c]), _mm256_loadu_pd(at), a);
  _mm256_storeu_pd(o0, a);
}

/// Scalar tail for the last m % 4 outputs of one member: up to three
/// independent ascending-c std::fma chains (one fma instruction each
/// here), matching the vector lanes' per-element operation exactly.
DS_AVX2_FMA inline void TileScalar(const double* at, std::size_t stride,
                                   std::size_t n, const double* x0,
                                   double* o0, std::size_t w, bool zero) {
  double s[3] = {0.0, 0.0, 0.0};
  if (!zero)
    for (std::size_t t = 0; t < w; ++t) s[t] = o0[t];
  for (std::size_t c = 0; c < n; ++c, at += stride) {
    const double b = x0[c];
    for (std::size_t t = 0; t < w; ++t) s[t] = std::fma(b, at[t], s[t]);
  }
  for (std::size_t t = 0; t < w; ++t) o0[t] = s[t];
}

/// One fused-multiply-add axpy pass: o[0..m) += b * a[0..m). Used by
/// the streaming (small-k) form; same per-element operation as the
/// register tiles.
DS_AVX2_FMA inline void AxpyRow(const double* a, double b, double* o,
                                std::size_t m) {
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    _mm256_storeu_pd(
        o + i, _mm256_fmadd_pd(vb, _mm256_loadu_pd(a + i),
                               _mm256_loadu_pd(o + i)));
  for (; i < m; ++i) o[i] = std::fma(b, a[i], o[i]);
}

/// Four-c axpy pass: o += b0 a0 + b1 a1 + b2 a2 + b3 a3 with the four
/// fmas chained in ascending-c order per element -- bitwise identical
/// to four AxpyRow passes, but the output row round-trips L1 once per
/// quad instead of once per c.
DS_AVX2_FMA inline void Axpy4Row(const double* a0, const double* a1,
                                 const double* a2, const double* a3,
                                 double b0, double b1, double b2, double b3,
                                 double* o, std::size_t m) {
  const __m256d v0 = _mm256_set1_pd(b0);
  const __m256d v1 = _mm256_set1_pd(b1);
  const __m256d v2 = _mm256_set1_pd(b2);
  const __m256d v3 = _mm256_set1_pd(b3);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256d acc = _mm256_loadu_pd(o + i);
    acc = _mm256_fmadd_pd(v0, _mm256_loadu_pd(a0 + i), acc);
    acc = _mm256_fmadd_pd(v1, _mm256_loadu_pd(a1 + i), acc);
    acc = _mm256_fmadd_pd(v2, _mm256_loadu_pd(a2 + i), acc);
    acc = _mm256_fmadd_pd(v3, _mm256_loadu_pd(a3 + i), acc);
    _mm256_storeu_pd(o + i, acc);
  }
  for (; i < m; ++i) {
    double s = o[i];
    s = std::fma(b0, a0[i], s);
    s = std::fma(b1, a1[i], s);
    s = std::fma(b2, a2[i], s);
    s = std::fma(b3, a3[i], s);
    o[i] = s;
  }
}

/// out(j, 0..m) (+)= sum_c x(j, c) at(c, 0..m) for j < k. Two shapes,
/// both the identical ascending-c fused fold per element -- the tiling
/// is free to change, the per-element bits are not (see file comment):
///   k <= 2 -- streaming axpy sweep: c outer, so the operator is read
///             once, sequentially, like a GEMV stream (memory-bound
///             regime; prefetch-friendly).
///   k >= 3 -- register tiles: 8-wide output blocks x member groups of
///             four, c innermost, so accumulators never round-trip
///             through memory and each L1-resident operator slab is
///             re-used by every member (compute-bound regime).
DS_AVX2_FMA void PanelFmaTiles(const Matrix& at, const Matrix& xs,
                               std::size_t k, Matrix& os, bool zero) {
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  const double* base = at.row(0).data();
  if (k <= 2) {
    for (std::size_t j = 0; j < k; ++j) {
      double* oj = os.row(j).data();
      if (zero) std::fill(oj, oj + m, 0.0);
    }
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      const double* ac = base + c * m;
      for (std::size_t j = 0; j < k; ++j) {
        const double* xj = xs.row(j).data();
        Axpy4Row(ac, ac + m, ac + 2 * m, ac + 3 * m, xj[c], xj[c + 1],
                 xj[c + 2], xj[c + 3], os.row(j).data(), m);
      }
    }
    for (; c < n; ++c) {
      const double* ac = base + c * m;
      for (std::size_t j = 0; j < k; ++j)
        AxpyRow(ac, xs.row(j).data()[c], os.row(j).data(), m);
    }
    return;
  }
  std::size_t i0 = 0;
  for (; i0 + 8 <= m; i0 += 8) {
    std::size_t j = 0;
    for (; j + 4 <= k; j += 4) {
      const double* xj[4] = {xs.row(j).data(), xs.row(j + 1).data(),
                             xs.row(j + 2).data(), xs.row(j + 3).data()};
      double* oj[4] = {os.row(j).data() + i0, os.row(j + 1).data() + i0,
                       os.row(j + 2).data() + i0,
                       os.row(j + 3).data() + i0};
      Tile8<4>(base + i0, m, n, xj, oj, zero);
    }
    if (j + 2 <= k) {
      const double* xj[2] = {xs.row(j).data(), xs.row(j + 1).data()};
      double* oj[2] = {os.row(j).data() + i0, os.row(j + 1).data() + i0};
      Tile8<2>(base + i0, m, n, xj, oj, zero);
      j += 2;
    }
    if (j < k) {
      const double* xj[1] = {xs.row(j).data()};
      double* oj[1] = {os.row(j).data() + i0};
      Tile8<1>(base + i0, m, n, xj, oj, zero);
    }
  }
  for (; i0 + 4 <= m; i0 += 4)
    for (std::size_t j = 0; j < k; ++j)
      Tile4x1(base + i0, m, n, xs.row(j).data(), os.row(j).data() + i0,
              zero);
  if (i0 < m)
    for (std::size_t j = 0; j < k; ++j)
      TileScalar(base + i0, m, n, xs.row(j).data(), os.row(j).data() + i0,
                 m - i0, zero);
}

#endif

PanelFold SelectPanelFold() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return PanelFmaTiles;
#endif
  return detail::PanelFoldPortable;
}

void PanelImplT(const Matrix& at, const Matrix& xs, std::size_t k,
                Matrix& os, bool zero) {
  static const PanelFold fold = SelectPanelFold();
  fold(at, xs, k, os, zero);
}

void CheckPanelShapes(const Matrix& at, const ColPanel& x, std::size_t k,
                      ColPanel* out) {
  DS_REQUIRE(out != nullptr, "PanelApplyT: null output");
  DS_REQUIRE(x.n() == at.rows() && out->n() == at.cols(),
             "PanelApplyT: A^T is " << at.rows() << "x" << at.cols()
                                    << ", x n " << x.n() << ", out n "
                                    << out->n());
  DS_REQUIRE(k <= x.k_max() && k <= out->k_max(),
             "PanelApplyT: k " << k << " exceeds panel capacity "
                               << x.k_max() << "/" << out->k_max());
}

void CheckGemmShapes(const Matrix& a, const Matrix& b, const Matrix* c) {
  DS_REQUIRE(c != nullptr, "Gemm: null output");
  DS_REQUIRE(a.cols() == b.rows() && c->rows() == a.rows() &&
                 c->cols() == b.cols(),
             "Gemm: A " << a.rows() << "x" << a.cols() << " * B "
                        << b.rows() << "x" << b.cols() << " -> C "
                        << c->rows() << "x" << c->cols());
}

}  // namespace

namespace detail {

void PanelFoldPortable(const Matrix& at, const Matrix& xs, std::size_t k,
                       Matrix& os, bool zero) {
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  for (std::size_t j = 0; j < k; ++j) {
    const double* xj = xs.row(j).data();
    double* oj = os.row(j).data();
    if (zero) std::fill(oj, oj + m, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
      const double b = xj[c];
      const double* ac = at.row(c).data();
      for (std::size_t i = 0; i < m; ++i) oj[i] = std::fma(b, ac[i], oj[i]);
    }
  }
}

}  // namespace detail

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckGemmShapes(a, b, c);
  PanelImplT(b, a, a.rows(), *c, /*zero=*/true);
}

void PanelApplyT(const Matrix& at, const ColPanel& x, std::size_t k,
                 ColPanel* out) {
  CheckPanelShapes(at, x, k, out);
  PanelImplT(at, x.storage(), k, out->storage(), /*zero=*/true);
}

void PanelApplyAddT(const Matrix& at, const ColPanel& x, std::size_t k,
                    ColPanel* out) {
  CheckPanelShapes(at, x, k, out);
  PanelImplT(at, x.storage(), k, out->storage(), /*zero=*/false);
}

void PanelAddBroadcast(std::span<const double> v, std::size_t k,
                       ColPanel* out) {
  DS_REQUIRE(out != nullptr, "PanelAddBroadcast: null output");
  DS_REQUIRE(v.size() == out->n(), "PanelAddBroadcast: v "
                                       << v.size() << ", panel n "
                                       << out->n());
  DS_REQUIRE(k <= out->k_max(), "PanelAddBroadcast: k " << k
                                                        << " exceeds "
                                                        << out->k_max());
  for (std::size_t j = 0; j < k; ++j) {
    double* oj = out->storage().row(j).data();
    for (std::size_t i = 0; i < v.size(); ++i) oj[i] += v[i];
  }
}

}  // namespace ds::util
