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
// The CPU picks how it runs, once per process, from three forms
// (detail::PanelFoldForms, fastest first):
//   - AVX-512F register tiles for k >= 3, with the AVX2 streaming sweep
//     for k <= 2;
//   - AVX2/FMA register tiles for k >= 3, with the same streaming
//     sweep -- the only vector form on CPUs without AVX-512;
//   - detail::PanelFoldPortable's std::fma loop, the reference and the
//     form off x86.
// The vector forms are compiled for their instructions per function,
// so the binary needs none of them. k <= 2 stays on the AVX2 sweep in
// every vector form: it streams the operator once and is bound by that
// stream, which wider lanes do not shorten. A fused multiply-add is
// correctly rounded, so every build, compiler setting and CPU gets the
// same bits. The per-element operation sequence depends ONLY on n and
// the zero/accumulate mode -- never on k, on the form, on the
// register-tile shape or on the unroll factor -- because each element
// owns exactly one sequential dependency chain. That is what lets the
// sweep engine promise bitwise-identical trajectories at any cohort
// size: the k = 1 lane (the sweep's scalar jobs and every
// TransientSimulator) runs the very same fold. Read with x = A and
// at = B, the same fold is the row-major product C = A B, which is how
// Gemm below reuses it.
//
// Speed comes from structure instead of reassociation license: the
// register tiles below keep 8 (AVX2) or 16 (AVX-512) independent output
// accumulators live across the c loop, so each operator row slice is
// loaded once per member group and re-used from L1 across the groups
// while the fma ports stay saturated -- turning the memory-bound
// one-column stream into a compute-bound panel pass.
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

#if defined(__x86_64__)
#define DS_AVX2_FMA __attribute__((target("avx2,fma")))
#define DS_AVX512 __attribute__((target("avx512f,avx2,fma")))

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

/// Outputs [i0, m) of every member, fewer than eight: 4-wide tiles,
/// then the scalar tail. Both tile forms end here.
DS_AVX2_FMA inline void TailColumns(const double* base, std::size_t m,
                                    std::size_t n, const Matrix& xs,
                                    std::size_t k, Matrix& os,
                                    std::size_t i0, bool zero) {
  for (; i0 + 4 <= m; i0 += 4)
    for (std::size_t j = 0; j < k; ++j)
      Tile4x1(base + i0, m, n, xs.row(j).data(), os.row(j).data() + i0,
              zero);
  if (i0 < m)
    for (std::size_t j = 0; j < k; ++j)
      TileScalar(base + i0, m, n, xs.row(j).data(), os.row(j).data() + i0,
                 m - i0, zero);
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

/// out(j, 0..m) (+)= sum_c x(j, c) at(c, 0..m) for j < k <= 2: the
/// streaming axpy sweep. c is outer, so the operator is read once,
/// sequentially, like a GEMV stream (memory-bound regime;
/// prefetch-friendly). Every vector form runs k <= 2 here.
DS_AVX2_FMA void PanelStreamAvx2(const Matrix& at, const Matrix& xs,
                                 std::size_t k, Matrix& os, bool zero) {
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  const double* base = at.row(0).data();
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
}

/// The same fold for k >= 3 on AVX2 register tiles: 8-wide output
/// blocks x member groups of four, c innermost, so accumulators never
/// round-trip through memory and each L1-resident operator slab is
/// re-used by every member (compute-bound regime).
DS_AVX2_FMA void PanelTilesAvx2(const Matrix& at, const Matrix& xs,
                                std::size_t k, Matrix& os, bool zero) {
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  const double* base = at.row(0).data();
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
  TailColumns(base, m, n, xs, k, os, i0, zero);
}

/// (8 W)-output x J-member zmm register tile over operator rows
/// [c0, c1): W accumulators per member stay live across the rows, and
/// each row slice is loaded once and re-used by every member in the
/// group. Seeded with 0 or with the output, so a column folded block by
/// block extends one chain. Per-element order: one fused multiply-add
/// per c, ascending.
template <std::size_t W, std::size_t J>
DS_AVX512 inline void TileZmm(const double* at, std::size_t stride,
                              std::size_t c0, std::size_t c1,
                              const double* const* xj, double* const* oj,
                              bool zero) {
  __m512d acc[J][W];
  for (std::size_t t = 0; t < J; ++t)
    for (std::size_t w = 0; w < W; ++w)
      acc[t][w] = zero ? _mm512_setzero_pd() : _mm512_loadu_pd(oj[t] + 8 * w);
  at += c0 * stride;
  for (std::size_t c = c0; c < c1; ++c, at += stride) {
    __m512d r[W];
    for (std::size_t w = 0; w < W; ++w) r[w] = _mm512_loadu_pd(at + 8 * w);
    for (std::size_t t = 0; t < J; ++t) {
      const __m512d b = _mm512_set1_pd(xj[t][c]);
      for (std::size_t w = 0; w < W; ++w)
        acc[t][w] = _mm512_fmadd_pd(b, r[w], acc[t][w]);
    }
  }
  for (std::size_t t = 0; t < J; ++t)
    for (std::size_t w = 0; w < W; ++w) _mm512_storeu_pd(oj[t] + 8 * w, acc[t][w]);
}

/// Outputs [i0, i0 + 8 W) of members [j, k) over rows [c0, c1): groups
/// of J members, the remainder in groups of J/2, J/4, ..., 1.
template <std::size_t W, std::size_t J>
DS_AVX512 inline void TileMembers(const double* at, std::size_t stride,
                                  std::size_t c0, std::size_t c1,
                                  const Matrix& xs, Matrix& os,
                                  std::size_t i0, std::size_t j,
                                  std::size_t k, bool zero) {
  for (; j + J <= k; j += J) {
    const double* xj[J];
    double* oj[J];
    for (std::size_t t = 0; t < J; ++t) {
      xj[t] = xs.row(j + t).data();
      oj[t] = os.row(j + t).data() + i0;
    }
    TileZmm<W, J>(at, stride, c0, c1, xj, oj, zero);
  }
  if constexpr (J > 1)
    if (j < k)
      TileMembers<W, J / 2>(at, stride, c0, c1, xs, os, i0, j, k, zero);
}

/// Operator rows per block of an AVX-512 output column. A 32-wide block
/// (16 KB) stays in L1 beside the members' x slices and outputs while
/// every member group reads it.
constexpr std::size_t kRowBlock = 64;

/// Outputs [i0, i0 + 8 W) of every member, blocks of kRowBlock rows in
/// ascending order. Each block continues the chain the block before it
/// stored, so the blocking moves no bit.
template <std::size_t W, std::size_t J>
DS_AVX512 inline void ZmmColumn(const double* at, std::size_t m,
                                std::size_t n, const Matrix& xs,
                                std::size_t k, Matrix& os, std::size_t i0,
                                bool zero) {
  std::size_t c0 = 0;
  do {
    const std::size_t c1 = std::min(n, c0 + kRowBlock);
    TileMembers<W, J>(at, m, c0, c1, xs, os, i0, 0, k, zero && c0 == 0);
    c0 = c1;
  } while (c0 < n);
}

/// The same fold for k >= 3 on AVX-512 register tiles: 32-wide output
/// columns (four zmm) x member groups of four, then one 16-wide and one
/// 8-wide column (member groups of eight), then the AVX2 4-wide and
/// scalar tails. Measured on the 16/11/8 nm step operators against
/// 16x8 and 32x6 tiles and unblocked columns, this one rule was the
/// fastest or within 7% of it at k = 3, 4, 8 and 16 on every node, and
/// 1.5-1.9x the AVX2 tiles.
DS_AVX512 void PanelTilesAvx512(const Matrix& at, const Matrix& xs,
                                std::size_t k, Matrix& os, bool zero) {
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  const double* base = at.row(0).data();
  std::size_t i0 = 0;
  for (; i0 + 32 <= m; i0 += 32)
    ZmmColumn<4, 4>(base + i0, m, n, xs, k, os, i0, zero);
  if (i0 + 16 <= m) {
    ZmmColumn<2, 8>(base + i0, m, n, xs, k, os, i0, zero);
    i0 += 16;
  }
  if (i0 + 8 <= m) {
    ZmmColumn<1, 8>(base + i0, m, n, xs, k, os, i0, zero);
    i0 += 8;
  }
  TailColumns(base, m, n, xs, k, os, i0, zero);
}

#endif

void PanelImplT(const Matrix& at, const Matrix& xs, std::size_t k,
                Matrix& os, bool zero) {
  static const detail::PanelFoldForm& form = detail::PanelFoldForms()[0];
  form(at, xs, k, os, zero);
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

std::span<const PanelFoldForm> PanelFoldForms() {
  struct Forms {
    PanelFoldForm form[3] = {};
    std::size_t count = 0;
  };
  static const Forms forms = [] {
    Forms f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    const bool avx2 =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    if (avx2 && __builtin_cpu_supports("avx512f"))
      f.form[f.count++] = {"avx512 tiles (k >= 3), avx2 stream (k <= 2)",
                           PanelStreamAvx2, PanelTilesAvx512};
    if (avx2)
      f.form[f.count++] = {"avx2 tiles (k >= 3), avx2 stream (k <= 2)",
                           PanelStreamAvx2, PanelTilesAvx2};
#endif
    f.form[f.count++] = {"portable std::fma loop (every k)",
                         PanelFoldPortable, PanelFoldPortable};
    return f;
  }();
  return {forms.form, forms.count};
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
