// GEMM and the multi-RHS LU solve, checked against naive reference
// implementations on sizes chosen to exercise every blocking remainder:
// the panel fold's 8-wide output tiles and 4-member groups (non-square
// and odd shapes) and the 128-wide RHS panels of SolveMany. The AVX2/FMA
// tiles are also checked bit for bit against the portable fold.
#include "util/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/lu.hpp"
#include "util/matrix.hpp"
#include "util/panel.hpp"

namespace ds::util {
namespace {

/// Deterministic pseudo-random fill (xorshift; no <random> seeding
/// subtleties across platforms).
class Fill {
 public:
  explicit Fill(std::uint64_t seed) : s_(seed) {}
  double Next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    // Map to [-1, 1); plenty of sign changes and magnitudes.
    return static_cast<double>(static_cast<std::int64_t>(s_ >> 11)) /
           static_cast<double>(std::int64_t{1} << 52);
  }
  Matrix Make(std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j) m(i, j) = Next();
    return m;
  }
  std::vector<double> MakeVec(std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = Next();
    return v;
  }

 private:
  std::uint64_t s_;
};

Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j)
        c(i, j) += a(i, k) * b(k, j);
  return c;
}

TEST(Kernels, GemmMatchesNaive) {
  Fill fill(7);
  // Shapes hit every form of the panel fold: the k <= 2 streaming
  // sweep (m = 1), 4-member groups with 2/1 remainders, 8-wide output
  // tiles with 4-wide and scalar tails, and non-square operands.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 5, 2}, {16, 16, 16},
                {63, 64, 65}, {10, 130, 7}};
  for (const auto& s : shapes) {
    const Matrix a = fill.Make(s.m, s.k);
    const Matrix b = fill.Make(s.k, s.n);
    Matrix c(s.m, s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j) c(i, j) = 99.0;  // overwritten
    Gemm(a, b, &c);
    const Matrix ref = NaiveGemm(a, b);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j)
        EXPECT_NEAR(c(i, j), ref(i, j), 1e-11 * static_cast<double>(s.k));
  }
}

TEST(Kernels, GemmRejectsShapeMismatch) {
  const Matrix a(3, 4), b(4, 2);
  Matrix wrong_inner(5, 2), wrong_out(3, 3), ok(3, 2);
  EXPECT_THROW(Gemm(a, wrong_inner, &ok), std::invalid_argument);
  EXPECT_THROW(Gemm(a, b, &wrong_out), std::invalid_argument);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// The fold with a rounded product and a rounded sum per step; the
/// volatile product keeps the compiler from fusing the two.
Matrix UnfusedFold(const Matrix& at, const Matrix& xs, std::size_t k) {
  Matrix os(k, at.cols());
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < at.cols(); ++i) {
      double s = 0.0;
      for (std::size_t c = 0; c < at.rows(); ++c) {
        const volatile double p = xs(j, c) * at(c, i);
        s = s + p;
      }
      os(j, i) = s;
    }
  return os;
}

// The kernels run the AVX2/FMA tiles when the CPU has them, and
// detail::PanelFoldPortable otherwise; both must give the same bits.
// Operator rows n, outputs m and members k reach every tile path: the
// k <= 2 streaming sweep with and without its four-c unroll, 4-member
// groups with 2/1 remainders, 8-wide tiles with 4-wide and scalar
// tails.
TEST(Kernels, FmaTilesMatchPortableFoldBitwise) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool tiles =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  const bool tiles = false;
#endif
  if (!tiles) GTEST_SKIP() << "CPU lacks AVX2/FMA: the portable fold runs";
  Fill fill(13);
  bool unfused_differs = false;
  for (const std::size_t n : {1, 5, 37})
    for (const std::size_t m : {1, 3, 4, 7, 8, 12, 13, 41})
      for (const std::size_t k : {1, 2, 3, 4, 5, 7, 8, 16}) {
        SCOPED_TRACE(testing::Message()
                     << "n " << n << " m " << m << " k " << k);
        const Matrix at = fill.Make(n, m);
        ColPanel x(n, k);
        x.storage() = fill.Make(k, n);
        Matrix ref(k, m);
        detail::PanelFoldPortable(at, x.storage(), k, ref, /*zero=*/true);

        ColPanel out(m, k);
        PanelApplyT(at, x, k, &out);
        EXPECT_TRUE(SameBits(out.storage(), ref)) << "PanelApplyT";

        ColPanel acc(m, k);
        acc.storage() = fill.Make(k, m);
        Matrix acc_ref = acc.storage();
        detail::PanelFoldPortable(at, x.storage(), k, acc_ref,
                                  /*zero=*/false);
        PanelApplyAddT(at, x, k, &acc);
        EXPECT_TRUE(SameBits(acc.storage(), acc_ref)) << "PanelApplyAddT";

        // Gemm(a, b) is the fold with x = a and at = b.
        const Matrix a = fill.Make(k, n);
        const Matrix b = fill.Make(n, m);
        Matrix gemm_ref(k, m);
        detail::PanelFoldPortable(b, a, k, gemm_ref, /*zero=*/true);
        Matrix c(k, m);
        Gemm(a, b, &c);
        EXPECT_TRUE(SameBits(c, gemm_ref)) << "Gemm";

        if (!SameBits(UnfusedFold(at, x.storage(), k), ref))
          unfused_differs = true;
      }
  // Otherwise the inputs could not tell a fused fold from an unfused one.
  EXPECT_TRUE(unfused_differs);
}

/// A well-conditioned diagonally dominant test matrix (same structure
/// class as the thermal conductance systems).
Matrix DominantMatrix(std::size_t n, Fill* fill) {
  Matrix a = fill->Make(n, n);
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += static_cast<double>(n) + 1.0;
  return a;
}

TEST(Kernels, SolveManyMatchesColumnwiseSolve) {
  Fill fill(1234);
  // RHS widths straddle the 128-wide SolveMany column panel.
  for (const std::size_t n : {1u, 4u, 37u}) {
    for (const std::size_t k : {1u, 3u, 127u, 128u, 129u}) {
      const Matrix a = DominantMatrix(n, &fill);
      const LuFactorization lu(a);
      Matrix b = fill.Make(n, k);
      const Matrix b0 = b;
      lu.SolveMany(&b);
      for (std::size_t j = 0; j < k; ++j) {
        std::vector<double> col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = b0(i, j);
        const std::vector<double> x = lu.Solve(col);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_NEAR(b(i, j), x[i], 1e-10)
              << "n=" << n << " k=" << k << " col " << j;
      }
    }
  }
}

TEST(Kernels, SolveManyOnIdentityGivesInverse) {
  Fill fill(99);
  const std::size_t n = 24;
  const Matrix a = DominantMatrix(n, &fill);
  const LuFactorization lu(a);
  Matrix inv = Matrix::Identity(n);
  lu.SolveMany(&inv);
  const Matrix prod = NaiveGemm(a, inv);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Kernels, SolveManyRejectsWrongRowCount) {
  Fill fill(5);
  const Matrix a = DominantMatrix(6, &fill);
  const LuFactorization lu(a);
  Matrix wrong(5, 2);
  EXPECT_THROW(lu.SolveMany(&wrong), std::invalid_argument);
}

}  // namespace
}  // namespace ds::util
