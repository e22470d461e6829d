// GEMM and the multi-RHS LU solve, checked against naive reference
// implementations on sizes chosen to exercise every blocking remainder:
// the panel fold's 8-wide output tiles and 4-member groups (non-square
// and odd shapes) and the 128-wide RHS panels of SolveMany.
#include "util/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/lu.hpp"
#include "util/matrix.hpp"

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

TEST(Kernels, GemmAddAccumulates) {
  Fill fill(11);
  const Matrix a = fill.Make(6, 70);
  const Matrix b = fill.Make(70, 5);
  Matrix c = fill.Make(6, 5);
  const Matrix c0 = c;
  GemmAdd(a, b, &c);
  const Matrix ab = NaiveGemm(a, b);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(c(i, j), c0(i, j) + ab(i, j), 1e-10);
}

TEST(Kernels, GemmRejectsShapeMismatch) {
  const Matrix a(3, 4), b(4, 2);
  Matrix wrong_inner(5, 2), wrong_out(3, 3), ok(3, 2);
  EXPECT_THROW(Gemm(a, wrong_inner, &ok), std::invalid_argument);
  EXPECT_THROW(Gemm(a, b, &wrong_out), std::invalid_argument);
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
