#include "util/lu.hpp"

#include <gtest/gtest.h>

#include <random>

#include "util/matrix.hpp"

namespace ds::util {
namespace {

TEST(Lu, SolvesKnownSystem) {
  // [2 1; 1 3] x = [3; 5] -> x = [4/5; 7/5]
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const LuFactorization lu(a);
  const std::vector<double> x = lu.Solve(std::vector<double>{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, IdentitySolveReturnsRhs) {
  const LuFactorization lu(Matrix::Identity(5));
  const std::vector<double> b = {1, 2, 3, 4, 5};
  EXPECT_EQ(lu.Solve(b), b);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the first diagonal entry forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 1;
  const LuFactorization lu(a);
  const std::vector<double> x = lu.Solve(std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, ThrowsOnNonSquare) {
  EXPECT_THROW(LuFactorization(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // rank 1
  EXPECT_THROW(LuFactorization lu(a), std::runtime_error);
}

TEST(Lu, DeterminantOfDiagonal) {
  Matrix a(3, 3);
  a(0, 0) = 2;
  a(1, 1) = -3;
  a(2, 2) = 4;
  EXPECT_NEAR(LuFactorization(a).Determinant(), -24.0, 1e-12);
}

/// Property sweep: random diagonally-dominant systems of growing size
/// are solved to within residual tolerance.
class LuRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomTest, ResidualIsSmall) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(42 + n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double off = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      a(r, c) = dist(rng);
      off += std::abs(a(r, c));
    }
    a(r, r) = off + 1.0;  // strict diagonal dominance
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = dist(rng);
  const std::vector<double> b = a.Multiply(x_true);
  const LuFactorization lu(a);
  const std::vector<double> x = lu.Solve(b);
  EXPECT_LT(MaxAbsDiffVec(x, x_true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest,
                         ::testing::Values(1, 2, 5, 16, 64, 200));

}  // namespace
}  // namespace ds::util
