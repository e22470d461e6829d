#include "util/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <utility>

#include "arch/platform.hpp"
#include "thermal/rc_model.hpp"
#include "util/matrix.hpp"

namespace ds::util {
namespace {

/// The dense loops LuFactorization ran before it bounded them by the
/// profile: partial pivoting, the perturbed-pivot floor and the
/// exact-zero factor skip, with every loop running out to column (or
/// row) n. The profile factorization must reproduce it bit for bit on
/// the thermal matrices, and value for value (a zero's sign aside) on
/// general ones. This file builds with -ffp-contract=off, as the
/// library does, so the reference rounds each multiply and subtract.
class DenseLu {
 public:
  explicit DenseLu(Matrix a, double pivot_floor = 0.0)
      : n_(a.rows()), lu_(std::move(a)), perm_(n_) {
    for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < n_; ++k) {
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
        if (pivot_floor <= 0.0) throw SolverError("DenseLu: singular");
        lu_(pivot, k) = lu_(pivot, k) < 0.0 ? -pivot_floor : pivot_floor;
      }
      if (pivot != k) {
        auto rk = lu_.row(k);
        auto rp = lu_.row(pivot);
        for (std::size_t c = 0; c < n_; ++c) std::swap(rk[c], rp[c]);
        std::swap(perm_[k], perm_[pivot]);
        perm_sign_ = -perm_sign_;
        ++swaps_;
      }
      const double inv_pivot = 1.0 / lu_(k, k);
      for (std::size_t r = k + 1; r < n_; ++r) {
        const double factor = lu_(r, k) * inv_pivot;
        lu_(r, k) = factor;
        if (factor == 0.0) continue;
        auto row_r = lu_.row(r);
        auto row_k = lu_.row(k);
        for (std::size_t c = k + 1; c < n_; ++c)
          row_r[c] -= factor * row_k[c];
      }
    }
  }

  std::vector<double> Solve(std::span<const double> b) const {
    std::vector<double> x(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
    for (std::size_t r = 1; r < n_; ++r) {
      auto row = lu_.row(r);
      double acc = x[r];
      for (std::size_t c = 0; c < r; ++c) acc -= row[c] * x[c];
      x[r] = acc;
    }
    for (std::size_t ri = n_; ri-- > 0;) {
      auto row = lu_.row(ri);
      double acc = x[ri];
      for (std::size_t c = ri + 1; c < n_; ++c) acc -= row[c] * x[c];
      x[ri] = acc / row[ri];
    }
    return x;
  }

  void SolveMany(Matrix* b) const {
    const std::size_t k = b->cols();
    Matrix permuted(n_, k);
    for (std::size_t r = 0; r < n_; ++r) {
      auto src = b->row(perm_[r]);
      std::copy(src.begin(), src.end(), permuted.row(r).begin());
    }
    *b = std::move(permuted);
    constexpr std::size_t kPanel = 128;
    for (std::size_t j0 = 0; j0 < k; j0 += kPanel) {
      const std::size_t j1 = std::min(k, j0 + kPanel);
      for (std::size_t r = 1; r < n_; ++r) {
        auto lr = lu_.row(r);
        double* xr = b->row(r).data();
        for (std::size_t c = 0; c < r; ++c) {
          const double factor = lr[c];
          if (factor == 0.0) continue;
          const double* xc = b->row(c).data();
          for (std::size_t j = j0; j < j1; ++j) xr[j] -= factor * xc[j];
        }
      }
      for (std::size_t ri = n_; ri-- > 0;) {
        auto lr = lu_.row(ri);
        double* xr = b->row(ri).data();
        for (std::size_t c = ri + 1; c < n_; ++c) {
          const double factor = lr[c];
          if (factor == 0.0) continue;
          const double* xc = b->row(c).data();
          for (std::size_t j = j0; j < j1; ++j) xr[j] -= factor * xc[j];
        }
        const double inv_diag = 1.0 / lr[ri];
        for (std::size_t j = j0; j < j1; ++j) xr[j] *= inv_diag;
      }
    }
  }

  double Determinant() const {
    double det = perm_sign_;
    for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
    return det;
  }

  std::size_t swaps() const { return swaps_; }

 private:
  std::size_t n_;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  std::size_t swaps_ = 0;
};

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  // memcmp's pointers must not be null, even for zero bytes, and an
  // empty span's data() may be.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Unit power injections at every die node: the right-hand sides of
/// the steady-state response block B.
Matrix DieColumns(const thermal::RcModel& model) {
  Matrix b(model.num_nodes(), model.num_cores());
  for (std::size_t j = 0; j < model.num_cores(); ++j)
    b(model.DieNode(j), j) = 1.0;
  return b;
}

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

// B = G^-1 on the unit die columns, on the paper's three platforms
// (4N + 12 = 412, 804 and 1456 nodes): the profile factor and solve
// give the dense loops' bits, zeros' signs included.
TEST(LuDenseReference, DieColumnSolveIsBitwiseDenseOnPaperPlatforms) {
  for (const power::TechNode node :
       {power::TechNode::N16, power::TechNode::N11, power::TechNode::N8}) {
    const arch::Platform plat = arch::Platform::PaperPlatform(node);
    const thermal::RcModel& model = plat.thermal_model();
    Matrix profile = DieColumns(model);
    Matrix dense = profile;
    LuFactorization(model.conductance()).SolveMany(&profile);
    DenseLu(model.conductance()).SolveMany(&dense);
    EXPECT_TRUE(SameBits(profile, dense))
        << model.num_cores() << " cores: B differs from the dense loops";
  }
}

// The step-operator fold: (C/dt + G)^-1 from a solve on the identity.
TEST(LuDenseReference, IdentitySolveOfStepSystemIsBitwiseDense16nm) {
  const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  const thermal::RcModel& model = plat.thermal_model();
  Matrix system = model.conductance();
  for (std::size_t i = 0; i < model.num_nodes(); ++i)
    system(i, i) += model.capacitance()[i] / 1e-3;
  Matrix profile = Matrix::Identity(model.num_nodes());
  Matrix dense = profile;
  LuFactorization(system).SolveMany(&profile);
  DenseLu(system).SolveMany(&dense);
  EXPECT_TRUE(SameBits(profile, dense));
}

TEST(LuDenseReference, SingleSolveIsBitwiseDense) {
  for (const power::TechNode node :
       {power::TechNode::N16, power::TechNode::N11}) {
    const arch::Platform plat = arch::Platform::PaperPlatform(node);
    const thermal::RcModel& model = plat.thermal_model();
    std::vector<double> p(model.num_cores());
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = (i % 3 == 0) ? 0.0 : 0.4 + 0.3 * static_cast<double>(i % 11);
    std::vector<double> rhs = model.ExpandPower(p);
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] += model.ambient_conductance()[i] * model.ambient_c();
    const LuFactorization lu(model.conductance());
    const DenseLu ref(model.conductance());
    EXPECT_TRUE(SameBits(lu.Solve(rhs), ref.Solve(rhs)))
        << model.num_cores() << " cores";
    EXPECT_EQ(lu.Determinant(), ref.Determinant());
  }
}

/// Profile factor against the dense loops on a general matrix:
/// singular under both or neither, then equal solutions for one RHS,
/// a random panel and the identity, and equal determinants. Compared
/// with ==, not bit for bit: a zero's sign may differ (see lu.hpp).
/// Returns the dense reference's row-swap count.
std::size_t ExpectMatchesDense(const Matrix& a, double pivot_floor,
                               std::mt19937_64* rng) {
  const std::size_t n = a.rows();
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::optional<DenseLu> ref;
  try {
    ref.emplace(a, pivot_floor);
  } catch (const SolverError&) {
    EXPECT_THROW((LuFactorization{a, pivot_floor}), SolverError);
    return 0;
  }
  const LuFactorization lu(a, pivot_floor);
  std::vector<double> b(n);
  for (double& v : b) v = dist(*rng);
  EXPECT_EQ(lu.Solve(b), ref->Solve(b));
  Matrix panel(n, 5);
  for (double& v : panel.data()) v = dist(*rng);
  Matrix panel_ref = panel;
  lu.SolveMany(&panel);
  ref->SolveMany(&panel_ref);
  EXPECT_TRUE(std::equal(panel.data().begin(), panel.data().end(),
                         panel_ref.data().begin()));
  Matrix inv = Matrix::Identity(n);
  Matrix inv_ref = inv;
  lu.SolveMany(&inv);
  ref->SolveMany(&inv_ref);
  EXPECT_TRUE(std::equal(inv.data().begin(), inv.data().end(),
                         inv_ref.data().begin()));
  EXPECT_EQ(lu.Determinant(), ref->Determinant());
  return ref->swaps();
}

// The thermal matrices never swap a row, so these general matrices
// are the only coverage of the profile's swap bookkeeping.
TEST(LuDenseReference, GeneralMatricesWithRowSwapsMatchDense) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> reach(0, 4);
  std::bernoulli_distribution keep(0.6);
  std::size_t swaps = 0;
  for (const std::size_t n : {1u, 2u, 3u, 7u, 16u, 41u, 90u}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " trial " << trial);
      // Fully dense, no dominance: pivoting swaps rows throughout.
      Matrix full(n, n);
      for (double& v : full.data()) v = dist(rng);
      swaps += ExpectMatchesDense(full, 0.0, &rng);
      // A ragged profile, sparse inside: each row spans a random reach
      // either side of the diagonal, with holes, so swaps exchange rows
      // of different profiles and fill widens them.
      Matrix ragged(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t lo = r - std::min<std::size_t>(r, reach(rng));
        const std::size_t hi = std::min(n - 1, r + reach(rng));
        for (std::size_t c = lo; c <= hi; ++c)
          if (keep(rng)) ragged(r, c) = dist(rng);
      }
      swaps += ExpectMatchesDense(ragged, 0.0, &rng);
      swaps += ExpectMatchesDense(ragged, 1e-10, &rng);
    }
  }
  EXPECT_GT(swaps, 100u);
}

TEST(LuDenseReference, RequiresPivotingShapeMatchesDense) {
  Matrix a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 1;
  std::mt19937_64 rng(7);
  EXPECT_EQ(ExpectMatchesDense(a, 0.0, &rng), 1u);
}

TEST(LuDenseReference, SingularMatrixUnderPivotFloorMatchesDense) {
  // Rank 2 of 4, a zero row and a zero column: every vanishing pivot
  // is replaced by the floor, inside and outside a row's profile.
  Matrix a(4, 4);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  a(1, 3) = -1;
  a(3, 0) = 3;
  a(3, 3) = 5;
  std::mt19937_64 rng(11);
  EXPECT_THROW(LuFactorization{a}, SolverError);
  ExpectMatchesDense(a, 1e-10, &rng);
  ExpectMatchesDense(Matrix(3, 3), 1e-10, &rng);
}

// The CPU's vector update and the plain loop: same bits on every
// length, including the 1-3 element tails the vector loop leaves, and
// every source-row count around its four-row pass.
TEST(LuDenseReference, VectorUpdateMatchesPortableBitwise) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  const auto draw = [&] { return std::ldexp(dist(rng), exponent(rng)); };
  for (const std::size_t q : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    for (const std::size_t m : {0u, 1u, 3u, 5u, 7u, 9u, 13u, 31u, 129u}) {
      std::vector<double> f(q);
      for (double& v : f) v = draw();
      std::vector<std::vector<double>> rows(q, std::vector<double>(m));
      std::vector<const double*> x(q);
      for (std::size_t t = 0; t < q; ++t) {
        for (double& v : rows[t]) v = draw();
        x[t] = rows[t].data();
      }
      std::vector<double> y(m);
      for (double& v : y) v = draw();
      std::vector<double> y_ref = y;
      detail::SubScaledRows(y.data(), f.data(), x.data(), q, m);
      detail::SubScaledRowsPortable(y_ref.data(), f.data(), x.data(), q, m);
      EXPECT_TRUE(SameBits(y, y_ref)) << "q " << q << " m " << m;
    }
  }
}

}  // namespace
}  // namespace ds::util
