#include "thermal/steady_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "arch/platform.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "util/lu.hpp"
#include "util/matrix.hpp"

namespace ds::thermal {
namespace {

class SteadyStateTest : public ::testing::Test {
 protected:
  SteadyStateTest()
      : model_(Floorplan::MakeGrid(16, 5.1)), solver_(model_) {}
  RcModel model_;
  SteadyStateSolver solver_;
};

TEST_F(SteadyStateTest, ZeroPowerGivesAmbientEverywhere) {
  const std::vector<double> zero(16, 0.0);
  for (const double t : solver_.SolveFull(zero))
    EXPECT_NEAR(t, model_.ambient_c(), 1e-9);
}

TEST_F(SteadyStateTest, UniformPowerIsAboveAmbientAndSymmetric) {
  const std::vector<double> p(16, 2.0);
  const std::vector<double> t = solver_.Solve(p);
  for (const double v : t) EXPECT_GT(v, model_.ambient_c());
  // 4x4 grid with uniform power: corner temperatures are equal and
  // cooler than the centre.
  const Floorplan& fp = model_.floorplan();
  EXPECT_NEAR(t[fp.IndexOf(0, 0)], t[fp.IndexOf(0, 3)], 1e-9);
  EXPECT_NEAR(t[fp.IndexOf(0, 0)], t[fp.IndexOf(3, 3)], 1e-9);
  EXPECT_LT(t[fp.IndexOf(0, 0)], t[fp.IndexOf(1, 1)]);
}

TEST_F(SteadyStateTest, LinearityAndSuperposition) {
  std::vector<double> p1(16, 0.0), p2(16, 0.0);
  p1[2] = 3.0;
  p2[9] = 1.5;
  const std::vector<double> t1 = solver_.Solve(p1);
  const std::vector<double> t2 = solver_.Solve(p2);
  std::vector<double> p12(16, 0.0);
  p12[2] = 3.0;
  p12[9] = 1.5;
  const std::vector<double> t12 = solver_.Solve(p12);
  const double amb = model_.ambient_c();
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_NEAR(t12[i] - amb, (t1[i] - amb) + (t2[i] - amb), 1e-9);
}

TEST_F(SteadyStateTest, MorePowerIsHotterEverywhere) {
  std::vector<double> lo(16, 1.0), hi(16, 1.0);
  hi[5] = 4.0;
  const std::vector<double> t_lo = solver_.Solve(lo);
  const std::vector<double> t_hi = solver_.Solve(hi);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_GT(t_hi[i], t_lo[i]);
}

TEST_F(SteadyStateTest, InfluenceMatrixMatchesDirectSolve) {
  const util::Matrix& a = solver_.InfluenceMatrix();
  std::vector<double> p(16, 0.0);
  p[7] = 2.0;
  p[12] = 1.0;
  const std::vector<double> t = solver_.Solve(p);
  for (std::size_t i = 0; i < 16; ++i) {
    const double predicted =
        model_.ambient_c() + 2.0 * a(i, 7) + 1.0 * a(i, 12);
    EXPECT_NEAR(t[i], predicted, 1e-9);
  }
}

TEST_F(SteadyStateTest, SolveIsBitwiseTheDiePrefixOfSolveFull) {
  std::vector<double> p(16, 0.0);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = 0.25 + 0.37 * static_cast<double>((i * 5) % 7);
  const std::vector<double> die = solver_.Solve(p);
  const std::vector<double> full = solver_.SolveFull(p);
  ASSERT_EQ(die.size(), 16u);
  ASSERT_EQ(full.size(), model_.num_nodes());
  EXPECT_EQ(std::memcmp(die.data(), full.data(), die.size() * sizeof(double)),
            0);
}

TEST_F(SteadyStateTest, InfluenceMatrixIsBitwiseTheUnitInjectionSolve) {
  const std::size_t n = model_.num_cores();
  util::Matrix rhs(model_.num_nodes(), n);
  for (std::size_t j = 0; j < n; ++j) rhs(model_.DieNode(j), j) = 1.0;
  util::LuFactorization(model_.conductance()).SolveMany(&rhs);
  const util::Matrix& a = solver_.InfluenceMatrix();
  ASSERT_EQ(a.rows(), n);
  ASSERT_EQ(a.cols(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::memcmp(a.row(i).data(), rhs.row(model_.DieNode(i)).data(),
                          n * sizeof(double)),
              0)
        << "row " << i;
}

// SolveFull against an independent LU solve of the full system
// G T = P + g_amb T_amb on the paper's 16 nm and 11 nm chips.
TEST(SteadyStatePaperPlatforms, SolveFullMatchesDirectLuSolve) {
  for (const power::TechNode node :
       {power::TechNode::N16, power::TechNode::N11}) {
    const arch::Platform plat = arch::Platform::PaperPlatform(node);
    const RcModel& model = plat.thermal_model();
    std::vector<double> p(model.num_cores(), 0.0);
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = (i % 3 == 0) ? 0.0 : 0.4 + 0.3 * static_cast<double>(i % 11);
    std::vector<double> rhs = model.ExpandPower(p);
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] += model.ambient_conductance()[i] * model.ambient_c();
    const std::vector<double> direct =
        util::LuFactorization(model.conductance()).Solve(rhs);
    const std::vector<double> full = plat.solver().SolveFull(p);
    ASSERT_EQ(full.size(), direct.size());
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_LE(std::abs(full[i] - direct[i]), 1e-12 * std::abs(direct[i]))
          << "node " << i << " of " << full.size();
  }
}

// The influence matrix's exact bytes on the paper's 16 and 11 nm
// platforms (the chips chip_sim runs), hashed with 64-bit FNV-1a on a
// little-endian IEEE-754 host. The constants were taken from the
// dense-loop LU before the profile LU replaced it; the profile LU must
// keep them.
TEST(InfluenceMatrixPin, BytesMatchTheDenseLuBuild) {
  const auto fnv1a = [](const util::Matrix& m) {
    std::uint64_t h = 14695981039346656037ull;
    const auto* p = reinterpret_cast<const unsigned char*>(m.data().data());
    for (std::size_t i = 0; i < m.data().size() * sizeof(double); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    return h;
  };
  const struct {
    power::TechNode node;
    std::uint64_t hash;
  } pins[] = {{power::TechNode::N16, 0xd2ba62bf160cd89aull},
              {power::TechNode::N11, 0x48b17e28abc55014ull}};
  for (const auto& pin : pins) {
    const arch::Platform plat = arch::Platform::PaperPlatform(pin.node);
    const SteadyStateSolver solver(plat.thermal_model());
    EXPECT_EQ(fnv1a(solver.InfluenceMatrix()), pin.hash)
        << plat.num_cores()
        << " cores: the influence matrix's last bits moved. chip_sim's "
           "greedy placement (src/sim/chip_sim.cpp, `peak < best_peak`) "
           "breaks ties between mirror-image cores on exactly these bits, "
           "so a reordered elimination or a fused multiply-add here "
           "changes which core it picks and fails perfbench's chip_sim "
           "reference rows.";
  }
}

// Solve and SolveFull against the textbook accumulation, byte for
// byte: node i is T_amb + sum_j B(i, j) P_j, summed in ascending j with
// a rounded multiply and a rounded add per term. The solver advances
// several nodes per pass; each must still get its own chain's bits. At
// 11 and 8 nm, Solve's 198 and 361 rows leave a tail of 2 and 1 nodes.
TEST(SteadySolveBits, MatchTheAscendingAccumulation) {
  for (const power::TechNode node :
       {power::TechNode::N16, power::TechNode::N11, power::TechNode::N8}) {
    const arch::Platform plat = arch::Platform::PaperPlatform(node);
    const RcModel& model = plat.thermal_model();
    const std::size_t n = model.num_cores();
    const std::size_t nodes = model.num_nodes();
    // B = G^-1 on the die columns, as the solver builds it.
    util::Matrix b(nodes, n);
    for (std::size_t j = 0; j < n; ++j) b(model.DieNode(j), j) = 1.0;
    util::LuFactorization(model.conductance()).SolveMany(&b);
    std::vector<double> p(n);
    for (std::size_t j = 0; j < n; ++j)
      p[j] = 0.1 + 0.37 * static_cast<double>((j * 7) % 13);
    std::vector<double> ref(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      double rise = 0.0;
      for (std::size_t j = 0; j < n; ++j) rise += b(i, j) * p[j];
      ref[i] = model.ambient_c() + rise;
    }
    const SteadyStateSolver solver(model);
    const std::vector<double> die = solver.Solve(p);
    const std::vector<double> full = solver.SolveFull(p);
    ASSERT_EQ(die.size(), n);
    ASSERT_EQ(full.size(), nodes);
    EXPECT_EQ(std::memcmp(die.data(), ref.data(), n * sizeof(double)), 0)
        << n << " cores: Solve";
    EXPECT_EQ(std::memcmp(full.data(), ref.data(), nodes * sizeof(double)), 0)
        << n << " cores: SolveFull";
  }
}

TEST_F(SteadyStateTest, InfluenceMatrixIsSymmetricPositiveDiagDominant) {
  const util::Matrix& a = solver_.InfluenceMatrix();
  EXPECT_TRUE(a.IsSymmetric(1e-9));  // reciprocity of the RC network
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_GT(a(i, j), 0.0);  // heat always warms every core
      if (i != j) {
        EXPECT_GT(a(i, i), a(i, j));  // self-heating dominates
      }
    }
  }
}

TEST_F(SteadyStateTest, PeakTempUniformMatchesSolver) {
  const std::vector<std::size_t> active = {0, 1, 5, 6};
  const double peak = solver_.PeakTempUniform(active, 3.0);
  std::vector<double> p(16, 0.0);
  for (const std::size_t i : active) p[i] = 3.0;
  const std::vector<double> t = solver_.Solve(p);
  EXPECT_NEAR(peak, util::MaxElement(t), 1e-9);
}

TEST_F(SteadyStateTest, FeedbackConvergesAndIsHotterThanOpenLoop) {
  // Temperature-dependent power (positive feedback) must converge to a
  // hotter point than evaluating the same powers at ambient.
  const double base = 2.0;
  std::vector<double> converged;
  const std::vector<double> t = solver_.SolveWithFeedback(
      [&](std::size_t, double temp) {
        return base + 0.005 * (temp - model_.ambient_c());
      },
      &converged);
  const std::vector<double> t_open =
      solver_.Solve(std::vector<double>(16, base));
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_GT(t[i], t_open[i]);
    EXPECT_GT(converged[i], base);
  }
}

TEST_F(SteadyStateTest, FeedbackThrowsOnRunaway) {
  // A pathological 5 W/K slope exceeds the network's ability to remove
  // heat: the fixed point diverges and the solver must say so.
  EXPECT_THROW(solver_.SolveWithFeedback([&](std::size_t, double temp) {
    return 1.0 + 5.0 * (temp - model_.ambient_c());
  }),
               std::runtime_error);
}

TEST_F(SteadyStateTest, TotalHeatBalancesAtConvection) {
  // Sum of injected power equals total heat crossing the convection
  // interface: sum_i g_amb,i * (T_i - T_amb).
  std::vector<double> p(16, 0.0);
  p[0] = 5.0;
  p[10] = 2.5;
  const std::vector<double> t = solver_.SolveFull(p);
  double out = 0.0;
  for (std::size_t i = 0; i < model_.num_nodes(); ++i)
    out += model_.ambient_conductance()[i] * (t[i] - model_.ambient_c());
  EXPECT_NEAR(out, 7.5, 1e-6);
}

}  // namespace
}  // namespace ds::thermal
