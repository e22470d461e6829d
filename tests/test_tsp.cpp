#include "core/tsp.hpp"

#include <gtest/gtest.h>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/estimator.hpp"

namespace ds::core {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

TEST(Tsp, DecreasesWithMoreActiveCores) {
  const Tsp tsp(Plat16());
  double prev = 1e9;
  for (const std::size_t m : {10UL, 25UL, 50UL, 75UL, 100UL}) {
    const double budget = tsp.WorstCase(m);
    EXPECT_LT(budget, prev) << m;
    EXPECT_GT(budget, 0.0);
    prev = budget;
  }
}

TEST(Tsp, WorstCaseNeverAboveBestCase) {
  const Tsp tsp(Plat16());
  for (const std::size_t m : {10UL, 40UL, 70UL, 100UL})
    EXPECT_LE(tsp.WorstCase(m), tsp.BestCase(m) + 1e-9) << m;
}

TEST(Tsp, FullChipWorstEqualsBest) {
  // With every core active there is only one mapping.
  const Tsp tsp(Plat16());
  EXPECT_NEAR(tsp.WorstCase(100), tsp.BestCase(100), 1e-9);
}

TEST(Tsp, EmptyMappingThrows) {
  const Tsp tsp(Plat16());
  EXPECT_THROW(tsp.ForMapping({}), std::invalid_argument);
}

TEST(Tsp, BudgetPinsPeakAtThreshold) {
  // Running the mapping at exactly its TSP budget must produce a peak
  // steady temperature of T_DTM (to within the dark-core residual and
  // solver tolerance). This validates the closed form against the
  // direct solver -- the ablation DESIGN.md calls out.
  const Tsp tsp(Plat16());
  const auto mapping = SelectCores(Plat16(), 60, MappingPolicy::kDensest);
  const double budget = tsp.ForMapping(mapping);
  const auto& solver = Plat16().solver();
  // Direct solve: active cores at `budget`, dark cores at the residual.
  const auto mask = ActiveMask(100, mapping);
  const double p_dark =
      Plat16().power_model().DarkCorePower(Plat16().tdtm_c());
  std::vector<double> p(100, p_dark);
  for (const std::size_t i : mapping) p[i] = budget;
  const std::vector<double> temps = solver.Solve(p);
  EXPECT_NEAR(util::MaxElement(temps), Plat16().tdtm_c(), 1e-6);
  (void)mask;
}

TEST(Tsp, AgreesWithBinarySearchAblation) {
  // Ablation: the closed-form TSP equals a bisection on uniform power
  // against the direct solver.
  const Tsp tsp(Plat16());
  const auto mapping =
      SelectCores(Plat16(), 40, MappingPolicy::kCheckerboard);
  const double closed = tsp.ForMapping(mapping);

  const auto& solver = Plat16().solver();
  const double p_dark =
      Plat16().power_model().DarkCorePower(Plat16().tdtm_c());
  auto peak_at = [&](double u) {
    std::vector<double> p(100, p_dark);
    for (const std::size_t i : mapping) p[i] = u;
    return util::MaxElement(solver.Solve(p));
  };
  double lo = 0.0, hi = 50.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (peak_at(mid) <= Plat16().tdtm_c())
      lo = mid;
    else
      hi = mid;
  }
  EXPECT_NEAR(closed, lo, 1e-6);
}

TEST(Tsp, SpreadMappingEarnsHigherBudget) {
  const Tsp tsp(Plat16());
  const auto spread = SelectCores(Plat16(), 50, MappingPolicy::kSpread);
  const auto dense = SelectCores(Plat16(), 50, MappingPolicy::kDensest);
  EXPECT_GT(tsp.ForMapping(spread), tsp.ForMapping(dense));
}

TEST(Tsp, MaxLevelWithinBudgetIsMonotoneInBudget) {
  const Tsp tsp(Plat16());
  const apps::AppProfile& app = apps::AppByName("x264");
  std::size_t small = 0, large = 0;
  ASSERT_TRUE(tsp.MaxLevelWithinBudget(app, 8, 2.0, &small));
  ASSERT_TRUE(tsp.MaxLevelWithinBudget(app, 8, 5.0, &large));
  EXPECT_LE(small, large);
  // Budget below the lowest level's power: infeasible.
  std::size_t lvl = 0;
  EXPECT_FALSE(tsp.MaxLevelWithinBudget(app, 8, 0.01, &lvl));
}

// MaxLevelWithinBudget prices a level with the estimator's budget
// power: leakage at T_DTM.
TEST(Tsp, CorePowerAtLevelUsesTdtmLeakage) {
  const DarkSiliconEstimator estimator(Plat16());
  const apps::AppProfile& app = apps::AppByName("swaptions");
  const power::VfLevel& vf = Plat16().ladder()[5];
  const double expected = Plat16().power_model().TotalPower(
      app.Activity(8), app.ceff22_nf, app.pind22, vf.vdd, vf.freq,
      Plat16().tdtm_c());
  EXPECT_NEAR(estimator.BudgetCorePower(app, 8, 5), expected, 1e-12);
}

TEST(Tsp, MaxActiveCoresInvertsTheBudget) {
  const Tsp tsp(Plat16());
  // For a per-core power equal to TSP(m), the inverse must return at
  // least m cores (monotone non-increasing budget).
  for (const std::size_t m : {20UL, 50UL, 80UL}) {
    const double budget = tsp.WorstCase(m);
    const std::size_t inv = tsp.MaxActiveCores(budget);
    EXPECT_GE(inv, m);
    // ...and a slightly larger power admits (weakly) fewer cores.
    EXPECT_LE(tsp.MaxActiveCores(budget * 1.05), inv);
  }
}

TEST(Tsp, MaxActiveCoresExtremes) {
  const Tsp tsp(Plat16());
  EXPECT_EQ(tsp.MaxActiveCores(1e6), 0u);     // nothing fits
  EXPECT_EQ(tsp.MaxActiveCores(1e-3), 100u);  // everything fits
}

TEST(Tsp, MaxActiveCoresHigherWithSpreadMapping) {
  const Tsp tsp(Plat16());
  const double p = 3.2;  // a mid-range per-core power
  EXPECT_GE(tsp.MaxActiveCores(p, MappingPolicy::kSpread),
            tsp.MaxActiveCores(p, MappingPolicy::kDensest));
}

TEST(Tsp, TotalChipPowerUnderTspBetween185And220) {
  // The paper's two TDP values bracket the all-cores thermal capacity
  // of the 16 nm chip: 185 W is safe, 220 W violates. TSP(100) * 100
  // must land between them.
  const Tsp tsp(Plat16());
  const double total = tsp.WorstCase(100) * 100.0;
  EXPECT_GT(total, 185.0);
  EXPECT_LT(total, 260.0);
}

}  // namespace
}  // namespace ds::core
