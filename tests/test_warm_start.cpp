// Warm starts reuse the platform's factored solver: once a platform's
// lazy thermal assets exist (the conductance LU, the influence matrix
// and the folded step propagator), a closed-loop run factors no matrix
// at all. Each loop runs twice; the first run builds the assets and the
// second must leave lu.factorizations where it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "core/dtm.hpp"
#include "core/sprint.hpp"
#include "sim/chip_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ds {
namespace {

class WarmStart : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::SetEnabled(true); }
  void TearDown() override { telemetry::SetEnabled(false); }

  /// lu.factorizations over the second of two runs of `loop`.
  static std::uint64_t FactorizationsOnSecondRun(
      const std::function<void()>& loop) {
    const telemetry::Counter& lu =
        telemetry::Registry().GetCounter("lu.factorizations");
    loop();
    const std::uint64_t before = lu.value();
    loop();
    return lu.value() - before;
  }
};

TEST_F(WarmStart, ClosedLoopsFactorNothingAtRunTime) {
  const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  const apps::AppProfile& x264 = apps::AppByName("x264");
  const std::size_t nominal = plat.ladder().NominalLevel();

  sim::SimConfig cfg;
  cfg.duration_s = 0.2;
  const sim::ChipSimulator chip(plat, cfg);
  EXPECT_EQ(FactorizationsOnSecondRun([&] { (void)chip.Run(); }), 0u)
      << "ChipSimulator::Run";

  const core::BoostingSimulator boost(plat, x264, 12, 8);
  EXPECT_EQ(FactorizationsOnSecondRun([&] {
              (void)boost.RunBoosting(nominal, plat.tdtm_c(), 500.0, 0.05);
            }),
            0u)
      << "BoostingSimulator::RunBoosting";

  const core::SprintAnalysis sprint(plat);
  EXPECT_EQ(FactorizationsOnSecondRun(
                [&] { (void)sprint.Measure(x264, 2, 8, nominal); }),
            0u)
      << "SprintAnalysis::Measure";

  const core::DtmSimulator dtm(plat, x264, 12, 8);
  EXPECT_EQ(FactorizationsOnSecondRun([&] {
              (void)dtm.Run(core::DtmPolicy::kThrottleGlobal, nominal, 0.05);
            }),
            0u)
      << "DtmSimulator::Run";
}

}  // namespace
}  // namespace ds
