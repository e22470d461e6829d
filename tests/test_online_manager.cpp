#include "core/online_manager.hpp"

#include <gtest/gtest.h>

#include "arch/platform.hpp"

namespace ds::core {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

OnlineConfig Config(double rate, std::uint64_t seed = 5) {
  OnlineConfig cfg;
  cfg.arrival_rate = rate;
  cfg.seed = seed;
  return cfg;
}

TEST(OnlineManager, DeterministicForSameSeed) {
  const OnlineManager m(Plat16(), AdmissionPolicy::kThermalSafe,
                        Config(1.0, 9));
  const OnlineResult a = m.Run(50);
  const OnlineResult b = m.Run(50);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
}

TEST(OnlineManager, ConservationOfJobs) {
  const OnlineManager m(Plat16(), AdmissionPolicy::kTdpBudget,
                        Config(1.0));
  const OnlineResult r = m.Run(80);
  // completed + still running + still queued == arrived.
  EXPECT_LE(r.jobs_completed + r.jobs_rejected, r.jobs_arrived);
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_EQ(r.epoch_gips.size(), 80u);
}

TEST(OnlineManager, ThermalSafeNeverViolates) {
  for (const double rate : {0.0, 1.0, 3.0}) {
    const OnlineManager m(Plat16(), AdmissionPolicy::kThermalSafe,
                          Config(rate));
    const OnlineResult r = m.Run(60);
    EXPECT_EQ(r.violation_epochs, 0u) << rate;
    EXPECT_LE(r.max_peak_temp_c, Plat16().tdtm_c() + 1e-6) << rate;
  }
}

TEST(OnlineManager, TdpBudgetIsRespectedViaTemperature) {
  // 185 W is thermally safe on this platform, so the TDP manager must
  // also never violate (it simply serves less).
  const OnlineManager m(Plat16(), AdmissionPolicy::kTdpBudget,
                        Config(3.0));
  const OnlineResult r = m.Run(60);
  EXPECT_EQ(r.violation_epochs, 0u);
}

TEST(OnlineManager, ThermalSafeOutperformsTdpUnderSaturation) {
  // The headline comparison: at saturating load the thermal-safe
  // manager serves more work from the same chip.
  const OnlineManager tdp(Plat16(), AdmissionPolicy::kTdpBudget,
                          Config(3.0));
  const OnlineManager tsp(Plat16(), AdmissionPolicy::kThermalSafe,
                          Config(3.0));
  const OnlineResult r_tdp = tdp.Run(100);
  const OnlineResult r_tsp = tsp.Run(100);
  EXPECT_GT(r_tsp.avg_gips, 1.1 * r_tdp.avg_gips);
  EXPECT_GT(r_tsp.avg_active_cores, r_tdp.avg_active_cores);
  EXPECT_GE(r_tsp.jobs_completed, r_tdp.jobs_completed);
}

TEST(OnlineManager, LightLoadServesEverything) {
  const OnlineManager m(Plat16(), AdmissionPolicy::kThermalSafe,
                        Config(0.2));
  const OnlineResult r = m.Run(100);
  // Almost no queueing at 0.2 jobs/epoch on a 12-instance chip.
  EXPECT_LT(r.avg_wait_epochs, 1.0);
  EXPECT_EQ(r.jobs_rejected, 0u);
}

TEST(OnlineManager, PolicyNames) {
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kTdpBudget),
               "tdp-budget");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicy::kThermalSafe),
               "thermal-safe");
}

}  // namespace
}  // namespace ds::core
