// Steady solves and warm starts run on the platform's solver, which
// keeps the steady-state response block B instead of an LU: once a
// platform's lazy thermal assets exist (B with the influence matrix as
// its die rows, and the folded step propagator), a closed-loop run or a
// sweep over built models neither factors a matrix nor runs an LU
// solve. Each loop runs twice; the first run builds the assets and the
// second must leave lu.factorizations and lu.solves where they were.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "core/dtm.hpp"
#include "core/estimator.hpp"
#include "core/sprint.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "sim/chip_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ds {
namespace {

class WarmStart : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::SetEnabled(true); }
  void TearDown() override { telemetry::SetEnabled(false); }

  /// Runs `loop` twice and expects no LU factorization and no LU solve
  /// during the second run.
  static void ExpectNoLuOnSecondRun(const std::function<void()>& loop,
                                    const char* what) {
    const telemetry::Counter& factors =
        telemetry::Registry().GetCounter("lu.factorizations");
    const telemetry::Counter& solves =
        telemetry::Registry().GetCounter("lu.solves");
    loop();
    const std::uint64_t factors_before = factors.value();
    const std::uint64_t solves_before = solves.value();
    loop();
    EXPECT_EQ(factors.value() - factors_before, 0u) << what;
    EXPECT_EQ(solves.value() - solves_before, 0u) << what;
  }

  /// Runs `json` twice through the sweep engine on one private model
  /// cache: the first run builds the models, the second must do no LU.
  static void ExpectSweepDoesNoLuOnBuiltModels(const char* json,
                                               const char* what) {
    runtime::ModelCache cache;
    runtime::SweepOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    const runtime::SweepSpec spec = runtime::SweepSpec::FromJsonText(json);
    ExpectNoLuOnSecondRun(
        [&] {
          for (const runtime::JobResult& r :
               runtime::SweepEngine(spec, opts).Run().results)
            EXPECT_TRUE(r.ok) << what << ": " << r.error;
        },
        what);
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
  ExpectNoLuOnSecondRun([&] { (void)chip.Run(); }, "ChipSimulator::Run");

  const core::BoostingSimulator boost(plat, x264, 12, 8);
  ExpectNoLuOnSecondRun(
      [&] { (void)boost.RunBoosting(nominal, plat.tdtm_c(), 500.0, 0.05); },
      "BoostingSimulator::RunBoosting");

  const core::SprintAnalysis sprint(plat);
  ExpectNoLuOnSecondRun([&] { (void)sprint.Measure(x264, 2, 8, nominal); },
                        "SprintAnalysis::Measure");

  const core::DtmSimulator dtm(plat, x264, 12, 8);
  ExpectNoLuOnSecondRun(
      [&] { (void)dtm.Run(core::DtmPolicy::kThrottleGlobal, nominal, 0.05); },
      "DtmSimulator::Run");

  const core::DarkSiliconEstimator estimator(plat);
  ExpectNoLuOnSecondRun(
      [&] { (void)estimator.UnderTemperature(x264, 8, nominal); },
      "DarkSiliconEstimator::UnderTemperature");
}

TEST_F(WarmStart, SweepsOnBuiltModelsDoNoLu) {
  ExpectSweepDoesNoLuOnBuiltModels(R"({
    "name": "estimate", "kind": "estimate",
    "base": {"node": "16nm", "threads": 8, "freq_ghz": 3.6},
    "axes": {"app": ["x264", "ferret"], "constraint": ["tdp", "thermal"],
             "tdp_w": [120]}
  })",
                                   "estimate sweep");
  ExpectSweepDoesNoLuOnBuiltModels(R"({
    "name": "bt", "kind": "boost_transient",
    "base": {"node": "16nm", "duration_s": 0.05, "control_ms": 1.0,
             "threads": 4, "power_cap_w": 300},
    "axes": {"app": ["x264", "ferret"], "instances": [1, 2]}
  })",
                                   "boost_transient sweep");
}

}  // namespace
}  // namespace ds
