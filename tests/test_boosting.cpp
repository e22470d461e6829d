#include "core/boosting.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"

namespace ds::core {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

class BoostingTest : public ::testing::Test {
 protected:
  BoostingTest() : sim_(Plat16(), apps::AppByName("x264"), 12, 8) {}
  BoostingSimulator sim_;
};

TEST_F(BoostingTest, RejectsOversizedWorkload) {
  EXPECT_THROW(
      BoostingSimulator(Plat16(), apps::AppByName("x264"), 13, 8),
      std::invalid_argument);
}

TEST_F(BoostingTest, MaxSafeConstantLevelIsThermallySafeAndMaximal) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const Estimate safe = sim_.SteadyAtLevel(level);
  EXPECT_FALSE(safe.thermal_violation);
  if (level + 1 < Plat16().ladder().size()) {
    const Estimate above = sim_.SteadyAtLevel(level + 1);
    EXPECT_TRUE(above.thermal_violation || above.total_power_w > 500.0);
  }
}

TEST_F(BoostingTest, ConstantTraceIsFlat) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const BoostTrace t = sim_.RunConstant(level, 2.0);
  ASSERT_FALSE(t.gips.empty());
  for (const double g : t.gips) EXPECT_DOUBLE_EQ(g, t.avg_gips);
  EXPECT_NEAR(t.energy_j, t.avg_power_w * 2.0, 1e-6);
}

TEST_F(BoostingTest, BoostingStaysNearThresholdAndBeatsConstant) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const BoostTrace constant = sim_.RunConstant(level, 3.0);
  const BoostTrace boost =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  // The paper's observation 3: boosting achieves a (slightly) higher
  // average performance...
  EXPECT_GE(boost.avg_gips, constant.avg_gips);
  // ...while oscillating around the threshold (one control step of
  // overshoot is inherent to the 1 ms loop)...
  EXPECT_LT(boost.max_temp_c, Plat16().tdtm_c() + 2.0);
  // ...at a higher peak power.
  EXPECT_GT(boost.max_power_w, constant.max_power_w);
}

TEST_F(BoostingTest, BoostingRespectsPowerCap) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double cap = sim_.SteadyAtLevel(level).total_power_w + 5.0;
  const BoostTrace boost =
      sim_.RunBoosting(level, Plat16().tdtm_c(), cap, 1.0);
  EXPECT_LE(boost.max_power_w, cap + 1e-6);
}

TEST_F(BoostingTest, QuasiSteadyMatchesTransientAverages) {
  // The analytical boost model (used by the Fig. 12/13 sweeps) must
  // agree with the full transient to a few percent.
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  const BoostTrace tr =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 5.0);
  EXPECT_NEAR(qs.avg_gips, tr.avg_gips, 0.05 * tr.avg_gips);
  EXPECT_NEAR(qs.avg_power_w, tr.avg_power_w, 0.10 * tr.avg_power_w);
}

TEST_F(BoostingTest, QuasiSteadyDutyInUnitInterval) {
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  EXPECT_GE(qs.duty, 0.0);
  EXPECT_LE(qs.duty, 1.0);
  EXPECT_GE(qs.peak_power_w, qs.avg_power_w - 1e-9);
}

TEST_F(BoostingTest, TightPowerCapDisablesBoosting) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double cap = sim_.SteadyAtLevel(level).total_power_w + 1.0;
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), cap);
  EXPECT_FALSE(qs.boosted);
  EXPECT_NEAR(qs.avg_gips, sim_.GipsAtLevel(level), 1e-9);
}

TEST_F(BoostingTest, PerInstanceDomainsBeatChipWideDvfs) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace global =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  const core::BoostTrace per_inst =
      sim_.RunPerInstanceBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  // Finer DVFS granularity can only help under the same constraint --
  // cool edge domains keep boost levels the chip-wide loop gives up.
  EXPECT_GE(per_inst.avg_gips, 0.99 * global.avg_gips);
  EXPECT_LT(per_inst.max_temp_c, Plat16().tdtm_c() + 2.0);
  EXPECT_LE(per_inst.max_power_w, 500.0 + 50.0);
}

TEST_F(BoostingTest, RaplRespectsPowerLimits) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double pl1 = 220.0, pl2 = 290.0;
  const core::BoostTrace r =
      sim_.RunRaplBoosting(level, pl1, pl2, 1.0, Plat16().tdtm_c(), 3.0);
  // Instantaneous power never exceeds PL2 plus one step of slack;
  // the long-run average tracks PL1.
  EXPECT_LE(r.max_power_w, pl2 + 40.0);
  EXPECT_LE(r.avg_power_w, pl1 * 1.10);
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 1.5);
}

TEST_F(BoostingTest, GenerousRaplDegeneratesToThermalTrigger) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace thermal =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 2.0);
  const core::BoostTrace rapl = sim_.RunRaplBoosting(
      level, 500.0, 500.0, 1.0, Plat16().tdtm_c(), 2.0);
  EXPECT_NEAR(rapl.avg_gips, thermal.avg_gips, 0.03 * thermal.avg_gips);
}

TEST_F(BoostingTest, TightRaplLimitCostsPerformance) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace loose = sim_.RunRaplBoosting(
      level, 300.0, 380.0, 1.0, Plat16().tdtm_c(), 2.0);
  const core::BoostTrace tight = sim_.RunRaplBoosting(
      level, 180.0, 220.0, 1.0, Plat16().tdtm_c(), 2.0);
  EXPECT_LT(tight.avg_gips, loose.avg_gips);
  EXPECT_LT(tight.avg_power_w, loose.avg_power_w);
}

TEST_F(BoostingTest, GipsAtLevelScalesWithFrequency) {
  const double g0 = sim_.GipsAtLevel(0);
  const double g1 = sim_.GipsAtLevel(1);
  const double f0 = Plat16().ladder()[0].freq;
  const double f1 = Plat16().ladder()[1].freq;
  EXPECT_NEAR(g1 / g0, f1 / f0, 1e-9);
}

TEST_F(BoostingTest, FewActiveCoresNeverThrottle) {
  // A single instance is thermally trivial: the safe constant level is
  // the ladder top and quasi-steady boosting cannot go higher.
  const BoostingSimulator small(Plat16(), apps::AppByName("x264"), 1, 8);
  std::size_t level = 0;
  ASSERT_TRUE(small.MaxSafeConstantLevel(500.0, &level));
  EXPECT_EQ(level, Plat16().ladder().size() - 1);
  const auto qs = small.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  EXPECT_NEAR(qs.avg_gips, small.GipsAtLevel(level), 1e-9);
}

// ------------------------------------------------------ loop inputs
//
// The closed loop checks its duration, control period and RAPL window
// once, when it is built: a zero duration would run no period and
// average 0 / 0, and a negative one would wrap the period count.

TEST_F(BoostingTest, ZeroDurationThrows) {
  EXPECT_THROW(sim_.RunBoosting(0, Plat16().tdtm_c(), 500.0, 0.0),
               std::invalid_argument);
}

TEST_F(BoostingTest, NegativeOrNanDurationThrows) {
  const double t = Plat16().tdtm_c();
  EXPECT_THROW(sim_.RunPerInstanceBoosting(0, t, 500.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(sim_.RunRaplBoosting(0, 220.0, 300.0, 1.0, t,
                                    std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST_F(BoostingTest, ZeroControlPeriodThrows) {
  EXPECT_THROW(sim_.RunBoosting(0, Plat16().tdtm_c(), 500.0, 0.1, 0.0),
               std::invalid_argument);
}

TEST_F(BoostingTest, ZeroRaplWindowThrows) {
  EXPECT_THROW(
      sim_.RunRaplBoosting(0, 220.0, 300.0, 0.0, Plat16().tdtm_c(), 0.1),
      std::invalid_argument);
}

TEST_F(BoostingTest, SubPeriodDurationRunsOnePeriod) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const BoostTrace t =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 0.4e-3);
  ASSERT_EQ(t.time_s.size(), 1u);
  EXPECT_EQ(t.time_s[0], 1e-3);
  EXPECT_EQ(t.avg_gips, t.gips[0]);
  EXPECT_EQ(t.energy_j, t.power_w[0] * 1e-3);
  EXPECT_EQ(t.max_temp_c, t.peak_temp_c[0]);
  EXPECT_TRUE(std::isfinite(t.avg_power_w));
}

// MaxSafeConstantLevel scans the whole ladder and keeps the last
// feasible level. A bisection would also need the feasible levels to
// form a prefix of the ladder; this checks that they do across the
// suite, and that the scan returns the prefix's last level.
TEST(BoostingProperty, FeasibleLevelsFormALadderPrefix) {
  const std::size_t ladder = Plat16().ladder().size();
  std::size_t configs = 0;
  for (const apps::AppProfile& app : apps::ParsecSuite()) {
    for (const std::size_t instances : {1, 4, 12}) {
      const BoostingSimulator sim(Plat16(), app, instances, 8);
      std::vector<Estimate> steady;
      std::vector<bool> runaway;
      for (std::size_t level = 0; level < ladder; ++level) {
        try {
          steady.push_back(sim.SteadyAtLevel(level));
          runaway.push_back(false);
        } catch (const std::runtime_error&) {
          steady.emplace_back();
          runaway.push_back(true);
        }
      }
      for (const double cap : {250.0, 400.0, 500.0}) {
        SCOPED_TRACE(testing::Message() << app.name << " x" << instances
                                        << " at " << cap << " W");
        std::size_t prefix = 0;  // feasible levels 0 .. prefix-1
        while (prefix < ladder && !runaway[prefix] &&
               !steady[prefix].thermal_violation &&
               steady[prefix].total_power_w <= cap)
          ++prefix;
        for (std::size_t level = prefix; level < ladder; ++level)
          EXPECT_TRUE(runaway[level] || steady[level].thermal_violation ||
                      steady[level].total_power_w > cap)
              << "level " << level << " is feasible above the prefix";
        std::size_t found = 0;
        ASSERT_EQ(sim.MaxSafeConstantLevel(cap, &found), prefix > 0);
        if (prefix > 0) {
          EXPECT_EQ(found, prefix - 1);
        }
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 63u);
}

// ------------------------------------------------------- trace pins
//
// Every double of a closed-loop trace (the samples, then the
// aggregates), hashed with 64-bit FNV-1a as PlacementPin does. The
// Turbo, per-instance and RAPL loops share one control law; these pins
// hold each law's trajectory to the bits it had before they shared it.

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t Fnv1a(double x, std::uint64_t h) {
  unsigned char bytes[sizeof x];
  std::memcpy(bytes, &x, sizeof x);
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t TraceHash(const BoostTrace& t) {
  std::uint64_t h = kFnvBasis;
  for (const std::vector<double>* v :
       {&t.time_s, &t.gips, &t.peak_temp_c, &t.power_w})
    for (const double x : *v) h = Fnv1a(x, h);
  for (const double x : {t.avg_gips, t.avg_power_w, t.max_power_w,
                         t.max_temp_c, t.energy_j, t.duration_s})
    h = Fnv1a(x, h);
  return h;
}

class BoostTracePin : public BoostingTest {
 protected:
  static constexpr double kSeconds = 0.3;
  std::size_t StartLevel() const {
    std::size_t level = 0;
    EXPECT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
    return level;
  }
  static void ExpectPin(const BoostTrace& t, std::uint64_t pin) {
    const std::uint64_t h = TraceHash(t);
    EXPECT_EQ(h, pin) << "0x" << std::hex << h;
  }
};

TEST_F(BoostTracePin, TurboAt500W) {
  ExpectPin(sim_.RunBoosting(StartLevel(), Plat16().tdtm_c(), 500.0, kSeconds),
            0x741537d4cf081419ull);
}

TEST_F(BoostTracePin, TurboWithUpStepBlockedByCap) {
  const std::size_t level = StartLevel();
  const double cap = sim_.SteadyAtLevel(level).total_power_w + 5.0;
  ExpectPin(sim_.RunBoosting(level, Plat16().tdtm_c(), cap, kSeconds),
            0xef71fedecda1d53eull);
}

TEST_F(BoostTracePin, PerInstance) {
  ExpectPin(sim_.RunPerInstanceBoosting(StartLevel(), Plat16().tdtm_c(), 500.0,
                                        kSeconds),
            0x82f8fb03c140a2f7ull);
}

TEST_F(BoostTracePin, RaplPl1Below) {
  // PL1 = 220 W sits below the warm start's power: the peak falls.
  ExpectPin(sim_.RunRaplBoosting(StartLevel(), 220.0, 300.0, 1.0,
                                 Plat16().tdtm_c(), kSeconds),
            0x54d664791a2911b6ull);
}

TEST_F(BoostTracePin, RaplPl1Above) {
  // PL1 = 280 W sits above the thermal capacity: the run degenerates to
  // the thermal trigger and hashes as TurboAt500W does.
  ExpectPin(sim_.RunRaplBoosting(StartLevel(), 280.0, 360.0, 1.0,
                                 Plat16().tdtm_c(), kSeconds),
            0x741537d4cf081419ull);
}

}  // namespace
}  // namespace ds::core
