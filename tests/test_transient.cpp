#include "thermal/transient.hpp"

#include <gtest/gtest.h>

#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/matrix.hpp"

namespace ds::thermal {
namespace {

class TransientTest : public ::testing::Test {
 protected:
  TransientTest() : model_(Floorplan::MakeGrid(16, 5.1)) {}
  RcModel model_;
};

TEST_F(TransientTest, StartsAtAmbient) {
  const TransientSimulator sim(model_);
  for (const double t : sim.DieTemps())
    EXPECT_DOUBLE_EQ(t, model_.ambient_c());
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}

TEST_F(TransientTest, RejectsNonPositiveStep) {
  EXPECT_THROW(TransientSimulator(model_, 0.0), std::invalid_argument);
  EXPECT_THROW(TransientSimulator(model_, -1e-3), std::invalid_argument);
}

TEST_F(TransientTest, StepResponseIsMonotoneHeating) {
  TransientSimulator sim(model_, 1e-2);
  const std::vector<double> p(16, 3.0);
  double prev_peak = sim.PeakDieTemp();
  for (int i = 0; i < 50; ++i) {
    sim.Step(p);
    const double peak = sim.PeakDieTemp();
    EXPECT_GE(peak, prev_peak - 1e-12);
    prev_peak = peak;
  }
  EXPECT_GT(prev_peak, model_.ambient_c() + 1.0);
}

TEST_F(TransientTest, ConvergesToSteadyState) {
  TransientSimulator sim(model_, 0.1);
  std::vector<double> p(16, 0.0);
  p[5] = 4.0;
  p[6] = 2.0;
  // 600 steps of 0.1 s = 60 s >> the 14 s package time constant.
  sim.StepN(p, 600);
  const SteadyStateSolver solver(model_);
  const std::vector<double> steady = solver.Solve(p);
  const std::vector<double> transient = sim.DieTemps();
  EXPECT_LT(util::MaxAbsDiffVec(transient, steady), 0.05);
}

// The steady state of constant powers is a fixed point of the
// implicit-Euler step: stepping from it under the same powers moves
// every node by rounding only. boost_transient rows rest on this: they
// start the closed loop straight from the steady warm start, with no
// settle steps in between.
TEST_F(TransientTest, InitializeSteadyStateIsAFixedPoint) {
  TransientSimulator sim(model_, 1e-3);
  std::vector<double> p(16, 2.5);
  sim.InitializeSteadyState(p);
  const std::vector<double> before(sim.state().begin(), sim.state().end());
  sim.StepN(p, 10);
  EXPECT_LT(util::MaxAbsDiffVec(sim.state(), before), 1e-9);
}

TEST_F(TransientTest, CoolsBackTowardAmbientWhenPowerRemoved) {
  TransientSimulator sim(model_, 0.1);
  const std::vector<double> p(16, 4.0);
  sim.InitializeSteadyState(p);
  const double hot = sim.PeakDieTemp();
  const std::vector<double> zero(16, 0.0);
  sim.StepN(zero, 600);  // 60 s, ~4 package time constants
  EXPECT_LT(sim.PeakDieTemp(), hot);
  // The slow convection capacitance leaves a sub-Kelvin tail.
  EXPECT_NEAR(sim.PeakDieTemp(), model_.ambient_c(), 1.0);
  EXPECT_LT(sim.PeakDieTemp() - model_.ambient_c(),
            0.1 * (hot - model_.ambient_c()));
}

TEST_F(TransientTest, ResetRestoresAmbient) {
  TransientSimulator sim(model_, 1e-2);
  sim.StepN(std::vector<double>(16, 5.0), 20);
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
  for (const double t : sim.DieTemps())
    EXPECT_DOUBLE_EQ(t, model_.ambient_c());
}

TEST_F(TransientTest, TimeAdvancesByDt) {
  TransientSimulator sim(model_, 2e-3);
  sim.StepN(std::vector<double>(16, 1.0), 5);
  EXPECT_NEAR(sim.time(), 1e-2, 1e-12);
}

TEST_F(TransientTest, HalvingTheStepChangesLittle) {
  // Backward Euler is first-order: halving dt must give nearly the
  // same trajectory at matched times (convergence in dt).
  std::vector<double> p(16, 0.0);
  p[0] = 6.0;
  TransientSimulator coarse(model_, 0.02);
  TransientSimulator fine(model_, 0.01);
  coarse.StepN(p, 100);  // 2 s
  fine.StepN(p, 200);    // 2 s
  EXPECT_LT(util::MaxAbsDiffVec(coarse.DieTemps(), fine.DieTemps()), 0.05);
}

TEST_F(TransientTest, FasterThanPackageTimeConstantDieHeatsFirst) {
  // After a few milliseconds the die is measurably warm while the sink
  // barely moved -- the separation of time scales the boosting loop
  // exploits.
  TransientSimulator sim(model_, 1e-3);
  const std::vector<double> p(16, 5.0);
  sim.StepN(p, 20);  // 20 ms
  const double die = sim.state()[model_.DieNode(5)];
  const double sink = sim.state()[model_.SinkNode(5)];
  EXPECT_GT(die - model_.ambient_c(), 10.0 * (sink - model_.ambient_c()));
}

}  // namespace
}  // namespace ds::thermal
