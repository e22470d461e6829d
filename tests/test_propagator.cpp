// Step propagator: the folded dense operators (stepped on the panel
// kernel) must match a reference LU stepper to rounding error (1e-9 C)
// across floorplan sizes and power patterns -- both solve the same
// implicit-Euler update, so any divergence is a correctness bug in the
// fold.
#include "thermal/propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/platform.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Reference implicit-Euler stepper: factors C/dt + G once and solves
/// (C/dt + G) T' = (C/dt) T + P + g_amb T_amb per step, the textbook
/// update the folded propagator must reproduce.
class LuStepper {
 public:
  LuStepper(const RcModel& model, double dt)
      : model_(&model),
        dt_(dt),
        lu_(SystemMatrix(model, dt)),
        state_(model.num_nodes(), model.ambient_c()) {}

  void Step(std::span<const double> core_powers) {
    const std::vector<double>& cap = model_->capacitance();
    const std::vector<double>& amb_g = model_->ambient_conductance();
    std::vector<double> rhs(state_.size());
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] = cap[i] / dt_ * state_[i] + amb_g[i] * model_->ambient_c();
    for (std::size_t c = 0; c < core_powers.size(); ++c)
      rhs[model_->DieNode(c)] += core_powers[c];
    state_ = lu_.Solve(rhs);
    time_ += dt_;
  }

  std::span<const double> state() const { return state_; }
  double time() const { return time_; }

 private:
  static util::Matrix SystemMatrix(const RcModel& model, double dt) {
    util::Matrix a = model.conductance();
    for (std::size_t i = 0; i < model.num_nodes(); ++i)
      a(i, i) += model.capacitance()[i] / dt;
    return a;
  }

  const RcModel* model_;
  double dt_;
  util::LuFactorization lu_;
  std::vector<double> state_;
  double time_ = 0.0;
};

/// Deterministic per-core power pattern with spatial variation.
std::vector<double> PowerPattern(std::size_t n, std::size_t phase) {
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = 1.0 + 2.0 * ((i * 7 + phase * 3) % 5) / 4.0;  // 1..3 W
  return p;
}

TEST(StepPropagator, MatchesLuPathAcrossFloorplanSizes) {
  for (const std::size_t cores : {4u, 16u, 49u, 100u}) {
    const RcModel model(Floorplan::MakeGrid(cores, 5.1));
    TransientSimulator fast(model, 1e-3);
    LuStepper legacy(model, 1e-3);
    // Time-varying powers so the input operator is exercised too.
    for (std::size_t s = 0; s < 50; ++s) {
      const std::vector<double> p = PowerPattern(cores, s / 10);
      fast.Step(p);
      legacy.Step(p);
    }
    EXPECT_LT(MaxAbsDiff(fast.state(), legacy.state()), 1e-9)
        << cores << " cores";
    EXPECT_DOUBLE_EQ(fast.time(), legacy.time());
  }
}

TEST(StepPropagator, RejectsNonPositiveDt) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  EXPECT_THROW(StepPropagator(model, 0.0), std::invalid_argument);
  EXPECT_THROW(StepPropagator(model, -1.0), std::invalid_argument);
}

TEST(StepPropagator, OverflowingStepScaleThrowsSolverError) {
  // A positive, finite dt whose C/dt overflows must fail the build with
  // a SolverError instead of stepping the state to NaN.
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  const double dt = 1e-320;
  EXPECT_THROW(StepPropagator(model, dt), util::SolverError);
  EXPECT_THROW(TransientSimulator(model, dt), util::SolverError);
  const PropagatorSet set;
  EXPECT_THROW((void)set.For(model, dt), util::SolverError);
  EXPECT_EQ(set.size(), 0u);
}

TEST(PropagatorSet, SharesOneInstancePerDt) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  const PropagatorSet set;
  const auto a = set.For(model, 1e-3);
  const auto b = set.For(model, 1e-3);
  const auto c = set.For(model, 2e-3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(set.size(), 2u);
}

TEST(PropagatorSet, RejectsASecondModel) {
  const RcModel m1(Floorplan::MakeGrid(4, 5.1));
  const RcModel m2(Floorplan::MakeGrid(9, 5.1));
  const PropagatorSet set;
  (void)set.For(m1, 1e-3);
  EXPECT_THROW((void)set.For(m2, 1e-3), std::invalid_argument);
}

TEST(PropagatorSet, PlatformMakeTransientSharesPropagators) {
  const arch::Platform platform(power::TechNode::N16, 16);
  EXPECT_EQ(platform.propagators()->size(), 0u);
  // The fold happens at construction, into the platform's shared set...
  TransientSimulator a = platform.MakeTransient(1e-3);
  EXPECT_EQ(platform.propagators()->size(), 1u);
  // ...and every later simulator at that dt reuses it.
  TransientSimulator b = platform.MakeTransient(1e-3);
  EXPECT_EQ(platform.propagators()->size(), 1u);
  TransientSimulator c = platform.MakeTransient(5e-3);
  EXPECT_EQ(platform.propagators()->size(), 2u);
  const std::vector<double> p(16, 2.0);
  a.StepN(p, 64);
  b.StepN(p, 64);
  c.StepN(p, 64);
  // a and b advanced identically off the shared operators.
  EXPECT_EQ(MaxAbsDiff(a.state(), b.state()), 0.0);
}

TEST(StepPropagator, OperatorShapesAndFiniteness) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const StepPropagator prop(model, 1e-3);
  const std::size_t n = model.num_nodes();
  EXPECT_EQ(prop.num_nodes(), n);
  EXPECT_EQ(prop.num_cores(), model.num_cores());
  // One copy of each operator, in the transposed layout the panel
  // kernel reads: M_state^T, M_in^T and c_amb^T as a row.
  const StepPropagator::Operator& step = prop.step();
  EXPECT_EQ(step.state_t.rows(), n);
  EXPECT_EQ(step.state_t.cols(), n);
  EXPECT_EQ(step.input_t.rows(), model.num_cores());
  EXPECT_EQ(step.input_t.cols(), n);
  EXPECT_EQ(step.ambient.rows(), 1u);
  EXPECT_EQ(step.ambient.cols(), n);
  for (const util::Matrix* m : {&step.state_t, &step.input_t, &step.ambient})
    for (const double x : m->data()) ASSERT_TRUE(std::isfinite(x));
  // The zero-power, ambient-start fixed point: ambient state must map
  // exactly back to ambient (M_state*T_amb + c_amb == T_amb) -- checked
  // through the simulator at tight tolerance.
  TransientSimulator sim(model, 1e-3);
  const std::vector<double> zero(model.num_cores(), 0.0);
  sim.Step(zero);
  for (const double t : sim.state()) EXPECT_NEAR(t, model.ambient_c(), 1e-9);
}

}  // namespace
}  // namespace ds::thermal
