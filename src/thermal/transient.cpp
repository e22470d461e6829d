#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

bool AllFinite(std::span<const double> v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

TransientSimulator::TransientSimulator(
    const RcModel& model, double dt_s, StepKernel /*kernel*/,
    const std::shared_ptr<const PropagatorSet>& shared)
    : model_(&model), dt_(dt_s) {
  DS_REQUIRE(dt_s > 0.0 && std::isfinite(dt_s),
             "TransientSimulator: step dt " << dt_s << " s must be positive");
  panel_.emplace(shared != nullptr
                     ? shared->For(model, dt_s)
                     : std::make_shared<const StepPropagator>(model, dt_s),
                 /*k_max=*/1);
  panel_->AddMember(std::vector<double>(model.num_nodes(), model.ambient_c()));
}

void TransientSimulator::SetState(std::span<const double> state) {
  panel_->SetState(0, state);
  time_ = 0.0;
}

void TransientSimulator::Reset() {
  SetState(std::vector<double>(model_->num_nodes(), model_->ambient_c()));
}

void TransientSimulator::InitializeSteadyState(
    std::span<const double> core_powers, const SteadyStateSolver& solver) {
  DS_REQUIRE(&solver.model() == model_,
             "TransientSimulator: warm-start solver factors another model");
  SetState(solver.SolveFull(core_powers));
}

void TransientSimulator::InitializeSteadyState(
    std::span<const double> core_powers) {
  InitializeSteadyState(core_powers, SteadyStateSolver(*model_));
}

bool TransientSimulator::InitializeSteadyStateRobust(
    std::span<const double> core_powers, const SteadyStateSolver& solver,
    bool inject_failure) {
  DS_TELEM_SPAN("thermal", "warm_start", ds::telemetry::TraceLevel::kSpan);
  DS_REQUIRE(&solver.model() == model_,
             "TransientSimulator: warm-start solver factors another model");
  try {
    if (inject_failure)
      throw util::SolverError(
          "InitializeSteadyStateRobust: injected non-convergence");
    const std::vector<double> solution = solver.SolveFull(core_powers);
    if (!AllFinite(solution))
      throw util::SolverError(
          "InitializeSteadyStateRobust: non-finite steady state");
    SetState(solution);
    return false;
  } catch (const util::SolverError&) {
    // Retry with perturbed pivoting: regularizes a (near-)singular
    // conductance factorization at O(pivot_floor) accuracy cost.
    DS_TELEM_COUNT("thermal.solver_retries", 1);
    ds::telemetry::EmitInstant("thermal", "solver_retry",
                               ds::telemetry::TraceLevel::kDecision);
    const util::LuFactorization lu(model_->conductance(),
                                   /*pivot_floor=*/1e-10);
    std::vector<double> rhs = model_->ExpandPower(core_powers);
    const auto& amb_g = model_->ambient_conductance();
    const double t_amb = model_->ambient_c();
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += amb_g[i] * t_amb;
    const std::vector<double> solution = lu.Solve(rhs);
    if (!AllFinite(solution))
      throw util::SolverError(
          "InitializeSteadyStateRobust: steady-state solve failed even "
          "with perturbed pivoting");
    SetState(solution);
    return true;
  }
}

void TransientSimulator::Step(std::span<const double> core_powers) {
  DS_REQUIRE(core_powers.size() == model_->num_cores(),
             "TransientSimulator::Step: " << core_powers.size()
                 << " powers for " << model_->num_cores() << " cores");
  DS_REQUIRE(AllFinite(core_powers),
             "TransientSimulator::Step: non-finite power input");
  DS_TELEM_COUNT("thermal.transient_steps", 1);
  DS_TELEM_TIMER("thermal.transient_step_us");
  DS_TELEM_COUNT("thermal.kernel.propagator_steps", 1);
  panel_->SetPowers(0, core_powers);
  panel_->Step();
  time_ += dt_;
}

void TransientSimulator::StepN(std::span<const double> core_powers,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) Step(core_powers);
}

std::vector<double> TransientSimulator::DieTemps() const {
  const std::span<const double> s = state();
  return {s.begin(),
          s.begin() + static_cast<std::ptrdiff_t>(model_->num_cores())};
}

double TransientSimulator::PeakDieTemp() const {
  const std::span<const double> s = state();
  double peak = s[0];
  for (std::size_t i = 1; i < model_->num_cores(); ++i)
    peak = std::max(peak, s[i]);
  return peak;
}

}  // namespace ds::thermal
