#include "thermal/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {

SteadyStateSolver::SteadyStateSolver(const RcModel& model) : model_(&model) {
  const util::LuFactorization lu(model.conductance());
  DS_TELEM_SPAN("thermal", "influence_matrix_build",
                ds::telemetry::TraceLevel::kSpan);
  DS_TELEM_TIMER("thermal.influence_build_us");
  const std::size_t n = model.num_cores();
  const std::size_t nodes = model.num_nodes();
  // One blocked multi-RHS solve over all unit-injection columns at once,
  // instead of num_cores permuted one-column solves.
  util::Matrix b(nodes, n);
  for (std::size_t j = 0; j < n; ++j) b(model.DieNode(j), j) = 1.0;
  lu.SolveMany(&b);
  influence_ = util::Matrix(n, n);
  package_ = util::Matrix(nodes - n, n);
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::span<const double> src = b.row(node);
    const std::span<double> dst =
        node < n ? influence_.row(node) : package_.row(node - n);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

std::vector<double> SteadyStateSolver::SolveRows(
    std::span<const double> core_powers, std::size_t rows) const {
  const std::size_t n = model_->num_cores();
  DS_REQUIRE(core_powers.size() == n,
             "SteadyStateSolver: " << core_powers.size() << " powers for "
                                   << n << " cores");
  for (std::size_t i = 0; i < n; ++i)
    DS_REQUIRE(std::isfinite(core_powers[i]) && core_powers[i] >= 0.0,
               "SteadyStateSolver: power " << core_powers[i] << " W at core "
                                           << i
                                           << " (heat sources are >= 0)");
  DS_TELEM_COUNT("thermal.steady_solves", 1);
  DS_TELEM_TIMER("thermal.steady_solve_us");
  const double t_amb = model_->ambient_c();
  const double* p = core_powers.data();
  const auto row = [&](std::size_t i) {
    return (i < n ? influence_.row(i) : package_.row(i - n)).data();
  };
  // One accumulation per node in ascending core order, so Solve is
  // bitwise SolveFull's die prefix whatever the caller's thread. Four
  // nodes share a pass: four independent chains instead of one
  // latency-bound chain, each with the bits it would have alone.
  std::vector<double> temps(rows);
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* b0 = row(i);
    const double* b1 = row(i + 1);
    const double* b2 = row(i + 2);
    const double* b3 = row(i + 3);
    double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      r0 += b0[j] * p[j];
      r1 += b1[j] * p[j];
      r2 += b2[j] * p[j];
      r3 += b3[j] * p[j];
    }
    temps[i] = t_amb + r0;
    temps[i + 1] = t_amb + r1;
    temps[i + 2] = t_amb + r2;
    temps[i + 3] = t_amb + r3;
  }
  for (; i < rows; ++i) {
    const double* b = row(i);
    double rise = 0.0;
    for (std::size_t j = 0; j < n; ++j) rise += b[j] * p[j];
    temps[i] = t_amb + rise;
  }
  // Physical sanity of the solution: with non-negative sources, an
  // M-matrix network can only sit at or above the ambient.
  for (std::size_t node = 0; node < rows; ++node)
    DS_ENSURE(std::isfinite(temps[node]) && temps[node] >= t_amb - 1e-6,
              "SteadyStateSolver: node " << node << " solved to "
                                         << temps[node] << " C below ambient "
                                         << t_amb);
  return temps;
}

std::vector<double> SteadyStateSolver::SolveFull(
    std::span<const double> core_powers) const {
  return SolveRows(core_powers, model_->num_nodes());
}

std::vector<double> SteadyStateSolver::Solve(
    std::span<const double> core_powers) const {
  return SolveRows(core_powers, model_->num_cores());
}

std::vector<double> SteadyStateSolver::SolveWithFeedback(
    const std::function<double(std::size_t, double)>& power_at_temp,
    std::vector<double>* out_powers, int max_iters, double tol_c) const {
  const std::size_t n = model_->num_cores();
  std::vector<double> temps(n, model_->ambient_c());
  std::vector<double> powers(n, 0.0);
  for (int iter = 0; iter < max_iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) powers[i] = power_at_temp(i, temps[i]);
    // Cold fixed-point iteration (a handful of rounds at setup, not the
    // per-millisecond stepping path); Solve returns by value anyway.
    // ds_lint: allow(alloc-in-loop)
    std::vector<double> next = Solve(powers);
    const double delta = util::MaxAbsDiffVec(next, temps);
    temps = std::move(next);
    if (delta < tol_c) {
      if (out_powers) *out_powers = std::move(powers);
      return temps;
    }
  }
  throw util::SolverError(
      "SteadyStateSolver::SolveWithFeedback: no convergence "
      "(thermal runaway?)");
}

double SteadyStateSolver::PeakTempUniform(
    std::span<const std::size_t> active, double p_each) const {
  DS_REQUIRE(p_each >= 0.0 && std::isfinite(p_each),
             "SteadyStateSolver::PeakTempUniform: power " << p_each);
  for (const std::size_t j : active)
    DS_REQUIRE(j < model_->num_cores(),
               "SteadyStateSolver::PeakTempUniform: core " << j << " of "
                   << model_->num_cores());
  const util::Matrix& a = InfluenceMatrix();
  double worst = 0.0;
  // Peak is attained on an active core (A is diagonally dominant in the
  // die block), but scan all rows for robustness.
  for (std::size_t i = 0; i < model_->num_cores(); ++i) {
    double row_sum = 0.0;
    for (const std::size_t j : active) row_sum += a(i, j);
    worst = std::max(worst, row_sum);
  }
  return model_->ambient_c() + p_each * worst;
}

}  // namespace ds::thermal
