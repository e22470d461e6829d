#include "thermal/propagator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"
#include "util/kernels.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

bool AllFinite(std::span<const double> v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

void TransposeSquare(util::Matrix* a) {
  for (std::size_t i = 0; i < a->rows(); ++i)
    for (std::size_t c = i + 1; c < a->cols(); ++c)
      std::swap((*a)(i, c), (*a)(c, i));
}

}  // namespace

StepPropagator::StepPropagator(const RcModel& model, double dt_s)
    : model_(&model), dt_(dt_s) {
  DS_REQUIRE(dt_s > 0.0 && std::isfinite(dt_s),
             "StepPropagator: step dt " << dt_s << " s must be positive");
  DS_TELEM_COUNT("thermal.propagator_builds", 1);
  DS_TELEM_TIMER("thermal.propagator_build_us");
  const std::size_t n = model.num_nodes();
  const std::size_t cores = model.num_cores();
  const std::vector<double>& cap = model.capacitance();

  // Factor A = G + C/dt and fold A^-1 out of one blocked multi-RHS
  // solve on the identity.
  util::Matrix system = model.conductance();
  for (std::size_t i = 0; i < n; ++i) system(i, i) += cap[i] / dt_s;
  const util::LuFactorization lu(std::move(system));
  util::Matrix inverse_t = util::Matrix::Identity(n);
  lu.SolveMany(&inverse_t);
  // Row c of A^-T is column c of A^-1.
  TransposeSquare(&inverse_t);

  // M_in^T: the die-node rows of A^-T.
  step_.input_t = util::Matrix(cores, n);
  for (std::size_t j = 0; j < cores; ++j) {
    const auto src = inverse_t.row(model.DieNode(j));
    std::copy(src.begin(), src.end(), step_.input_t.row(j).begin());
  }
  // c_amb^T = (g_amb T_amb)^T A^-T.
  util::Matrix amb_rhs(1, n);
  const std::vector<double>& amb_g = model.ambient_conductance();
  for (std::size_t i = 0; i < n; ++i)
    amb_rhs(0, i) = amb_g[i] * model.ambient_c();
  step_.ambient = util::Matrix(1, n);
  util::Gemm(amb_rhs, inverse_t, &step_.ambient);
  // M_state^T = diag(C/dt) A^-T: scale row c by cap_c/dt in place.
  for (std::size_t c = 0; c < n; ++c) {
    const double scale = cap[c] / dt_s;
    for (double& x : inverse_t.row(c)) x *= scale;
  }
  step_.state_t = std::move(inverse_t);

  // A positive dt can still overflow C/dt (or a near-singular system
  // can blow up A^-1); stepping on such operators would silently turn
  // every state to NaN, so reject them here.
  if (!AllFinite(step_.state_t.data()) || !AllFinite(step_.input_t.data()) ||
      !AllFinite(step_.ambient.data()))
    throw util::SolverError(
        "StepPropagator: non-finite step operator (C/dt overflow or "
        "ill-conditioned system matrix)");
}

std::shared_ptr<const StepPropagator> PropagatorSet::For(const RcModel& model,
                                                         double dt_s) const {
  const ds::MutexLock lock(mu_);
  if (model_ == nullptr) {
    model_ = &model;
  } else {
    DS_REQUIRE(model_ == &model,
               "PropagatorSet::For: set is tied to a different RcModel");
  }
  const auto it = by_dt_.find(dt_s);
  if (it != by_dt_.end()) {
    DS_TELEM_COUNT("thermal.propagator_hits", 1);
    return it->second;
  }
  auto built = std::make_shared<const StepPropagator>(model, dt_s);
  by_dt_.emplace(dt_s, built);
  return built;
}

std::size_t PropagatorSet::size() const {
  const ds::MutexLock lock(mu_);
  return by_dt_.size();
}

std::size_t StepPropagator::ApproxBytes() const {
  return sizeof(double) * (step_.state_t.data().size() +
                           step_.input_t.data().size() +
                           step_.ambient.data().size());
}

std::size_t PropagatorSet::ApproxBytes() const {
  const ds::MutexLock lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [dt, prop] : by_dt_) {
    (void)dt;
    bytes += prop->ApproxBytes();
  }
  return bytes;
}

}  // namespace ds::thermal
