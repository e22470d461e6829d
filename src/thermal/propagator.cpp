#include "thermal/propagator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
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

/// b o a (apply `a` first, then `b`), in the transposed layout:
/// (A_a^T A_b^T, B_a^T A_b^T + B_b^T, c_a^T A_b^T + c_b^T).
StepPropagator::HoldOperator Compose(const StepPropagator::HoldOperator& b,
                                     const StepPropagator::HoldOperator& a) {
  StepPropagator::HoldOperator out;
  out.k = a.k + b.k;
  out.state_t = util::Matrix(b.state_t.rows(), b.state_t.cols());
  util::Gemm(a.state_t, b.state_t, &out.state_t);
  out.input_t = b.input_t;
  util::GemmAdd(a.input_t, b.state_t, &out.input_t);
  out.ambient = b.ambient;
  util::GemmAdd(a.ambient, b.state_t, &out.ambient);
  return out;
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

  auto op = std::make_shared<HoldOperator>();
  op->k = 1;
  // M_in^T: the die-node rows of A^-T.
  op->input_t = util::Matrix(cores, n);
  for (std::size_t j = 0; j < cores; ++j) {
    const auto src = inverse_t.row(model.DieNode(j));
    std::copy(src.begin(), src.end(), op->input_t.row(j).begin());
  }
  // c_amb^T = (g_amb T_amb)^T A^-T.
  util::Matrix amb_rhs(1, n);
  const std::vector<double>& amb_g = model.ambient_conductance();
  for (std::size_t i = 0; i < n; ++i)
    amb_rhs(0, i) = amb_g[i] * model.ambient_c();
  op->ambient = util::Matrix(1, n);
  util::Gemm(amb_rhs, inverse_t, &op->ambient);
  // M_state^T = diag(C/dt) A^-T: scale row c by cap_c/dt in place.
  for (std::size_t c = 0; c < n; ++c) {
    const double scale = cap[c] / dt_s;
    for (double& x : inverse_t.row(c)) x *= scale;
  }
  op->state_t = std::move(inverse_t);

  // A positive dt can still overflow C/dt (or a near-singular system
  // can blow up A^-1); stepping on such operators would silently turn
  // every state to NaN, so reject them here.
  if (!AllFinite(op->state_t.data()) || !AllFinite(op->input_t.data()) ||
      !AllFinite(op->ambient.data()))
    throw util::SolverError(
        "StepPropagator: non-finite step operator (C/dt overflow or "
        "ill-conditioned system matrix)");
  step_ = std::move(op);
}

std::shared_ptr<const StepPropagator::HoldOperator> StepPropagator::Hold(
    std::size_t k) const {
  DS_REQUIRE(k >= 1, "StepPropagator::Hold: k must be >= 1");
  const ds::MutexLock lock(hold_mu_);
  const auto it = holds_.find(k);
  if (it != holds_.end()) {
    DS_TELEM_COUNT("thermal.hold_op_hits", 1);
    return it->second;
  }
  DS_TELEM_COUNT("thermal.hold_op_builds", 1);
  DS_TELEM_TIMER("thermal.hold_op_build_us");
  if (pow2_.empty()) pow2_.push_back(step_);
  // Binary powering over the memoized power-of-two chain. All factors
  // are powers of one affine map, so composition order is immaterial.
  std::shared_ptr<const HoldOperator> acc;
  std::size_t bits = k;
  std::size_t level = 0;
  while (bits != 0) {
    while (level >= pow2_.size()) {
      const HoldOperator& prev = *pow2_.back();
      pow2_.push_back(
          std::make_shared<const HoldOperator>(Compose(prev, prev)));
    }
    if ((bits & 1u) != 0) {
      acc = acc == nullptr ? pow2_[level]
                           : std::make_shared<const HoldOperator>(
                                 Compose(*pow2_[level], *acc));
    }
    bits >>= 1u;
    ++level;
  }
  holds_.emplace(k, acc);
  return acc;
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
  const auto operator_bytes = [](const HoldOperator& h) {
    return sizeof(double) * (h.state_t.data().size() +
                             h.input_t.data().size() +
                             h.ambient.data().size());
  };
  std::size_t bytes = operator_bytes(*step_);
  std::set<const HoldOperator*> seen = {step_.get()};
  const ds::MutexLock lock(hold_mu_);
  for (const auto& hold : pow2_)
    if (seen.insert(hold.get()).second) bytes += operator_bytes(*hold);
  for (const auto& [k, hold] : holds_) {
    (void)k;
    if (seen.insert(hold.get()).second) bytes += operator_bytes(*hold);
  }
  return bytes;
}

std::size_t PropagatorSet::ApproxBytes() const {
  std::vector<std::shared_ptr<const StepPropagator>> props;
  {
    const ds::MutexLock lock(mu_);
    props.reserve(by_dt_.size());
    for (const auto& [dt, prop] : by_dt_) {
      (void)dt;
      props.push_back(prop);
    }
  }
  // Summed outside mu_: StepPropagator::ApproxBytes takes the
  // propagator's own hold mutex, and For() may build under mu_.
  std::size_t bytes = 0;
  for (const auto& prop : props) bytes += prop->ApproxBytes();
  return bytes;
}

}  // namespace ds::thermal
