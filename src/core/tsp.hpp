// TSP -- Thermal Safe Power (Pagani et al., CODES+ISSS'14; paper Sec. 5).
//
// TSP(m) is the per-core power budget that keeps the peak steady-state
// temperature at or below T_DTM when m cores are active. Unlike a single
// TDP number, it is a *function of the number of active cores*: fewer
// active cores may each consume more power (run at higher v/f) without
// violating the thermal constraint.
//
// Because the RC network is linear, the peak temperature of a mapping S
// with uniform per-core power u is
//
//   T_peak = T_amb + u * max_i sum_{j in S} A[i][j] + (dark residuals),
//
// so TSP is closed-form per mapping:
//
//   TSP(S) = min_i ( T_DTM - T_amb - sum_{j not in S} A[i][j] p_dark )
//                 / ( sum_{j in S} A[i][j] )
//
// Leakage inside the budget is handled by the consumer evaluating
// Eq. (1) at T = T_DTM (conservative, as in the TSP paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/mapping.hpp"

namespace ds::core {

class Tsp {
 public:
  /// Uses (and, on first use, builds) the platform's influence matrix.
  /// The platform must outlive this object.
  explicit Tsp(const arch::Platform& platform);

  /// TSP for a specific active set [W per active core].
  double ForMapping(std::span<const std::size_t> active) const;

  /// Worst-case TSP(m): the densest mapping of m cores (centre cluster),
  /// i.e. a budget that is safe for *any* mapping of m active cores.
  double WorstCase(std::size_t m) const;

  /// Best-case TSP(m): the spread (patterned) mapping of m cores.
  double BestCase(std::size_t m) const;

  /// Highest DVFS level whose per-core power (Eq. (1) with leakage at
  /// T_DTM) fits within `budget_w` for the given application/threads.
  /// Returns false if even the lowest level does not fit.
  bool MaxLevelWithinBudget(const apps::AppProfile& app, std::size_t threads,
                            double budget_w, std::size_t* level_out) const;

  /// Inverse TSP (Sec. 5: "for a given number of active cores ... we
  /// compute TSP accordingly"): the largest number of active cores whose
  /// TSP budget still admits `per_core_power_w`, i.e. the most cores
  /// that can run an application consuming that much each without
  /// violating T_DTM under the given mapping assumption. Returns 0 if
  /// even one core exceeds the budget.
  std::size_t MaxActiveCores(double per_core_power_w,
                             MappingPolicy policy = MappingPolicy::kDensest)
      const;

  const arch::Platform& platform() const { return *platform_; }

 private:
  const arch::Platform* platform_;
};

}  // namespace ds::core
