#include "core/tsp.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/estimator.hpp"
#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::core {

Tsp::Tsp(const arch::Platform& platform) : platform_(&platform) {}

double Tsp::ForMapping(std::span<const std::size_t> active) const {
  DS_REQUIRE(!active.empty(), "Tsp::ForMapping: empty active set");
  DS_TELEM_COUNT("tsp.evaluations", 1);
  DS_TELEM_TIMER("tsp.compute_us");
  const util::Matrix& a = platform_->solver().InfluenceMatrix();
  const std::size_t n = platform_->num_cores();
  for (const std::size_t j : active)
    DS_REQUIRE(j < n, "Tsp::ForMapping: core index " << j
                          << " out of range for " << n << " cores");
  const double t_amb = platform_->thermal_model().ambient_c();
  const double headroom_total = platform_->tdtm_c() - t_amb;
  const double p_dark =
      platform_->power_model().DarkCorePower(platform_->tdtm_c());

  std::vector<bool> is_active(n, false);
  for (const std::size_t j : active) is_active[j] = true;

  double budget = std::numeric_limits<double>::infinity();
  // The peak is attained on an active core; evaluating every row keeps
  // the bound safe regardless.
  for (std::size_t i = 0; i < n; ++i) {
    double active_sum = 0.0;
    double dark_rise = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (is_active[j])
        active_sum += a(i, j);
      else
        dark_rise += a(i, j) * p_dark;
    }
    if (active_sum <= 0.0) continue;
    budget = std::min(budget, (headroom_total - dark_rise) / active_sum);
  }
  return budget;
}

double Tsp::WorstCase(std::size_t m) const {
  const auto mapping = SelectCores(*platform_, m, MappingPolicy::kDensest);
  return ForMapping(mapping);
}

double Tsp::BestCase(std::size_t m) const {
  const auto mapping = SelectCores(*platform_, m, MappingPolicy::kSpread);
  return ForMapping(mapping);
}

std::size_t Tsp::MaxActiveCores(double per_core_power_w,
                                MappingPolicy policy) const {
  const std::size_t n = platform_->num_cores();
  // TSP(m) is non-increasing in m, so binary search the largest m with
  // TSP(m) >= per_core_power_w.
  auto fits = [&](std::size_t m) {
    const auto mapping = SelectCores(*platform_, m, policy);
    return ForMapping(mapping) >= per_core_power_w;
  };
  if (!fits(1)) return 0;
  std::size_t lo = 1, hi = n + 1;
  if (fits(n)) return n;
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (fits(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

bool Tsp::MaxLevelWithinBudget(const apps::AppProfile& app,
                               std::size_t threads, double budget_w,
                               std::size_t* level_out) const {
  DS_REQUIRE(level_out != nullptr,
             "Tsp::MaxLevelWithinBudget: level_out must not be null");
  const DarkSiliconEstimator estimator(*platform_);
  const std::size_t n_levels = platform_->ladder().size();
  bool found = false;
  for (std::size_t level = 0; level < n_levels; ++level) {
    if (estimator.BudgetCorePower(app, threads, level) <= budget_w) {
      *level_out = level;
      found = true;
    }
  }
  return found;
}

}  // namespace ds::core
