#include "core/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::core {
namespace {

std::vector<std::size_t> SelectContiguous(const thermal::Floorplan&,
                                          std::size_t count) {
  std::vector<std::size_t> out(count);
  std::iota(out.begin(), out.end(), 0);  // row-major block from the top
  return out;
}

std::vector<std::size_t> SelectDensest(const thermal::Floorplan& fp,
                                       std::size_t count) {
  const double cx = fp.die_width_mm() / 2.0;
  const double cy = fp.die_height_mm() / 2.0;
  std::vector<std::size_t> all(fp.num_cores());
  std::iota(all.begin(), all.end(), 0);
  std::stable_sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
    const double da = std::hypot(fp.CenterX(a) - cx, fp.CenterY(a) - cy);
    const double db = std::hypot(fp.CenterX(b) - cx, fp.CenterY(b) - cy);
    return da < db;
  });
  all.resize(count);
  return all;
}

std::vector<std::size_t> SelectCheckerboard(const thermal::Floorplan& fp,
                                            std::size_t count) {
  std::vector<std::size_t> out;
  out.reserve(count);
  for (int parity = 0; parity < 2 && out.size() < count; ++parity) {
    for (std::size_t r = 0; r < fp.rows() && out.size() < count; ++r) {
      for (std::size_t c = 0; c < fp.cols() && out.size() < count; ++c) {
        if ((r + c) % 2 == static_cast<std::size_t>(parity))
          out.push_back(fp.IndexOf(r, c));
      }
    }
  }
  return out;
}

/// PlaceDispersed from an empty chip over all cores, sorted.
std::vector<std::size_t> DisperseOnEmptyChip(const util::Matrix& influence,
                                             std::span<const double> power,
                                             std::size_t count) {
  const std::size_t n = influence.rows();
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<bool> used(n, false);
  std::vector<double> rise(n, 0.0);
  std::vector<std::size_t> out =
      PlaceDispersed(influence, all, power, count, used, rise);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* MappingPolicyName(MappingPolicy policy) {
  switch (policy) {
    case MappingPolicy::kContiguous:
      return "contiguous";
    case MappingPolicy::kDensest:
      return "densest";
    case MappingPolicy::kCheckerboard:
      return "checkerboard";
    case MappingPolicy::kSpread:
      return "spread";
  }
  return "?";
}

MappingPolicy MappingPolicyByName(const std::string& name) {
  for (const MappingPolicy policy :
       {MappingPolicy::kContiguous, MappingPolicy::kDensest,
        MappingPolicy::kCheckerboard, MappingPolicy::kSpread}) {
    if (name == MappingPolicyName(policy)) return policy;
  }
  if (name == "worst") return MappingPolicy::kDensest;
  throw std::invalid_argument(
      "unknown mapping policy '" + name +
      "' (contiguous|densest|checkerboard|spread|worst)");
}

std::vector<std::size_t> PlaceDispersed(const util::Matrix& influence,
                                        std::span<const std::size_t> candidates,
                                        std::span<const double> power,
                                        std::size_t count,
                                        std::vector<bool>& used,
                                        std::vector<double>& rise) {
  const std::size_t n = influence.rows();
  DS_REQUIRE(power.size() == n && used.size() == n && rise.size() == n,
             "PlaceDispersed: " << power.size() << " powers, " << used.size()
                 << " used flags and " << rise.size() << " rises for " << n
                 << " cores");
  // Rows that bound the peak: the used cores'. Peaks occur on active
  // cores (self-influence dominates), so restricting to them is both
  // faster and how TSP evaluates a mapping. A max does not depend on
  // the order it visits them in.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i)
    if (used[i]) rows.push_back(i);
  std::vector<std::size_t> placed;
  placed.reserve(count);
  for (std::size_t step = 0; step < count; ++step) {
    std::size_t best = n;
    double best_peak = std::numeric_limits<double>::infinity();
    for (const std::size_t cand : candidates) {
      if (used[cand]) continue;
      double peak = rise[cand] + influence(cand, cand) * power[cand];
      for (const std::size_t i : rows)
        peak = std::max(peak, rise[i] + influence(i, cand) * power[cand]);
      if (peak < best_peak) {
        best_peak = peak;
        best = cand;
      }
    }
    DS_INVARIANT(best < n, "PlaceDispersed: greedy step " << step
                               << " found no free candidate");
    used[best] = true;
    rows.push_back(best);
    placed.push_back(best);
    for (std::size_t i = 0; i < n; ++i)
      rise[i] += influence(i, best) * power[best];
  }
  return placed;
}

void ReleaseCores(const util::Matrix& influence,
                  std::span<const std::size_t> cores,
                  std::span<const double> power, std::vector<bool>& used,
                  std::vector<double>& rise) {
  const std::size_t n = influence.rows();
  DS_REQUIRE(power.size() == n && used.size() == n && rise.size() == n,
             "ReleaseCores: " << power.size() << " powers, " << used.size()
                 << " used flags and " << rise.size() << " rises for " << n
                 << " cores");
  for (const std::size_t c : cores) {
    used[c] = false;
    for (std::size_t i = 0; i < n; ++i) rise[i] -= influence(i, c) * power[c];
  }
}

std::vector<std::size_t> SelectSpread(const util::Matrix& influence,
                                      std::size_t count) {
  const std::size_t n = influence.rows();
  DS_REQUIRE(count <= n, "SelectSpread: count " << count << " exceeds "
                             << n << " cores");
  return DisperseOnEmptyChip(influence, std::vector<double>(n, 1.0), count);
}

std::vector<std::size_t> SelectVariationAware(
    const util::Matrix& influence,
    const std::vector<double>& leakage_factors, std::size_t count,
    double leak_weight) {
  const std::size_t n = influence.rows();
  DS_REQUIRE(count <= n, "SelectVariationAware: count " << count
                             << " exceeds " << n << " cores");
  DS_REQUIRE(leakage_factors.size() == n,
             "SelectVariationAware: " << leakage_factors.size()
                 << " leakage factors for " << n << " cores");
  // Core j contributes w_j = (1 - leak_weight) + leak_weight * leak_j
  // per unit of nominal power: a leaky core heats its neighbourhood
  // more.
  std::vector<double> weight(n);
  for (std::size_t j = 0; j < n; ++j)
    weight[j] = (1.0 - leak_weight) + leak_weight * leakage_factors[j];
  return DisperseOnEmptyChip(influence, weight, count);
}

std::vector<std::size_t> SelectCoresGeometric(const thermal::Floorplan& fp,
                                              std::size_t count,
                                              MappingPolicy policy) {
  DS_REQUIRE(count <= fp.num_cores(),
             "SelectCores: count " << count << " exceeds "
                                   << fp.num_cores() << " cores");
  switch (policy) {
    case MappingPolicy::kContiguous:
      return SelectContiguous(fp, count);
    case MappingPolicy::kDensest:
      return SelectDensest(fp, count);
    case MappingPolicy::kCheckerboard:
    case MappingPolicy::kSpread:
      return SelectCheckerboard(fp, count);
  }
  throw std::invalid_argument("SelectCores: unknown policy");
}

std::vector<std::size_t> SelectCores(const arch::Platform& platform,
                                     std::size_t count,
                                     MappingPolicy policy) {
  DS_TELEM_COUNT("mapping.selections", 1);
  DS_TELEM_TIMER("mapping.select_us");
  if (policy == MappingPolicy::kSpread)
    return SelectSpread(platform.solver().InfluenceMatrix(), count);
  return SelectCoresGeometric(platform.floorplan(), count, policy);
}

std::vector<bool> ActiveMask(std::size_t num_cores,
                             const std::vector<std::size_t>& active) {
  std::vector<bool> mask(num_cores, false);
  for (const std::size_t i : active) {
    DS_REQUIRE(i < num_cores, "ActiveMask: core index " << i
                                  << " out of range for " << num_cores
                                  << " cores");
    mask[i] = true;
  }
  return mask;
}

}  // namespace ds::core
