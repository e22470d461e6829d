// Spatial mapping policies: which cores of the chip are activated.
//
// The paper (Sec. 4, Fig. 8) shows that two mappings with identical
// core counts and v/f levels can differ by several Kelvin in peak
// temperature; "dark silicon patterning" (DaSim) chooses active-core
// positions that interleave dark cores as heat buffers.
//
// Policies:
//   * kContiguous   -- row-major block fill (the naive baseline).
//   * kDensest      -- tiles closest to the die centre first; this is
//                      the thermally worst reasonable mapping, used for
//                      worst-case TSP.
//   * kCheckerboard -- alternate-parity tiles first (simple pattern).
//   * kSpread       -- DaSim-style greedy dispersion: each step adds
//                      the core that minimizes the resulting worst-case
//                      thermal row-sum of the influence matrix.
//
// That greedy step is PlaceDispersed, the one thermal placement in the
// tree: SelectSpread, SelectVariationAware, reliability::SelectAgingAware,
// OnlineManager's thermal-safe admission and ChipSimulator's admission
// all call it, and ReleaseCores takes a placed job's heat back out.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "thermal/floorplan.hpp"
#include "util/matrix.hpp"

namespace ds::core {

enum class MappingPolicy { kContiguous, kDensest, kCheckerboard, kSpread };

const char* MappingPolicyName(MappingPolicy policy);

/// Inverse of MappingPolicyName; "worst" is an alias of kDensest (the
/// thermally worst mapping). Throws std::invalid_argument naming any
/// other unknown value.
MappingPolicy MappingPolicyByName(const std::string& name);

/// Returns the indices of `count` cores selected by `policy`.
/// kSpread requires the platform's influence matrix; the other policies
/// are purely geometric. Throws std::invalid_argument if count exceeds
/// the core count.
std::vector<std::size_t> SelectCores(const arch::Platform& platform,
                                     std::size_t count, MappingPolicy policy);

/// Geometric-only variant (no influence matrix; kSpread falls back to
/// kCheckerboard). Useful for tests that avoid the factorization.
std::vector<std::size_t> SelectCoresGeometric(const thermal::Floorplan& fp,
                                              std::size_t count,
                                              MappingPolicy policy);

/// Greedy thermal dispersion. Places `count` cores one at a time, each
/// the candidate that keeps the predicted peak rise lowest. Candidates
/// are tried in the order given, skipping used ones; a candidate's peak
/// is the max, over the used cores' rows and its own, of
/// rise[i] + influence(i, c) * power[c], and a strict `<` keeps the
/// first minimum. Each placed core is marked in `used` and adds
/// influence(i, c) * power[c] to every rise[i]. `power`, `used` and
/// `rise` hold one entry per core; used cores that are not candidates
/// still bound the peak. Returns the cores in placement order.
std::vector<std::size_t> PlaceDispersed(const util::Matrix& influence,
                                        std::span<const std::size_t> candidates,
                                        std::span<const double> power,
                                        std::size_t count,
                                        std::vector<bool>& used,
                                        std::vector<double>& rise);

/// Inverse of PlaceDispersed: frees each of `cores` in `used` and
/// subtracts influence(i, c) * power[c] from every rise[i].
void ReleaseCores(const util::Matrix& influence,
                  std::span<const std::size_t> cores,
                  std::span<const double> power, std::vector<bool>& used,
                  std::vector<double>& rise);

/// PlaceDispersed from an empty chip over all cores at unit power,
/// sorted.
std::vector<std::size_t> SelectSpread(const util::Matrix& influence,
                                      std::size_t count);

/// Variability-aware patterning (DaSim [5]): SelectSpread with each
/// core's heat contribution weighted by its process-variation leakage
/// factor, so leaky cores are both avoided and kept apart.
/// `leak_weight` is the fraction of a core's power that is leakage
/// (sets how strongly variation matters; ~0.25 for the paper's
/// operating points).
std::vector<std::size_t> SelectVariationAware(
    const util::Matrix& influence,
    const std::vector<double>& leakage_factors, std::size_t count,
    double leak_weight = 0.25);

/// Boolean activity mask from an active set.
std::vector<bool> ActiveMask(std::size_t num_cores,
                             const std::vector<std::size_t>& active);

}  // namespace ds::core
