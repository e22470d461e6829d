#include "core/mapping.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "arch/platform.hpp"
#include "core/online_manager.hpp"
#include "reliability/aging.hpp"

namespace ds::core {
namespace {

/// One shared 16 nm platform for the whole file (the influence matrix
/// is cached inside it).
const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

class MappingPolicyTest
    : public ::testing::TestWithParam<std::tuple<MappingPolicy, std::size_t>> {
};

TEST_P(MappingPolicyTest, ReturnsUniqueValidIndices) {
  const auto [policy, count] = GetParam();
  const auto set = SelectCores(Plat16(), count, policy);
  EXPECT_EQ(set.size(), count);
  std::set<std::size_t> unique(set.begin(), set.end());
  EXPECT_EQ(unique.size(), count);
  for (const std::size_t i : set) EXPECT_LT(i, Plat16().num_cores());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndCounts, MappingPolicyTest,
    ::testing::Combine(::testing::Values(MappingPolicy::kContiguous,
                                         MappingPolicy::kDensest,
                                         MappingPolicy::kCheckerboard,
                                         MappingPolicy::kSpread),
                       ::testing::Values(1UL, 8UL, 50UL, 100UL)));

TEST(Mapping, ContiguousIsRowMajorPrefix) {
  const auto set = SelectCores(Plat16(), 25, MappingPolicy::kContiguous);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(set[i], i);
}

TEST(Mapping, DensestStartsAtDieCenter) {
  const auto set = SelectCores(Plat16(), 4, MappingPolicy::kDensest);
  // On the 10x10 grid the four central tiles are rows/cols 4-5.
  for (const std::size_t i : set) {
    const auto pos = Plat16().floorplan().PosOf(i);
    EXPECT_GE(pos.row, 4u);
    EXPECT_LE(pos.row, 5u);
    EXPECT_GE(pos.col, 4u);
    EXPECT_LE(pos.col, 5u);
  }
}

TEST(Mapping, CheckerboardHalfHasSingleParity) {
  const auto set = SelectCores(Plat16(), 50, MappingPolicy::kCheckerboard);
  for (const std::size_t i : set) {
    const auto pos = Plat16().floorplan().PosOf(i);
    EXPECT_EQ((pos.row + pos.col) % 2, 0u);
  }
}

TEST(Mapping, ThrowsWhenCountExceedsCores) {
  EXPECT_THROW(SelectCores(Plat16(), 101, MappingPolicy::kContiguous),
               std::invalid_argument);
  EXPECT_THROW(SelectCores(Plat16(), 101, MappingPolicy::kSpread),
               std::invalid_argument);
}

TEST(Mapping, SpreadBeatsDensestThermally) {
  // The patterned mapping's worst-case influence row-sum (peak steady
  // temperature per uniform watt) must be strictly lower than the
  // densest cluster's for a half-populated chip.
  const util::Matrix& a = Plat16().solver().InfluenceMatrix();
  auto peak_per_watt = [&](const std::vector<std::size_t>& set) {
    double worst = 0.0;
    for (const std::size_t i : set) {
      double row = 0.0;
      for (const std::size_t j : set) row += a(i, j);
      worst = std::max(worst, row);
    }
    return worst;
  };
  const auto spread = SelectCores(Plat16(), 50, MappingPolicy::kSpread);
  const auto dense = SelectCores(Plat16(), 50, MappingPolicy::kDensest);
  const auto contig = SelectCores(Plat16(), 50, MappingPolicy::kContiguous);
  EXPECT_LT(peak_per_watt(spread), peak_per_watt(dense));
  EXPECT_LT(peak_per_watt(spread), peak_per_watt(contig));
}

TEST(Mapping, FullChipIsTheSameSetForAllPolicies) {
  const std::size_t n = Plat16().num_cores();
  for (const MappingPolicy p :
       {MappingPolicy::kContiguous, MappingPolicy::kDensest,
        MappingPolicy::kCheckerboard, MappingPolicy::kSpread}) {
    auto set = SelectCores(Plat16(), n, p);
    std::sort(set.begin(), set.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(set[i], i);
  }
}

TEST(Mapping, ActiveMaskMarksExactlyTheSet) {
  const std::vector<std::size_t> set = {1, 5, 7};
  const std::vector<bool> mask = ActiveMask(10, set);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(mask[i], i == 1 || i == 5 || i == 7);
}

TEST(Mapping, PolicyNames) {
  EXPECT_STREQ(MappingPolicyName(MappingPolicy::kContiguous), "contiguous");
  EXPECT_STREQ(MappingPolicyName(MappingPolicy::kSpread), "spread");
  for (const MappingPolicy p :
       {MappingPolicy::kContiguous, MappingPolicy::kDensest,
        MappingPolicy::kCheckerboard, MappingPolicy::kSpread})
    EXPECT_EQ(MappingPolicyByName(MappingPolicyName(p)), p);
  EXPECT_EQ(MappingPolicyByName("worst"), MappingPolicy::kDensest);
  try {
    MappingPolicyByName("sparse");
    ADD_FAILURE() << "no throw on an unknown policy";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'sparse'"), std::string::npos)
        << e.what();
  }
}

TEST(Mapping, VariationAwareAvoidsLeakyCores) {
  const util::Matrix& a = Plat16().solver().InfluenceMatrix();
  // Mark the left half of the die as very leaky.
  std::vector<double> leak(100, 1.0);
  for (std::size_t i = 0; i < 100; ++i)
    if (Plat16().floorplan().PosOf(i).col < 5) leak[i] = 3.0;
  const auto set = SelectVariationAware(a, leak, 30, 0.5);
  std::size_t leaky_chosen = 0;
  for (const std::size_t c : set)
    if (leak[c] > 1.5) ++leaky_chosen;
  // Far fewer than half of the picks land on the leaky side.
  EXPECT_LT(leaky_chosen, 10u);
}

TEST(Mapping, VariationAwareWithUniformMapIsPlainSpread) {
  const util::Matrix& a = Plat16().solver().InfluenceMatrix();
  const std::vector<double> uniform(100, 1.0);
  EXPECT_EQ(SelectVariationAware(a, uniform, 40, 0.25),
            SelectSpread(a, 40));
}

TEST(Mapping, VariationAwareValidates) {
  const util::Matrix& a = Plat16().solver().InfluenceMatrix();
  const std::vector<double> wrong_size(50, 1.0);
  EXPECT_THROW(SelectVariationAware(a, wrong_size, 10),
               std::invalid_argument);
  const std::vector<double> ok(100, 1.0);
  EXPECT_THROW(SelectVariationAware(a, ok, 101), std::invalid_argument);
}

TEST(Mapping, GeometricFallbackForSpread) {
  // Without an influence matrix, kSpread falls back to checkerboard.
  const auto a = SelectCoresGeometric(Plat16().floorplan(), 20,
                                      MappingPolicy::kSpread);
  const auto b = SelectCoresGeometric(Plat16().floorplan(), 20,
                                      MappingPolicy::kCheckerboard);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------ placement pins
//
// The greedy thermal placement breaks ties between mirror-image cores
// on the influence matrix's last bits. These pins hash what each caller
// of it places (64-bit FNV-1a, as InfluenceMatrixPin does) and hold the
// bytes to those the five placement loops it replaced produced. A `<=`
// in place of the strict `<`, or a caller that visits its candidates in
// another order, moves them.

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

template <typename T>
std::uint64_t Fnv1a(const std::vector<T>& v, std::uint64_t h = kFnvBasis) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Counts 1 to 8 one by one, then in growing steps up to `n`.
std::vector<std::size_t> PinCounts(std::size_t n) {
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= n; c += 1 + c / 8) counts.push_back(c);
  return counts;
}

struct DiePin {
  power::TechNode node;
  std::size_t cores;  // 0: the node's paper platform
  std::uint64_t hash;
};

arch::Platform PinPlatform(const DiePin& pin) {
  return pin.cores == 0 ? arch::Platform::PaperPlatform(pin.node)
                        : arch::Platform(pin.node, pin.cores);
}

TEST(PlacementPin, SelectSpread) {
  // On the paper dies no two candidates ever tie bitwise. On the 25-core
  // 16 nm die, mirror-image cores tie from the first step, so that row
  // fails if a tie goes to the later candidate.
  const DiePin pins[] = {{power::TechNode::N16, 0, 0x707d85e17d522d99ull},
                         {power::TechNode::N11, 0, 0x10d87a115de95887ull},
                         {power::TechNode::N8, 0, 0x97ae272aabc52718ull},
                         {power::TechNode::N16, 25, 0x4e15e50f07e909d2ull}};
  for (const DiePin& pin : pins) {
    const arch::Platform plat = PinPlatform(pin);
    const util::Matrix& a = plat.solver().InfluenceMatrix();
    std::uint64_t h = kFnvBasis;
    for (const std::size_t c : PinCounts(a.rows()))
      h = Fnv1a(SelectSpread(a, c), h);
    EXPECT_EQ(h, pin.hash) << a.rows() << " cores: 0x" << std::hex << h;
  }
}

TEST(PlacementPin, SelectVariationAware) {
  const DiePin pins[] = {{power::TechNode::N16, 0, 0x9f772e82abf6196eull},
                         {power::TechNode::N11, 0, 0x9ceeb6541549364bull},
                         {power::TechNode::N8, 0, 0x2ed8794914beccbfull}};
  for (const DiePin& pin : pins) {
    const arch::Platform plat = PinPlatform(pin);
    const util::Matrix& a = plat.solver().InfluenceMatrix();
    // Leakage factors 0.6 to 1.8 in a fixed pattern (no RNG, so the pin
    // does not depend on the standard library's distributions).
    std::vector<double> leak(a.rows());
    for (std::size_t i = 0; i < leak.size(); ++i)
      leak[i] = 0.6 + 0.1 * static_cast<double>((7 * i) % 13);
    std::uint64_t h = kFnvBasis;
    for (const std::size_t c : PinCounts(a.rows()))
      h = Fnv1a(SelectVariationAware(a, leak, c), h);
    EXPECT_EQ(h, pin.hash) << a.rows() << " cores: 0x" << std::hex << h;
  }
}

TEST(PlacementPin, SelectAgingAware) {
  // Ties inside the 16 nm die's least-worn pool make its row fail under
  // `<=` and under a pool visited in index order.
  const DiePin pins[] = {{power::TechNode::N16, 0, 0x0e1104f1e41f9d4bull},
                         {power::TechNode::N11, 0, 0x5fe4c212302c832eull},
                         {power::TechNode::N8, 0, 0x2e3d868331496377ull}};
  for (const DiePin& pin : pins) {
    const arch::Platform plat = PinPlatform(pin);
    const util::Matrix& a = plat.solver().InfluenceMatrix();
    const std::size_t n = a.rows();
    // Wear falls with the core index, so the least-worn pool is visited
    // from its highest index down, the reverse of index order.
    reliability::AgingState aging(n);
    std::vector<double> temps(n);
    for (std::size_t i = 0; i < n; ++i)
      temps[i] = 95.0 - 50.0 * static_cast<double>(i) / static_cast<double>(n);
    aging.Advance(temps, 100.0);
    std::uint64_t h = kFnvBasis;
    for (const std::size_t c : PinCounts(n))
      h = Fnv1a(reliability::SelectAgingAware(a, aging, c), h);
    EXPECT_EQ(h, pin.hash) << n << " cores: 0x" << std::hex << h;
  }
}

TEST(PlacementPin, OnlineThermalSafeWithCoreFaults) {
  const DiePin pins[] = {{power::TechNode::N16, 0, 0xdb95cd3a0cda42aeull},
                         {power::TechNode::N11, 0, 0x2021bc7330415f61ull}};
  for (const DiePin& pin : pins) {
    const arch::Platform plat = PinPlatform(pin);
    OnlineConfig cfg;
    cfg.arrival_rate = 2.0;
    cfg.min_duration = 4;
    cfg.max_duration = 12;
    cfg.seed = 11;
    cfg.faults.enabled = true;
    cfg.faults.seed = 5;
    cfg.faults.core_failstop_rate = 2e-3;
    cfg.faults.core_transient_rate = 4e-3;
    cfg.faults.transient_duration_s = 3.0;
    cfg.faults.max_failed_cores = plat.num_cores() / 5;
    const OnlineResult r =
        OnlineManager(plat, AdmissionPolicy::kThermalSafe, cfg).Run(60);
    EXPECT_GT(r.jobs_requeued, 0u);
    const std::vector<std::size_t> counts = {
        r.jobs_arrived,  r.jobs_completed, r.jobs_rejected,
        r.jobs_requeued, r.cores_failed,   r.violation_epochs};
    std::uint64_t h = Fnv1a(counts);
    h = Fnv1a(r.epoch_gips, h);
    h = Fnv1a(r.epoch_peak_temp, h);
    EXPECT_EQ(h, pin.hash) << plat.num_cores() << " cores: 0x" << std::hex
                           << h;
  }
}

}  // namespace
}  // namespace ds::core
