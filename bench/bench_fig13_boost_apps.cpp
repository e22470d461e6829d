// Figure 13: boosting vs constant frequency across the Parsec suite at
// 11 nm, for 12 and 24 application instances (8 threads each): total
// performance and total peak power, plus the minimum (v, f) utilized
// across all cases (the paper: 0.92 V / 3.0 GHz, still STC).
#include <iostream>
#include <limits>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "bench_common.hpp"
#include "core/boosting.hpp"
#include "util/table.hpp"

int main() {
  using namespace ds;
  arch::Platform plat = arch::Platform::PaperPlatform(power::TechNode::N11);
  const auto& suite = apps::ParsecSuite();
  const double power_cap = 500.0;

  util::PrintBanner(std::cout,
                    "Figure 13: boosting vs constant per application, "
                    "11 nm (198 cores)");
  util::Table t({"app", "inst", "const f", "const GIPS", "const peak P",
                 "boost GIPS", "boost peak P", "gain %"});
  double min_freq = std::numeric_limits<double>::infinity();
  double min_vdd = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < suite.size(); ++a) {
    for (const std::size_t instances : {12UL, 24UL}) {
      const core::BoostingSimulator sim(plat, suite[a], instances, 8);
      const core::BoostingSimulator::Comparison c =
          sim.Compare(plat.tdtm_c(), power_cap);
      if (!c.feasible) continue;
      const std::size_t level = c.level;
      const auto& boost = c.boost;
      const double gain =
          100.0 * (boost.avg_gips / sim.GipsAtLevel(level) - 1.0);
      min_freq = std::min(min_freq, plat.ladder()[level].freq);
      min_vdd = std::min(min_vdd, plat.ladder()[level].vdd);
      t.Row()
          .Cell(bench::AppLabel(a))
          .Cell(instances)
          .Cell(plat.ladder()[level].freq, 1)
          .Cell(sim.GipsAtLevel(level), 1)
          .Cell(c.steady.total_power_w, 0)
          .Cell(boost.avg_gips, 1)
          .Cell(boost.peak_power_w, 0)
          .Cell(gain, 1);
    }
  }
  t.Print(std::cout);
  bench::MaybeWriteCsv(t, "fig13_boost_apps");
  std::cout << "\nminimum utilized operating point: "
            << util::FormatFixed(min_freq, 1) << " GHz / "
            << util::FormatFixed(min_vdd, 2)
            << " V (paper: 3.0 GHz / 0.92 V, still in the STC region)\n"
            << "Paper: boosting's average gain is small against its peak "
               "power increase.\n";
  return 0;
}
