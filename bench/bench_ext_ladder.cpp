// Extension: DVFS-ladder granularity ablation for the Fig. 11
// comparison. The constant-frequency baseline sits at the highest
// *available* level below T_DTM, so the ladder step sets how much
// thermal headroom is stranded -- and therefore how much boosting can
// reclaim. With finer steps the constant baseline creeps up and the
// boost gain shrinks; with coarser steps the boost gain grows (this is
// where our +1% vs the paper's +5% at 200 MHz comes from: the steady
// temperature gap per 200 MHz step differs between the models).
#include <iostream>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

int main() {
  using namespace ds;
  const bench::FigureTimer bench_timer("ext_ladder");
  util::PrintBanner(std::cout,
                    "Extension: DVFS step-size ablation (x264 x12, 16 nm, "
                    "quasi-steady boost model)");
  util::Table t({"step [MHz]", "const f [GHz]", "const GIPS", "boost GIPS",
                 "gain %", "stranded headroom [K]"});
  for (const double step : {0.05, 0.1, 0.2, 0.4}) {
    const arch::Platform plat(power::TechNode::N16, 100, step);
    const core::BoostingSimulator sim(plat, apps::AppByName("x264"), 12, 8);
    const core::BoostingSimulator::Comparison c =
        sim.Compare(plat.tdtm_c(), 500.0);
    if (!c.feasible) continue;
    const std::size_t level = c.level;
    const auto& boost = c.boost;
    t.Row()
        .Cell(1000.0 * step, 0)
        .Cell(plat.ladder()[level].freq, 2)
        .Cell(sim.GipsAtLevel(level), 1)
        .Cell(boost.avg_gips, 1)
        .Cell(100.0 * (boost.avg_gips / sim.GipsAtLevel(level) - 1.0), 1)
        .Cell(plat.tdtm_c() - c.steady.peak_temp_c, 1);
  }
  t.Print(std::cout);
  std::cout << "\nBoosting is a discretization patch: its gain is the "
               "headroom the ladder strands, which vanishes as the step "
               "shrinks (Observation 3 of the paper, sharpened).\n";
  return 0;
}
