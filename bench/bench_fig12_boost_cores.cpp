// Figure 12: total performance and total power vs number of active
// cores for the H.264 encoder at 16 nm, boosting vs constant frequency.
// One new 8-thread instance per 8 active cores (paper caption). The
// boosting points use the validated quasi-steady model (see
// BoostingSimulator::EstimateBoosting); the constant points use the
// highest steady-state-safe level per core count.
//
// One sweep over the instance-count axis; infeasible counts come back
// as skipped rows and are left out of the table, like the original
// loop's `continue`.
#include <iostream>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace ds;
  std::vector<double> instance_counts;
  for (std::size_t instances = 1; instances <= 12; ++instances)
    instance_counts.push_back(static_cast<double>(instances));

  runtime::SweepSpec spec("fig12", runtime::SweepKind::kBoost);
  spec.Set("node", "16nm").Set("app", "x264").Set("threads", 8.0);
  spec.Set("power_cap_w", 500.0);
  spec.Axis("instances", instance_counts);
  const std::vector<runtime::JobResult> results = bench::RunSweep(spec);

  util::PrintBanner(std::cout,
                    "Figure 12: performance & power vs active cores "
                    "(x264, 16 nm)");
  util::Table t({"cores", "const f [GHz]", "const GIPS", "const P [W]",
                 "boost GIPS", "boost avg P [W]", "boost peak P [W]"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runtime::JobResult& r = results[i];
    if (r.skipped) continue;
    t.Row()
        .Cell((i + 1) * 8)
        .Cell(Metric(r, "const_freq_ghz"), 1)
        .Cell(Metric(r, "const_gips"), 1)
        .Cell(Metric(r, "const_power_w"), 0)
        .Cell(Metric(r, "boost_gips"), 1)
        .Cell(Metric(r, "boost_avg_power_w"), 0)
        .Cell(Metric(r, "boost_peak_power_w"), 0);
  }
  t.Print(std::cout);
  bench::MaybeWriteCsv(t, "fig12_boost_cores");
  bench::PaperNote(
      "boosting's performance edge is small while its peak power grows "
      "substantially with the core count.");
  return 0;
}
