// Figure 6: dark silicon when modelled as a TDP constraint (185 W) vs
// as a temperature constraint (T_DTM = 80 C), at the nominal frequency,
// for 16 nm (paper: ~32% average reduction in dark silicon) and 11 nm
// (~40%); 8 nm is included to show the diminishing reduction the paper
// describes in Sec. 3.2.
//
// One sweep per node over (app, constraint); job index == a * 2 + c
// with c = 0 for the TDP estimate and c = 1 for the temperature one.
#include <iostream>

#include "apps/app_profile.hpp"
#include "bench_common.hpp"
#include "power/technology.hpp"
#include "util/table.hpp"

int main() {
  using namespace ds;
  const auto& suite = apps::ParsecSuite();
  const double tdp = 185.0;
  std::vector<std::string> app_names;
  for (const apps::AppProfile& app : suite) app_names.push_back(app.name);

  for (const std::string node : {"16nm", "11nm", "8nm"}) {
    runtime::SweepSpec spec("fig06_" + node, runtime::SweepKind::kEstimate);
    spec.Set("node", node).Set("threads", 8.0).Set("tdp_w", tdp);
    spec.Axis("app", app_names);
    spec.Axis("constraint", std::vector<std::string>{"tdp", "thermal"});
    const std::vector<runtime::JobResult> results = bench::RunSweep(spec);

    util::PrintBanner(
        std::cout,
        "Figure 6: TDP vs temperature constraint, " + node + " @ " +
            util::FormatFixed(Metric(results[0], "level_freq_ghz"), 1) +
            " GHz");
    util::Table t({"app", "TDP active %", "TDP dark %", "Temp active %",
                   "Temp dark %", "dark reduction %"});
    double reduction_sum = 0.0;
    std::size_t reduction_count = 0;
    for (std::size_t a = 0; a < suite.size(); ++a) {
      const double tdp_dark = Metric(results[a * 2], "dark_frac");
      const double temp_dark = Metric(results[a * 2 + 1], "dark_frac");
      double reduction = 0.0;
      if (tdp_dark > 1e-9) {
        reduction = 100.0 * (tdp_dark - temp_dark) / tdp_dark;
        reduction_sum += reduction;
        ++reduction_count;
      }
      t.Row()
          .Cell(bench::AppLabel(a))
          .Cell(100.0 * (1.0 - tdp_dark), 1)
          .Cell(100.0 * tdp_dark, 1)
          .Cell(100.0 * (1.0 - temp_dark), 1)
          .Cell(100.0 * temp_dark, 1)
          .Cell(reduction, 1);
    }
    t.Print(std::cout);
    bench::MaybeWriteCsv(t, "fig06_" + node);
    if (reduction_count > 0)
      std::cout << "average dark-silicon reduction (apps with dark "
                   "silicon under TDP): "
                << util::FormatFixed(
                       reduction_sum / static_cast<double>(reduction_count), 1)
                << "%\n";
  }
  bench::PaperNote(
      "~32% average reduction at 16 nm, ~40% at 11 nm, smaller at 8 nm (high "
      "power densities).");
  return 0;
}
