// Figure 5: dark silicon under two TDP values (optimistic 220 W and
// pessimistic 185 W), 16 nm, 100 cores, 8 threads per instance, v/f
// levels 2.8 .. 3.6 GHz -- plus the per-application peak temperatures
// that expose the optimistic TDP's thermal violations.
//
// The estimates run as one sweep per TDP on the parallel engine; the
// rows are then formatted exactly as the original serial loops did
// (job index == a * |freqs| + f by the engine's expansion order).
#include <iostream>

#include "apps/app_profile.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace ds;
  const auto& suite = apps::ParsecSuite();
  const std::vector<double> freqs = {2.8, 3.0, 3.2, 3.4, 3.6};
  std::vector<std::string> app_names;
  for (const apps::AppProfile& app : suite) app_names.push_back(app.name);

  for (const double tdp : {220.0, 185.0}) {
    runtime::SweepSpec spec(tdp == 220.0 ? "fig05a" : "fig05b",
                            runtime::SweepKind::kEstimate);
    spec.Set("node", "16nm").Set("threads", 8.0).Set("tdp_w", tdp);
    spec.Axis("app", app_names).Axis("freq_ghz", freqs);
    const std::vector<runtime::JobResult> results = bench::RunSweep(spec);

    util::PrintBanner(std::cout,
                      (tdp == 220.0 ? "Figure 5-A: TDP = 220 W (optimistic)"
                                    : "Figure 5-B: TDP = 185 W (pessimistic)"));
    util::Table t({"app", "f [GHz]", "active %", "dark %", "power [W]",
                   "peak T [C]", "violation"});
    double max_dark = 0.0;
    std::string max_dark_app;
    bool any_violation = false;
    for (std::size_t a = 0; a < suite.size(); ++a) {
      for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        const double f = freqs[fi];
        const runtime::JobResult& r = results[a * freqs.size() + fi];
        const double dark = Metric(r, "dark_frac");
        const bool violation = Metric(r, "violation") != 0.0;
        t.Row()
            .Cell(bench::AppLabel(a))
            .Cell(f, 1)
            .Cell(100.0 * (1.0 - dark), 1)
            .Cell(100.0 * dark, 1)
            .Cell(Metric(r, "total_power_w"), 1)
            .Cell(Metric(r, "peak_temp_c"), 1)
            .Cell(violation ? "YES" : "no");
        if (f == 3.6 && dark > max_dark) {
          max_dark = dark;
          max_dark_app = suite[a].name;
        }
        any_violation = any_violation || violation;
      }
    }
    t.Print(std::cout);
    bench::MaybeWriteCsv(t, tdp == 220.0 ? "fig05a_tdp220" : "fig05b_tdp185");
    std::cout << "max dark silicon at 3.6 GHz: "
              << util::FormatFixed(100.0 * max_dark, 1) << "% (" << max_dark_app
              << "); thermal violations: " << (any_violation ? "YES" : "no")
              << "\n";
  }
  bench::PaperNote(
      "up to ~37% dark at 220 W (with violations), up to ~46% at 185 W (no "
      "violations), worst case swaptions.");
  return 0;
}
