// Figure 10: overall system performance under TSP power budgeting for
// 16 nm (20% dark silicon), 11 nm (30%) and 8 nm (40%). For each node
// the given dark-silicon percentage fixes the number of active cores m;
// TSP(m) (worst-case mapping) gives the per-core budget; each
// application then runs at the highest v/f level that fits the budget.
// The paper's claim: performance keeps rising with technology scaling
// despite the growing dark fraction (+~60% average from 11 to 8 nm).
//
// (node, dark %) are coupled, so the sweep uses an explicit point list:
// job index == config * |suite| + a.
#include <iostream>

#include "apps/app_profile.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace ds;
  const auto& suite = apps::ParsecSuite();
  struct Config {
    std::string node;
    double dark_pct;
  };
  const std::vector<Config> configs = {
      {"16nm", 20.0}, {"11nm", 30.0}, {"8nm", 40.0}};

  runtime::SweepSpec spec("fig10", runtime::SweepKind::kTspPerf);
  spec.Set("threads", 8.0);
  for (const Config& cfg : configs)
    for (const apps::AppProfile& app : suite)
      spec.Point({{"node", cfg.node},
                  {"dark_pct", runtime::CanonicalNumber(cfg.dark_pct)},
                  {"app", app.name}});
  const std::vector<runtime::JobResult> results = bench::RunSweep(spec);

  util::PrintBanner(std::cout,
                    "Figure 10: system performance under TSP budgeting");
  util::Table t({"node", "dark %", "active", "TSP [W/core]", "app",
                 "f [GHz]", "GIPS"});
  double prev_avg = 0.0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Config& cfg = configs[c];
    double gips_sum = 0.0;
    for (std::size_t a = 0; a < suite.size(); ++a) {
      const runtime::JobResult& r = results[c * suite.size() + a];
      gips_sum += Metric(r, "gips");
      t.Row()
          .Cell(cfg.node)
          .Cell(cfg.dark_pct, 0)
          .Cell(static_cast<std::size_t>(Metric(r, "active")))
          .Cell(Metric(r, "budget_w_per_core"), 2)
          .Cell(bench::AppLabel(a))
          .Cell(Metric(r, "freq_ghz"), 1)
          .Cell(Metric(r, "gips"), 1);
    }
    const double avg = gips_sum / static_cast<double>(suite.size());
    std::cout << cfg.node << " average over apps: "
              << util::FormatFixed(avg, 1) << " GIPS";
    if (prev_avg > 0.0)
      std::cout << "  (+"
                << util::FormatFixed(100.0 * (avg / prev_avg - 1.0), 0)
                << "% vs previous node)";
    std::cout << "\n";
    prev_avg = avg;
  }
  t.Print(std::cout);
  bench::MaybeWriteCsv(t, "fig10_tsp");
  bench::PaperNote(
      "performance rises per node despite more dark silicon; 11 nm -> 8 nm "
      "increment ~60% on average.");
  return 0;
}
