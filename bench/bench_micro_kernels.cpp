// Micro-benchmarks (google-benchmark) for the numerical kernels behind
// every experiment, plus the closed-form-vs-bisection TSP ablation that
// DESIGN.md calls out: the closed form turns a thermal feasibility
// check from dozens of linear solves into one row scan.
//
// These are trend data for one layer, not the performance record: the
// repo benchmark (perfbench/, see BENCHMARK.json) times the sweeps and
// closed loops end to end and reports the per-layer kernel costs
// (thermal.transient.step_us, thermal.batch.member_step_us_k1/_k16)
// alongside.
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/mapping.hpp"
#include "core/tsp.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"
#include "util/lu.hpp"

namespace {

using namespace ds;

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  // Force the expensive assets once, outside the timed regions.
  plat.solver().InfluenceMatrix();
  return plat;
}

void BM_RcModelBuild(benchmark::State& state) {
  const thermal::Floorplan fp = thermal::Floorplan::MakeGrid(
      static_cast<std::size_t>(state.range(0)), 5.1);
  for (auto _ : state) {
    const thermal::RcModel model(fp);
    benchmark::DoNotOptimize(model.num_nodes());
  }
}
BENCHMARK(BM_RcModelBuild)->Arg(16)->Arg(100);

void BM_LuFactorization(benchmark::State& state) {
  const thermal::RcModel model(thermal::Floorplan::MakeGrid(
      static_cast<std::size_t>(state.range(0)), 5.1));
  for (auto _ : state) {
    const util::LuFactorization lu(model.conductance());
    benchmark::DoNotOptimize(lu.Determinant());
  }
}
BENCHMARK(BM_LuFactorization)->Arg(16)->Arg(100);

void BM_SteadySolve(benchmark::State& state) {
  const auto& solver = Plat16().solver();
  const std::vector<double> p(100, 2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(p));
  }
}
BENCHMARK(BM_SteadySolve);

// One simulator step: a k = 1 panel pass over the folded propagator.
void BM_TransientStepPropagator(benchmark::State& state) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3);
  const std::vector<double> p(100, 2.5);
  for (auto _ : state) {
    sim.Step(p);
    benchmark::DoNotOptimize(sim.PeakDieTemp());
  }
}
BENCHMARK(BM_TransientStepPropagator);

// Influence-matrix construction cost: one blocked multi-RHS solve over
// all unit-injection columns vs the per-column loop it replaced.
void BM_InfluenceSolveMany(benchmark::State& state) {
  const thermal::RcModel& model = Plat16().thermal_model();
  const util::LuFactorization lu(model.conductance());
  const std::size_t n = model.num_cores();
  for (auto _ : state) {
    util::Matrix rhs(model.num_nodes(), n);
    for (std::size_t j = 0; j < n; ++j) rhs(model.DieNode(j), j) = 1.0;
    lu.SolveMany(&rhs);
    benchmark::DoNotOptimize(rhs.data());
  }
}
BENCHMARK(BM_InfluenceSolveMany);

void BM_InfluencePerColumnAblation(benchmark::State& state) {
  const thermal::RcModel& model = Plat16().thermal_model();
  const util::LuFactorization lu(model.conductance());
  const std::size_t n = model.num_cores();
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> rhs(model.num_nodes(), 0.0);
      rhs[model.DieNode(j)] = 1.0;
      const std::vector<double> col = lu.Solve(rhs);
      sink += col[0];
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_InfluencePerColumnAblation);

void BM_TspClosedForm(benchmark::State& state) {
  const core::Tsp tsp(Plat16());
  const auto mapping = core::SelectCores(
      Plat16(), static_cast<std::size_t>(state.range(0)),
      core::MappingPolicy::kDensest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsp.ForMapping(mapping));
  }
}
BENCHMARK(BM_TspClosedForm)->Arg(25)->Arg(50)->Arg(100);

void BM_TspBisectionAblation(benchmark::State& state) {
  // The alternative the closed form replaces: bisection with a direct
  // steady-state solve per probe (30 probes for ~1e-9 W resolution).
  const auto& solver = Plat16().solver();
  const auto mapping = core::SelectCores(
      Plat16(), static_cast<std::size_t>(state.range(0)),
      core::MappingPolicy::kDensest);
  const double tdtm = Plat16().tdtm_c();
  for (auto _ : state) {
    double lo = 0.0, hi = 50.0;
    for (int i = 0; i < 30; ++i) {
      const double mid = (lo + hi) / 2.0;
      std::vector<double> p(100, 0.0);
      for (const std::size_t c : mapping) p[c] = mid;
      const std::vector<double> t = solver.Solve(p);
      if (util::MaxElement(t) <= tdtm)
        lo = mid;
      else
        hi = mid;
    }
    benchmark::DoNotOptimize(lo);
  }
}
BENCHMARK(BM_TspBisectionAblation)->Arg(25)->Arg(50)->Arg(100);

void BM_SpreadMapping(benchmark::State& state) {
  const auto& influence = Plat16().solver().InfluenceMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SelectSpread(
        influence, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_SpreadMapping)->Arg(25)->Arg(50)->Arg(100);

void BM_FeedbackSolve(benchmark::State& state) {
  const auto& solver = Plat16().solver();
  const auto& pm = Plat16().power_model();
  const apps::AppProfile& app = apps::AppByName("x264");
  const double activity = app.Activity(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.SolveWithFeedback([&](std::size_t, double t) {
          return pm.TotalPower(activity, app.ceff22_nf, app.pind22, 1.11,
                               3.6, t);
        }));
  }
}
BENCHMARK(BM_FeedbackSolve);

}  // namespace

BENCHMARK_MAIN();
