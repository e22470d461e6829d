// Micro-benchmarks (google-benchmark) for the numerical kernels behind
// every experiment, plus the closed-form-vs-bisection TSP ablation that
// DESIGN.md calls out: the closed form turns a thermal feasibility
// check from dozens of linear solves into one row scan.
//
// The main() is custom: before the google-benchmark run it executes a
// hand-timed A/B harness over the thermal step kernels -- the folded
// propagator (k = 1 panel lane) vs reference LU stepping, k-step
// power-hold vs explicit loops, blocked multi-RHS influence build vs
// per-column solves, and batched lockstep cohorts (BatchStepPropagator)
// vs k independent simulators at k in {1, 4, 16, 64} -- plus the wall
// time of shortened fig11-boosting / ext-online closed loops as trend
// numbers, and records them in BENCH_thermal.json (path override:
// DS_BENCH_THERMAL_JSON). CI runs this as a smoke step and archives the
// JSON, so a kernel regression shows up as a speedup ratio sliding
// toward 1, not as a vague "the sweep got slower".
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "thermal/batch_propagator.hpp"
#include "core/mapping.hpp"
#include "core/online_manager.hpp"
#include "core/tsp.hpp"
#include "telemetry/scoped.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/propagator.hpp"
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

// The step-kernel A/B pair: identical physics, one k = 1 panel pass
// over the folded propagator vs permuted LU triangular solve.
void BM_TransientStepPropagator(benchmark::State& state) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3);
  const std::vector<double> p(100, 2.5);
  for (auto _ : state) {
    sim.Step(p);
    benchmark::DoNotOptimize(sim.PeakDieTemp());
  }
}
BENCHMARK(BM_TransientStepPropagator);

void BM_TransientStepLu(benchmark::State& state) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3,
                                  thermal::StepKernel::kLu);
  const std::vector<double> p(100, 2.5);
  for (auto _ : state) {
    sim.Step(p);
    benchmark::DoNotOptimize(sim.PeakDieTemp());
  }
}
BENCHMARK(BM_TransientStepLu);

// k-step power hold: one memoized operator application per iteration,
// advancing range(0) simulated steps.
void BM_StepHold(benchmark::State& state) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3);
  const std::vector<double> p(100, 2.5);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  sim.StepHold(p, k);  // build + memoize outside the timing
  for (auto _ : state) {
    sim.StepHold(p, k);
    benchmark::DoNotOptimize(sim.PeakDieTemp());
  }
}
BENCHMARK(BM_StepHold)->Arg(10)->Arg(100)->Arg(1000);

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

// ------------------------------------------------- speedup harness

bool FastMode() {
  const char* v = std::getenv("DS_BENCH_FAST");
  return v != nullptr && *v != '\0';
}

struct ThermalReport {
  double step_us_propagator = 0.0;
  double step_us_lu = 0.0;
  double hold_us_per_step = 0.0;
  double influence_ms_solve_many = 0.0;
  double influence_ms_per_column = 0.0;
  double fig11_wall_s = 0.0;
  double online_wall_s = 0.0;
  // Batched lockstep stepping (BatchStepPropagator) vs k independent
  // simulators, per member-step, at each measured cohort width.
  struct BatchPoint {
    std::size_t k = 0;
    double scalar_us_per_member_step = 0.0;
    double batch_us_per_member_step = 0.0;
  };
  std::vector<BatchPoint> batch;
};

/// Per-step cost of `kernel` on the 100-core paper platform, in
/// microseconds (best of three passes; steady powers).
double MeasureStepUs(thermal::StepKernel kernel, std::size_t steps) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3, kernel);
  const std::vector<double> p(100, 2.5);
  sim.Step(p);  // touch everything once
  double best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    const telemetry::WallTimer timer;
    for (std::size_t i = 0; i < steps; ++i) sim.Step(p);
    best = std::min(best,
                    1e6 * timer.Seconds() / static_cast<double>(steps));
  }
  return best;
}

double MeasureHoldUsPerStep(std::size_t k, std::size_t reps) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3);
  const std::vector<double> p(100, 2.5);
  sim.StepHold(p, k);  // memoize the operator
  const telemetry::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) sim.StepHold(p, k);
  return 1e6 * timer.Seconds() / static_cast<double>(reps * k);
}

/// Aggregate per-member-step cost of k INDEPENDENT simulators (each a
/// k = 1 panel lane over its own folded propagator) advancing in a
/// round-robin -- the scalar baseline a cohort replaces. Microseconds
/// per member-step.
double MeasureScalarAggregateUs(std::size_t k, std::size_t steps) {
  std::vector<thermal::TransientSimulator> sims;
  sims.reserve(k);
  for (std::size_t j = 0; j < k; ++j)
    sims.emplace_back(Plat16().thermal_model(), 1e-3);
  const std::vector<double> p(100, 2.5);
  for (auto& s : sims) s.Step(p);  // touch everything once
  const telemetry::WallTimer timer;
  for (std::size_t i = 0; i < steps; ++i)
    for (auto& s : sims) s.Step(p);
  return 1e6 * timer.Seconds() / static_cast<double>(steps * k);
}

/// Per-member-step cost of one BatchStepPropagator advancing k members
/// in lockstep (one panel pass over M_state / M_in per step).
double MeasureBatchUs(std::size_t k, std::size_t steps) {
  const auto prop =
      Plat16().propagators()->For(Plat16().thermal_model(), 1e-3);
  thermal::BatchStepPropagator batch(prop, k);
  const std::vector<double> state(prop->num_nodes(), 45.0);
  const std::vector<double> p(100, 2.5);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t h = batch.AddMember(state);
    batch.SetPowers(h, p);
  }
  batch.Step();  // touch everything once
  const telemetry::WallTimer timer;
  for (std::size_t i = 0; i < steps; ++i) batch.Step();
  return 1e6 * timer.Seconds() / static_cast<double>(steps * k);
}

double MeasureInfluenceMs(bool solve_many, std::size_t reps) {
  const thermal::RcModel& model = Plat16().thermal_model();
  const util::LuFactorization lu(model.conductance());
  const std::size_t n = model.num_cores();
  const telemetry::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    if (solve_many) {
      util::Matrix rhs(model.num_nodes(), n);
      for (std::size_t j = 0; j < n; ++j) rhs(model.DieNode(j), j) = 1.0;
      lu.SolveMany(&rhs);
      benchmark::DoNotOptimize(rhs.data());
    } else {
      double sink = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> rhs(model.num_nodes(), 0.0);
        rhs[model.DieNode(j)] = 1.0;
        sink += lu.Solve(rhs)[0];
      }
      benchmark::DoNotOptimize(sink);
    }
  }
  return 1e3 * timer.Seconds() / static_cast<double>(reps);
}

/// Shortened fig11-style boosting closed loop (fresh platform per run
/// so every pass pays the same fold).
double MeasureFig11WallS(double duration_s) {
  arch::Platform plat = arch::Platform::PaperPlatform(power::TechNode::N16);
  const apps::AppProfile& app = apps::AppByName("x264");
  const core::BoostingSimulator sim(plat, app, 12, 8);
  std::size_t const_level = 0;
  if (!sim.MaxSafeConstantLevel(500.0, &const_level)) return 0.0;
  const telemetry::WallTimer timer;
  const core::BoostTrace boost =
      sim.RunBoosting(const_level, plat.tdtm_c(), 500.0, duration_s);
  benchmark::DoNotOptimize(boost.avg_gips);
  return timer.Seconds();
}

/// Shortened ext-online-style run (thermal-safe admission, load 1.0).
double MeasureOnlineWallS(std::size_t epochs) {
  arch::Platform plat = arch::Platform::PaperPlatform(power::TechNode::N16);
  core::OnlineConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.seed = 7;
  const core::OnlineManager manager(plat, core::AdmissionPolicy::kThermalSafe,
                                    cfg);
  const telemetry::WallTimer timer;
  const core::OnlineResult r = manager.Run(epochs);
  benchmark::DoNotOptimize(r.avg_gips);
  return timer.Seconds();
}

void WriteThermalReport(const ThermalReport& r) {
  const char* env = std::getenv("DS_BENCH_THERMAL_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_thermal.json";
  const auto ratio = [](double slow, double fast_v) {
    return fast_v > 0.0 ? slow / fast_v : 0.0;
  };
#ifdef DS_GIT_DESCRIBE
  const char* git = DS_GIT_DESCRIBE;
#else
  const char* git = "unknown";
#endif
  char body[1024];
  std::snprintf(
      body, sizeof(body),
      "{\n"
      "  \"schema_version\": 3,\n"
      "  \"git\": \"%s\",\n"
      "  \"step_us_propagator\": %.4f,\n"
      "  \"step_us_lu\": %.4f,\n"
      "  \"step_speedup\": %.3f,\n"
      "  \"hold_us_per_step\": %.4f,\n"
      "  \"hold_speedup_vs_step_loop\": %.3f,\n"
      "  \"influence_ms_solve_many\": %.4f,\n"
      "  \"influence_ms_per_column\": %.4f,\n"
      "  \"influence_speedup\": %.3f,\n"
      "  \"fig11_wall_s\": %.4f,\n"
      "  \"online_wall_s\": %.4f",
      git, r.step_us_propagator, r.step_us_lu,
      ratio(r.step_us_lu, r.step_us_propagator), r.hold_us_per_step,
      ratio(r.step_us_propagator, r.hold_us_per_step),
      r.influence_ms_solve_many, r.influence_ms_per_column,
      ratio(r.influence_ms_per_column, r.influence_ms_solve_many),
      r.fig11_wall_s, r.online_wall_s);
  std::string doc(body);
  for (const ThermalReport::BatchPoint& pt : r.batch) {
    char extra[256];
    std::snprintf(
        extra, sizeof(extra),
        ",\n"
        "  \"batch_scalar_us_k%zu\": %.4f,\n"
        "  \"batch_us_k%zu\": %.4f,\n"
        "  \"batch_k%zu_speedup\": %.3f",
        pt.k, pt.scalar_us_per_member_step, pt.k,
        pt.batch_us_per_member_step, pt.k,
        ratio(pt.scalar_us_per_member_step, pt.batch_us_per_member_step));
    doc += extra;
  }
  doc += "\n}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc;
  std::cout << "[thermal kernels] report written to " << path << "\n"
            << doc;
}

/// Runs the hand-timed A/B harness and returns false when a gated
/// speedup ratio regresses. Gates:
///   batch_k16      >= 3.0   -- a 16-member lockstep cohort must beat
///                              16 independent simulators by 3x per
///                              member-step; this is the headline win
///                              the batched scheduler exists for.
///   batch_k1       >= 0.95  -- the degenerate 1-member cohort must
///                              not lose to a simulator step beyond
///                              measurement noise (same kernel, same
///                              memory traffic).
/// The closed-loop wall times are trend numbers, not gates.
bool RunThermalHarness() {
  ThermalReport r;
  const std::size_t steps = FastMode() ? 500 : 2000;
  r.step_us_propagator = MeasureStepUs(thermal::StepKernel::kAuto, steps);
  r.step_us_lu = MeasureStepUs(thermal::StepKernel::kLu, steps);
  r.hold_us_per_step = MeasureHoldUsPerStep(1000, FastMode() ? 20 : 100);
  r.influence_ms_solve_many =
      MeasureInfluenceMs(/*solve_many=*/true, FastMode() ? 5 : 20);
  r.influence_ms_per_column =
      MeasureInfluenceMs(/*solve_many=*/false, FastMode() ? 5 : 20);

  // End-to-end closed loops, best-of-3.
  const double fig11_s = FastMode() ? 1.0 : 2.0;
  const std::size_t online_epochs = FastMode() ? 20 : 40;
  r.fig11_wall_s = 1e300;
  r.online_wall_s = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    r.fig11_wall_s = std::min(r.fig11_wall_s, MeasureFig11WallS(fig11_s));
    r.online_wall_s =
        std::min(r.online_wall_s, MeasureOnlineWallS(online_epochs));
  }

  // Batched lockstep A/B: k independent simulators vs one
  // BatchStepPropagator cohort of width k, interleaved best-of-3, cost
  // reported per member-step. The step count shrinks with k so every
  // (k, side, pass) cell does a comparable number of member-steps.
  for (const std::size_t kv : {std::size_t{1}, std::size_t{4},
                               std::size_t{16}, std::size_t{64}}) {
    ThermalReport::BatchPoint pt;
    pt.k = kv;
    pt.scalar_us_per_member_step = 1e300;
    pt.batch_us_per_member_step = 1e300;
    r.batch.push_back(pt);
  }
  // Best-of-5 (the other harness sections use 3): both sides of the
  // small-k points are memory-bound, so a background-load burst that
  // outlives one pass would otherwise decide the gate.
  const std::size_t member_steps = FastMode() ? 3200 : 12800;
  for (int pass = 0; pass < 5; ++pass) {
    for (ThermalReport::BatchPoint& pt : r.batch) {
      const std::size_t bsteps =
          std::max<std::size_t>(50, member_steps / pt.k);
      pt.scalar_us_per_member_step =
          std::min(pt.scalar_us_per_member_step,
                   MeasureScalarAggregateUs(pt.k, bsteps));
      pt.batch_us_per_member_step =
          std::min(pt.batch_us_per_member_step, MeasureBatchUs(pt.k, bsteps));
    }
  }

  WriteThermalReport(r);

  bool ok = true;
  const auto gate = [&](const char* name, double slow, double fast_v,
                        double floor) {
    const double speedup = fast_v > 0.0 ? slow / fast_v : 0.0;
    if (speedup >= floor) return;
    std::cout << "[thermal kernels] GATE FAILED: " << name << " speedup "
              << speedup << " < " << floor << "\n";
    ok = false;
  };
  for (const ThermalReport::BatchPoint& pt : r.batch) {
    if (pt.k == 16)
      gate("batch_k16", pt.scalar_us_per_member_step,
           pt.batch_us_per_member_step, 3.0);
    if (pt.k == 1)
      gate("batch_k1", pt.scalar_us_per_member_step,
           pt.batch_us_per_member_step, 0.95);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = RunThermalHarness();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gates_ok ? 0 : 1;
}
