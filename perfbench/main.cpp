// perfbench: the repo benchmark harness. One process runs one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <perfbench dir> --out-dir <dir>
//             [--heldout-seed <n>] [--tiny] [--perturb-reference <rel>]
//   perfbench --write-reference --data-dir <perfbench dir>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). Workload definitions and their reasons live in
// METRICS.md and BENCHMARK.json.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "telemetry/json.hpp"

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"jobs_per_s", "jobs/s"},
    {"jobs_per_s_1t", "jobs/s"}, {"first_row_p50_ms", "ms"},
    {"first_row_p95_ms", "ms"}, {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"runtime.spec.expand_ms", "ms"},
    {"runtime.model_cache.build_ms", "ms"},
    {"runtime.model_cache.misses", "count"},
    {"runtime.model_cache.mb", "MiB"},
    {"runtime.engine.threads_used", "count"},
    {"runtime.engine.chunks", "count"},
    {"runtime.engine.cohort_k_mean", "count"},
    {"runtime.engine.detached", "count"},
    {"runtime.engine.steals", "count"},
    {"runtime.engine.parallel_eff", "ratio"},
    {"runtime.engine.fixed_ms", "ms"},
    {"runtime.scenarios.job_ms_p50", "ms"},
    {"runtime.scenarios.job_ms_mean", "ms"},
    {"runtime.scenarios.cohort_ms_per_member", "ms"},
    {"runtime.scenarios.unattributed_frac", "ratio"},
    {"runtime.sink.csv_ms", "ms"},
    {"arch.platform_us", "us"},
    {"thermal.lu.factor_ms", "ms"},
    {"thermal.lu.factors_per_job", "count/job"},
    {"thermal.steady.solve_us", "us"},
    {"thermal.steady.solves_per_job", "count/job"},
    {"thermal.influence.build_ms", "ms"},
    {"thermal.fold.build_ms", "ms"},
    {"thermal.batch.member_step_us_k1", "us"},
    {"thermal.batch.member_step_us_k16", "us"},
    {"thermal.batch.gflop_s_k16", "GFLOP/s"},
    {"thermal.transient.step_us", "us"},
    {"thermal.transient.step_share", "ratio"},
    {"thermal.kernel.propagator_steps", "count/run"},
    {"thermal.kernel.hold_steps", "count/run"},
    {"thermal.kernel.lu_steps", "count/run"},
    {"core.level_search_ms", "ms"},
    {"core.control_us", "us"},
    {"core.estimate_tdp_ms", "ms"},
    {"core.estimate_thermal_ms", "ms"},
    {"service.submit_ms_p50", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.start_to_first_row_ms_p50.estimate", "ms"},
    {"service.start_to_first_row_ms_p50.boost_transient", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.rejects", "count"},
    {"net.healthz_rtt_ms_p50", "ms"},
    {"telemetry.overhead_frac", "ratio"},
    {"sim_s_per_s", "s/s"},
};

using WorkloadFn = Report (*)(const Ctx&);
struct WorkloadDef {
  const char* name;
  WorkloadFn fn;
};
// Probe order for per-layer metrics a workload does not exercise itself.
const WorkloadDef kWorkloads[] = {
    {"bt_sweep", RunBtSweep},
    {"estimate_sweep", RunEstimateSweep},
    {"chip_sim", RunChipSim},
    {"serve_mix", RunServeMix},
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <bt_sweep|estimate_sweep|serve_mix|chip_sim>\n"
               "                 --seed <n> | --heldout-seed <n>  --seconds <s> --trace <0|1>\n"
               "                 --data-dir <perfbench dir> [--out-dir <dir>] [--tiny]\n"
               "                 [--perturb-reference <relative>]\n"
               "       perfbench --write-reference --data-dir <perfbench dir>\n";
  std::exit(2);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Fills per-layer metrics the workload did not measure itself from
/// small traced runs of the workloads that exercise those layers.
void FillFromProbes(const Ctx& ctx, Report* rep) {
  for (const WorkloadDef& w : kWorkloads) {
    if (ctx.workload == w.name) continue;
    bool missing = false;
    for (const MetricDef& m : kPerLayer) missing |= rep->metrics.count(m.name) == 0;
    if (!missing) return;
    Ctx probe = ctx;
    probe.workload = w.name;
    probe.tiny = true;
    probe.perturb = 0.0;
    probe.seconds = 1.0;
    const Report got = w.fn(probe);
    rep->attempted += got.attempted;
    rep->failed += got.failed;
    for (const auto& [name, metric] : got.metrics)
      if (rep->metrics.count(name) == 0) {
        rep->metrics[name] = metric;
        rep->metrics[name].source = w.name;
      }
  }
}

/// The traced run's own spans: Chrome trace file, nesting check and the
/// self time per layer.
void WriteTrace(const Ctx& ctx, Report* rep) {
  const Tracer& tracer = Tracer::Get();
  std::string why;
  if (!tracer.CheckNesting(&why)) {
    std::cerr << "perfbench: span nesting broken: " << why << "\n";
    rep->checks_ok = false;
  }
  const std::string json = tracer.ChromeJson();
  std::size_t events = 0;
  if (!ds::telemetry::ValidateChromeTrace(json, &events, &why)) {
    std::cerr << "perfbench: invalid Chrome trace: " << why << "\n";
    rep->checks_ok = false;
  }
  const std::string path = ctx.out_dir + "/trace_" + ctx.workload + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << json;
  std::cerr << "perfbench: " << events << " spans -> " << path << "\n";
  std::cerr << "\nself time per layer (" << ctx.workload << ", traced run)\n";
  for (const auto& [layer, ms] : tracer.SelfMsByLayer())
    std::fprintf(stderr, "  %-10s %12.3f ms\n", layer.c_str(), ms);
}

void PrintTable(const Ctx& ctx, const Report& rep, const MetricDef* defs, std::size_t n) {
  std::cerr << "\n" << ctx.workload << " (seed " << ctx.seed << (ctx.heldout ? ", held-out" : "")
            << (ctx.trace ? ", traced" : "") << ")\n";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = rep.metrics.find(defs[i].name);
    if (it == rep.metrics.end()) continue;
    std::fprintf(stderr, "  %-50s %16.6g %-9s %s\n", defs[i].name, it->second.value,
                 defs[i].unit,
                 it->second.source == "own" ? "" : ("probe: " + it->second.source).c_str());
  }
  std::cerr << "  operations: " << rep.attempted << " attempted, " << rep.failed << " failed\n";
}

int Main(int argc, char** argv) {
  Ctx ctx;
  bool write_reference = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") ctx.workload = value();
    else if (arg == "--seed") { ctx.seed = std::stoull(value()); have_seed = true; }
    else if (arg == "--heldout-seed") { ctx.seed = std::stoull(value()); ctx.heldout = true; have_seed = true; }
    else if (arg == "--seconds") ctx.seconds = std::stod(value());
    else if (arg == "--trace") ctx.trace = value() == "1";
    else if (arg == "--data-dir") ctx.data_dir = value();
    else if (arg == "--out-dir") ctx.out_dir = value();
    else if (arg == "--tiny") ctx.tiny = true;
    else if (arg == "--perturb-reference") ctx.perturb = std::stod(value());
    else if (arg == "--write-reference") write_reference = true;
    else Usage("unknown argument " + arg);
  }
  if (ctx.data_dir.empty()) Usage("--data-dir is required");
  if (ctx.out_dir.empty()) ctx.out_dir = ".";
  ctx.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  if (write_reference) {
    WriteReferences(ctx.data_dir, ctx.threads);
    return 0;
  }
  if (!have_seed) Usage("--seed or --heldout-seed is required");
  if (!(ctx.seconds > 0.0)) Usage("--seconds must be positive");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (ctx.workload == w.name) def = &w;
  if (def == nullptr) Usage("unknown workload '" + ctx.workload + "'");

  Tracer::Get().set_enabled(false);
  Report rep = def->fn(ctx);
  const MetricDef* defs = ctx.trace ? kPerLayer : kEndToEnd;
  const std::size_t n = ctx.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (ctx.trace) {
    WriteTrace(ctx, &rep);
    Tracer::Get().set_enabled(false);
    FillFromProbes(ctx, &rep);
  }
  PrintTable(ctx, rep, defs, n);

  std::string metrics;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = rep.metrics.find(defs[i].name);
    if (it == rep.metrics.end()) {
      std::cerr << "perfbench: metric " << defs[i].name << " was not measured\n";
      return 1;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + defs[i].name +
               "\": {\"value\": " + Num(it->second.value) + ", \"unit\": \"" +
               defs[i].unit + "\"}";
  }
  const bool correct = rep.failed == 0 && rep.checks_ok && rep.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  // Blocks of 256 KiB and more are mapped on allocation and unmapped on
  // free, instead of glibc's default threshold that rises after the
  // first large free and leaves freed blocks in per-thread arenas. With
  // the default, peak RSS of identical bt_sweep runs ranged 41-57 MiB;
  // with this it tracks live data (22 MiB, steady) at unchanged jobs/s.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    return pb::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
