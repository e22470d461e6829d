// darksilicon -- command-line driver for the library.
//
// Subcommands:
//   info                               platforms, applications, and the
//                                      panel fold form this CPU runs
//   tsp <node> [--count m] [--mapping worst|spread]
//   estimate <node> <app> [--tdp W] [--thermal] [--threads n] [--freq f]
//            [--mapping contiguous|spread|checkerboard|densest]
//   map <node> --count m [--policy ...]   ASCII view of a core selection
//   boost <node> <app> --instances k [--cap W]
//   ntc <node> <app> [--instances k]
//   characterize [app]                 first-principles Eq.(1) constants
//   sim <node> [--duration s] [--rate r] [--seed n] [--fault-* ...]
//                                      closed-loop co-sim, fault injection
//   sweep <spec.json> [--threads n] [--out csv] [--json path]
//         [--checkpoint path] [--resume]
//                                      parallel scenario sweep
//   serve [--port p] [--max-clients n] [--queue-depth n]
//         [--journal-dir d]            persistent multi-tenant daemon
//   submit <spec.json> --port p        submit to a daemon + stream rows
//
// Nodes: 16nm | 11nm | 8nm (paper platforms: 100/198/361 cores).
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "core/ntc.hpp"
#include "core/tsp.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "service/sweep_service.hpp"
#include "sim/chip_sim.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_http.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/scoped.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "thermal/thermal_map.hpp"
#include "uarch/characterize.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/panel.hpp"
#include "util/table.hpp"

namespace {

using namespace ds;

int Usage() {
  std::cout <<
      "usage: darksilicon <command> [options]\n"
      "  info\n"
      "  tsp <node> [--count m] [--mapping worst|spread]\n"
      "  estimate <node> <app> [--tdp W] [--thermal] [--threads n]\n"
      "           [--freq f] [--mapping policy]\n"
      "  map <node> --count m [--policy policy]\n"
      "  boost <node> <app> --instances k [--cap W]\n"
      "  ntc <node> <app> [--instances k]\n"
      "  characterize [app]\n"
      "  sim <node> [--duration s] [--rate jobs/epoch] [--seed n]\n"
      "      [--threads n] [--metrics-out path] [--trace-out path]\n"
      "      [--trace-level off|decision|span|verbose]\n"
      "      [--fault-seed n] [--fault-log-csv path]\n"
      "      [--fault-sensor-dropout r] [--fault-sensor-nan r]\n"
      "      [--fault-sensor-stuck r] [--fault-sensor-drift r]\n"
      "      [--fault-sensor-noise sigma] [--fault-core-failstop r]\n"
      "      [--fault-core-transient r] [--fault-dvfs-stuck r]\n"
      "      [--fault-solver r] [--fault-max-failed-cores m]\n"
      "  sweep <spec.json> [--threads n] [--out csv] [--json path]\n"
      "      [--checkpoint path] [--resume] [--metrics-out path]\n"
      "      [--stop-after n] [--job-deadline-ms t] [--job-retries n]\n"
      "      [--retry-backoff-ms t] [--journal-sync none|batch|always]\n"
      "      [--cache-budget-mb m]\n"
      "      [--chaos-fail r] [--chaos-delay r] [--chaos-delay-ms t]\n"
      "      [--chaos-seed n] [--chaos-max-faulty-attempts k]\n"
      "      [--chaos-log-csv path]\n"
      "      [--events-out path] [--progress] [--heartbeat-ms t]\n"
      "      [--metrics-port p] [--summary-json path]\n"
      "      [--trace-out path] [--trace-level off|decision|span|verbose]\n"
      "  serve [--port p] [--max-clients n] [--queue-depth n]\n"
      "      [--per-client n] [--aging-ms t] [--threads n]\n"
      "      [--journal-dir d] [--cache-budget-mb m] [--max-body-kb n]\n"
      "      [--max-connections n] [--job-retries n] [--job-deadline-ms t]\n"
      "      [--journal-sync none|batch|always] [--events-out path]\n"
      "  submit <spec.json> --port p [--client name] [--out csv]\n"
      "      [--no-wait]\n"
      "nodes: 16nm 11nm 8nm; apps: x264 blackscholes bodytrack ferret\n"
      "canneal dedup swaptions; policies: contiguous spread checkerboard\n"
      "densest; fault rates are per control step (per core where\n"
      "applicable), 0 disables the class; --metrics-out / --trace-out\n"
      "enable the telemetry subsystem (--trace-out opens in Perfetto);\n"
      "chaos rates are per job attempt (transient failure / delay\n"
      "injection into the sweep executor); --events-out streams\n"
      "JSON-lines job-lifecycle events; --metrics-port serves live\n"
      "OpenMetrics on 127.0.0.1 at /metrics (+ /healthz), 0 = ephemeral;\n"
      "serve runs the persistent multi-tenant daemon (POST /v1/sweeps,\n"
      "GET /v1/sweeps/{id}/rows streams CSV byte-identical to batch\n"
      "sweep, DELETE cancels; --port 0 = ephemeral, printed on stderr);\n"
      "submit posts a spec and streams the rows until the sweep ends\n";
  return 2;
}

telemetry::TraceLevel TraceLevelByName(const std::string& name) {
  if (name == "off") return telemetry::TraceLevel::kOff;
  if (name == "decision") return telemetry::TraceLevel::kDecision;
  if (name == "span") return telemetry::TraceLevel::kSpan;
  if (name == "verbose") return telemetry::TraceLevel::kVerbose;
  throw std::invalid_argument("unknown trace level: " + name);
}

int CmdInfo() {
  util::Table t({"node", "cores", "die [mm]", "V_nom [V]", "f_nom [GHz]",
                 "core area [mm2]"});
  for (const power::TechNode node :
       {power::TechNode::N16, power::TechNode::N11, power::TechNode::N8}) {
    const arch::Platform plat = arch::Platform::PaperPlatform(node);
    t.Row()
        .Cell(plat.tech().name)
        .Cell(plat.num_cores())
        .Cell(util::FormatFixed(plat.floorplan().die_width_mm(), 1) + " x " +
              util::FormatFixed(plat.floorplan().die_height_mm(), 1))
        .Cell(plat.tech().nominal_vdd, 3)
        .Cell(plat.tech().nominal_freq, 1)
        .Cell(plat.tech().core_area_mm2, 2);
  }
  t.Print(std::cout);

  util::Table a({"app", "Ceff22 [nF]", "Pind22 [W]", "serial frac", "IPC",
                 "speedup(8)"});
  for (const apps::AppProfile& app : apps::ParsecSuite()) {
    a.Row()
        .Cell(app.name)
        .Cell(app.ceff22_nf, 2)
        .Cell(app.pind22, 2)
        .Cell(app.serial_fraction, 2)
        .Cell(app.ipc, 2)
        .Cell(app.Speedup(8), 2);
  }
  std::cout << "\n";
  a.Print(std::cout);
  std::cout << "\npanel fold: " << util::detail::PanelFoldForms()[0].name
            << "\n";
  return 0;
}

int CmdTsp(const util::ArgParser& args) {
  if (args.positionals().size() < 2) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);
  const core::Tsp tsp(plat);
  const std::string mapping = args.GetString("mapping", "worst");
  if (mapping != "worst" && mapping != "spread")
    throw std::invalid_argument("unknown tsp mapping '" + mapping +
                                "' (worst|spread)");
  const bool spread = mapping == "spread";
  const int count = args.GetInt("count", 0);
  auto budget = [&](std::size_t m) {
    return spread ? tsp.BestCase(m) : tsp.WorstCase(m);
  };
  if (count > 0) {
    std::cout << "TSP(" << count << ") = "
              << util::FormatFixed(budget(static_cast<std::size_t>(count)), 3)
              << " W/core (" << (spread ? "spread" : "worst-case")
              << " mapping)\n";
    return 0;
  }
  util::Table t({"active cores", "TSP [W/core]", "total [W]"});
  for (std::size_t m = plat.num_cores() / 10; m <= plat.num_cores();
       m += plat.num_cores() / 10) {
    const double b = budget(m);
    t.Row().Cell(m).Cell(b, 3).Cell(b * static_cast<double>(m), 1);
  }
  t.Print(std::cout);
  return 0;
}

int CmdEstimate(const util::ArgParser& args) {
  if (args.positionals().size() < 3) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);
  const apps::AppProfile& app = apps::AppByName(args.positionals()[2]);
  const core::DarkSiliconEstimator estimator(plat);
  const std::size_t threads =
      static_cast<std::size_t>(args.GetInt("threads", 8));
  const double freq =
      args.GetDouble("freq", plat.tech().nominal_freq);
  const std::size_t level = plat.ladder().LevelAtOrBelow(freq);
  const core::MappingPolicy policy =
      core::MappingPolicyByName(args.GetString("mapping", "contiguous"));

  core::Estimate e;
  if (args.Has("thermal")) {
    e = estimator.UnderTemperature(app, threads, level, policy);
    std::cout << "constraint: T_DTM = " << plat.tdtm_c() << " C\n";
  } else {
    const double tdp = args.GetDouble("tdp", 185.0);
    e = estimator.UnderPowerBudget(app, threads, level, tdp, policy);
    std::cout << "constraint: TDP = " << tdp << " W\n";
  }
  util::Table t({"active", "dark %", "instances", "power [W]", "peak T [C]",
                 "violation", "GIPS"});
  t.Row()
      .Cell(e.active_cores)
      .Cell(100.0 * e.dark_fraction, 1)
      .Cell(e.instances)
      .Cell(e.total_power_w, 1)
      .Cell(e.peak_temp_c, 1)
      .Cell(e.thermal_violation ? "YES" : "no")
      .Cell(e.total_gips, 1);
  t.Print(std::cout);
  return 0;
}

int CmdMap(const util::ArgParser& args) {
  if (args.positionals().size() < 2) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);
  const std::size_t count = static_cast<std::size_t>(
      args.GetInt("count", static_cast<int>(plat.num_cores() / 2)));
  const core::MappingPolicy policy =
      core::MappingPolicyByName(args.GetString("policy", "spread"));
  const auto set = core::SelectCores(plat, count, policy);
  const auto mask = core::ActiveMask(plat.num_cores(), set);
  for (std::size_t r = 0; r < plat.floorplan().rows(); ++r) {
    for (std::size_t c = 0; c < plat.floorplan().cols(); ++c)
      std::cout << (mask[plat.floorplan().IndexOf(r, c)] ? '#' : '.');
    std::cout << '\n';
  }
  const core::Tsp tsp(plat);
  std::cout << count << " cores, policy "
            << core::MappingPolicyName(policy) << ", TSP = "
            << util::FormatFixed(tsp.ForMapping(set), 3) << " W/core\n";
  return 0;
}

int CmdBoost(const util::ArgParser& args) {
  if (args.positionals().size() < 3) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);
  const apps::AppProfile& app = apps::AppByName(args.positionals()[2]);
  const std::size_t instances =
      static_cast<std::size_t>(args.GetInt("instances", 8));
  const double cap = args.GetDouble("cap", 500.0);
  const core::BoostingSimulator sim(plat, app, instances, 8);
  const core::BoostingSimulator::Comparison c =
      sim.Compare(plat.tdtm_c(), cap);
  if (!c.feasible) {
    std::cerr << "no thermally safe constant level\n";
    return 1;
  }
  const auto& qs = c.boost;
  util::Table t({"scheme", "f [GHz]", "GIPS", "avg P [W]", "peak P [W]"});
  t.Row()
      .Cell("constant")
      .Cell(plat.ladder()[c.level].freq, 1)
      .Cell(sim.GipsAtLevel(c.level), 1)
      .Cell(c.steady.total_power_w, 0)
      .Cell(c.steady.total_power_w, 0);
  t.Row()
      .Cell("boosting")
      .Cell(plat.ladder()[qs.base_level].freq, 1)
      .Cell(qs.avg_gips, 1)
      .Cell(qs.avg_power_w, 0)
      .Cell(qs.peak_power_w, 0);
  t.Print(std::cout);
  return 0;
}

int CmdNtc(const util::ArgParser& args) {
  if (args.positionals().size() < 3) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);
  const apps::AppProfile& app = apps::AppByName(args.positionals()[2]);
  const std::size_t instances =
      static_cast<std::size_t>(args.GetInt("instances", 12));
  const core::NtcAnalysis analysis(plat);
  const core::NtcComparison c = analysis.Compare(app, instances, {1.0, 8});
  util::Table t({"config", "f [GHz]", "Vdd [V]", "GIPS", "P [W]",
                 "energy [kJ]"});
  auto add = [&](const char* name, const core::RegionResult& r) {
    t.Row()
        .Cell(name)
        .Cell(r.freq, 2)
        .Cell(r.vdd, 2)
        .Cell(r.gips, 1)
        .Cell(r.power_w, 1)
        .Cell(r.energy_kj, 2);
  };
  add("NTC 8thr", c.ntc);
  add("STC 1thr", c.stc1);
  add("STC 2thr", c.stc2);
  t.Print(std::cout);
  return 0;
}

int CmdCharacterize(const util::ArgParser& args) {
  util::Table t({"app", "IPC", "Ceff22 [nF]", "Pind22 [W]", "L1 miss %",
                 "L2 MPKI", "branch miss %"});
  auto add = [&](const uarch::Characterization& c) {
    t.Row()
        .Cell(c.name)
        .Cell(c.ipc, 2)
        .Cell(c.ceff22_nf, 2)
        .Cell(c.pind22_w, 2)
        .Cell(100.0 * c.sim.l1_miss_rate, 1)
        .Cell(c.sim.mpki_l2, 1)
        .Cell(100.0 * c.sim.branch_mispredict_rate, 1);
  };
  if (args.positionals().size() >= 2) {
    add(uarch::Characterize(
        uarch::TraceParamsByName(args.positionals()[1])));
  } else {
    for (const auto& c : uarch::CharacterizeParsec()) add(c);
  }
  t.Print(std::cout);
  return 0;
}

int CmdSim(const util::ArgParser& args) {
  if (args.positionals().size() < 2) return Usage();
  const arch::Platform plat = arch::Platform::PaperPlatform(
      power::TechByName(args.positionals()[1]).node);

  sim::SimConfig cfg;
  cfg.duration_s = args.GetDouble("duration", 2.0);
  cfg.arrival_rate = args.GetDouble("rate", cfg.arrival_rate);
  cfg.threads_per_job =
      static_cast<std::size_t>(args.GetInt("threads", 8));
  cfg.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  faults::FaultConfig& f = cfg.faults;
  f.seed = static_cast<std::uint64_t>(args.GetInt("fault-seed", 42));
  f.sensor_dropout_rate = args.GetDouble("fault-sensor-dropout", 0.0);
  f.sensor_nan_rate = args.GetDouble("fault-sensor-nan", 0.0);
  f.sensor_stuck_rate = args.GetDouble("fault-sensor-stuck", 0.0);
  f.sensor_drift_rate = args.GetDouble("fault-sensor-drift", 0.0);
  f.sensor_noise_sigma_c = args.GetDouble("fault-sensor-noise", 0.0);
  f.core_failstop_rate = args.GetDouble("fault-core-failstop", 0.0);
  f.core_transient_rate = args.GetDouble("fault-core-transient", 0.0);
  f.dvfs_stuck_rate = args.GetDouble("fault-dvfs-stuck", 0.0);
  f.solver_fail_rate = args.GetDouble("fault-solver", 0.0);
  if (args.Has("fault-max-failed-cores"))
    f.max_failed_cores =
        static_cast<std::size_t>(args.GetInt("fault-max-failed-cores", 0));
  f.enabled = true;
  f.enabled = f.AnyFaultPossible();  // stay on the fault-free path if all 0

  // Telemetry is opt-in: any output flag switches it on for the run.
  const std::string metrics_path = args.GetString("metrics-out");
  const std::string trace_path = args.GetString("trace-out");
  if (!metrics_path.empty() || !trace_path.empty()) {
    telemetry::SetEnabled(true);
    telemetry::SetTraceLevel(
        TraceLevelByName(args.GetString("trace-level", "span")));
  }

  const telemetry::WallTimer wall;
  const sim::FullSimResult r = sim::ChipSimulator(plat, cfg).Run();
  const double wall_s = wall.Seconds();

  util::Table t({"metric", "value"});
  t.Row().Cell("avg GIPS").Cell(r.avg_gips, 1);
  t.Row().Cell("avg power [W]").Cell(r.avg_power_w, 1);
  t.Row().Cell("energy [J]").Cell(r.energy_j, 1);
  t.Row().Cell("max T [C]").Cell(r.max_temp_c, 1);
  t.Row().Cell("time > T_DTM [ms]").Cell(1e3 * r.time_above_tdtm_s, 1);
  t.Row().Cell("jobs arrived").Cell(r.jobs_arrived);
  t.Row().Cell("jobs completed").Cell(r.jobs_completed);
  if (f.enabled) {
    t.Row().Cell("safe-state [ms]").Cell(1e3 * r.safe_state_s, 1);
    t.Row().Cell("jobs requeued").Cell(r.jobs_requeued);
    t.Row().Cell("cores failed").Cell(r.cores_failed);
    t.Row().Cell("sensor substitutions").Cell(r.sensor_substitutions);
    t.Row().Cell("solver retries").Cell(r.solver_retries);
    t.Row()
        .Cell("faults injected")
        .Cell(r.fault_log.CountEvents(faults::FaultEventKind::kInjected));
    t.Row()
        .Cell("faults mitigated")
        .Cell(r.fault_log.CountEvents(faults::FaultEventKind::kMitigated));
  }
  t.Print(std::cout);

  const std::string log_path = args.GetString("fault-log-csv");
  if (!log_path.empty()) {
    r.fault_log.WriteCsv(log_path);
    std::cout << "fault log written to " << log_path << "\n";
  }

  telemetry::RunSummary summary;
  summary.title = "sim " + args.positionals()[1];
  summary.sim_time_s = cfg.duration_s;
  // Only telemetry-enabled runs report wall time: the default `sim`
  // output stays byte-identical across runs (fixed seeds everywhere).
  if (telemetry::Enabled()) summary.wall_time_s = wall_s;
  summary.epochs = r.trace.size();
  summary.control_steps = static_cast<std::size_t>(
      std::lround(cfg.duration_s / cfg.control_period_s));
  summary.jobs_arrived = r.jobs_arrived;
  summary.jobs_completed = r.jobs_completed;
  summary.jobs_requeued = r.jobs_requeued;
  summary.peak_temp_c = r.max_temp_c;
  summary.time_above_tdtm_s = r.time_above_tdtm_s;
  summary.avg_gips = r.avg_gips;
  summary.avg_power_w = r.avg_power_w;
  summary.sensor_fallbacks = r.sensor_substitutions;
  summary.solver_retries = r.solver_retries;
  summary.cores_failed = r.cores_failed;
  summary.safe_state_s = r.safe_state_s;
  summary.CollectTelemetry();
  std::cout << "\n";
  summary.Print(std::cout);

  if (!metrics_path.empty()) {
    telemetry::Registry().WriteCsv(metrics_path);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    telemetry::WriteChromeTrace(trace_path);
    std::cout << "trace written to " << trace_path
              << " (open in https://ui.perfetto.dev)\n";
  }
  return 0;
}

int CmdSweep(const util::ArgParser& args) {
  if (args.positionals().size() < 2) return Usage();

  // Telemetry is opt-in: any metrics/trace output (or the live
  // endpoint) switches the registry on for the run.
  const std::string metrics_path = args.GetString("metrics-out");
  const std::string trace_path = args.GetString("trace-out");
  const bool serve_metrics = args.Has("metrics-port");
  if (!metrics_path.empty() || !trace_path.empty() || serve_metrics) {
    telemetry::SetEnabled(true);
    telemetry::SetTraceLevel(
        TraceLevelByName(args.GetString("trace-level", "span")));
  }

  const runtime::SweepSpec spec =
      runtime::SweepSpec::FromJsonFile(args.positionals()[1]);

  runtime::SweepOptions opts;
  opts.threads = static_cast<std::size_t>(args.GetInt("threads", 0));
  opts.checkpoint_path = args.GetString("checkpoint");
  opts.resume = args.Has("resume");
  opts.stop_after_jobs =
      static_cast<std::size_t>(args.GetInt("stop-after", 0));
  opts.job_deadline_ms = args.GetDouble("job-deadline-ms", 0.0);
  opts.job_retries = static_cast<std::size_t>(args.GetInt("job-retries", 2));
  opts.retry_backoff_ms = args.GetDouble("retry-backoff-ms", 10.0);
  opts.journal_sync =
      runtime::JournalSyncByName(args.GetString("journal-sync", "batch"));
  opts.cache_budget_mb = args.GetDouble("cache-budget-mb", 0.0);
  opts.chaos.fail_rate = args.GetDouble("chaos-fail", 0.0);
  opts.chaos.delay_rate = args.GetDouble("chaos-delay", 0.0);
  opts.chaos.delay_ms = args.GetDouble("chaos-delay-ms", 50.0);
  opts.chaos.seed = static_cast<std::uint64_t>(args.GetInt("chaos-seed", 42));
  if (args.Has("chaos-max-faulty-attempts"))
    opts.chaos.max_faulty_attempts =
        static_cast<std::size_t>(args.GetInt("chaos-max-faulty-attempts", 1));
  opts.chaos.enabled =
      opts.chaos.fail_rate > 0.0 || opts.chaos.delay_rate > 0.0;
  if (args.Has("progress")) opts.progress_stream = &std::cerr;
  opts.heartbeat_ms = args.GetDouble("heartbeat-ms", 500.0);

  // The event bus outlives the ambient-pointer guard below
  // (declaration order), so the pointer is always uninstalled --
  // even on exception unwind -- before the bus itself is destroyed.
  const std::string events_path = args.GetString("events-out");
  std::unique_ptr<telemetry::EventBus> events;
  struct AmbientBusGuard {
    bool active = false;
    ~AmbientBusGuard() {
      if (active) telemetry::SetProcessEventBus(nullptr);
    }
  };
  AmbientBusGuard bus_guard;
  if (!events_path.empty()) {
    events = std::make_unique<telemetry::EventBus>(events_path);
    telemetry::SetProcessEventBus(events.get());
    bus_guard.active = true;
  }

  std::unique_ptr<telemetry::MetricsHttpServer> http;
  if (serve_metrics) {
    telemetry::MetricsHttpServer::Options ho;
    ho.port = static_cast<std::uint16_t>(args.GetInt("metrics-port", 0));
    http = std::make_unique<telemetry::MetricsHttpServer>(ho);
    std::cerr << "metrics endpoint: http://127.0.0.1:" << http->port()
              << "/metrics\n";
  }

  runtime::SweepEngine engine(spec, opts);
  const runtime::SweepOutcome out = engine.Run();
  const runtime::ResultSink sink(spec, spec.Jobs());

  const std::string csv_path = args.GetString("out");
  const std::string json_path = args.GetString("json");
  if (!csv_path.empty()) sink.WriteCsv(csv_path, out.results);
  if (!json_path.empty()) sink.WriteJsonRows(json_path, out.results);
  if (csv_path.empty() && json_path.empty())
    sink.WriteCsv(std::cout, out.results);

  const std::string chaos_log_path = args.GetString("chaos-log-csv");
  if (!chaos_log_path.empty()) out.chaos_log.WriteCsv(chaos_log_path);

  const runtime::SweepStats& s = out.stats;
  std::cerr << "sweep '" << spec.name() << "': " << s.jobs_total << " jobs ("
            << s.jobs_executed << " executed, " << s.jobs_resumed
            << " resumed, " << s.jobs_skipped << " skipped, " << s.jobs_failed
            << " failed) on " << s.threads_used << " threads in "
            << util::FormatFixed(s.wall_s, 2) << " s\n"
            << "model cache: " << s.cache_hits << " hits, " << s.cache_misses
            << " misses";
  if (s.cache_evictions > 0 || opts.cache_budget_mb > 0.0)
    std::cerr << ", " << s.cache_evictions << " evictions, "
              << util::FormatFixed(
                     static_cast<double>(s.cache_bytes) / (1024.0 * 1024.0), 2)
              << " MiB resident";
  std::cerr << "; steals: " << s.steals << "\n";
  if (s.batch_cohorts > 0 || s.batch_detached > 0)
    std::cerr << "batching: " << s.batch_cohorts << " cohorts over "
              << s.batch_cohort_members << " jobs (mean k "
              << util::FormatFixed(
                     static_cast<double>(s.batch_cohort_members) /
                         static_cast<double>(std::max<std::size_t>(
                             s.batch_cohorts, 1)),
                     1)
              << "), " << s.batch_detached << " detached\n";
  if (s.jobs_retried > 0 || s.jobs_timed_out > 0 || s.jobs_quarantined > 0 ||
      s.retries_total > 0)
    std::cerr << "resilience: " << s.retries_total << " retries over "
              << s.jobs_retried << " jobs, " << s.jobs_timed_out
              << " timed out, " << s.jobs_quarantined << " quarantined\n";
  if (s.journal_corrupt_records > 0 || s.journal_truncated_bytes > 0 ||
      s.journal_dedup_drops > 0)
    std::cerr << "journal recovery: " << s.journal_corrupt_records
              << " corrupt records skipped, " << s.journal_truncated_bytes
              << " torn bytes truncated, " << s.journal_dedup_drops
              << " duplicate records dropped\n";
  std::cerr << "contract violations: " << ds::contracts::ViolationCount()
            << "\n";
  for (const runtime::JobResult& r : out.results)
    if (!r.ok && r.error != "not executed")
      std::cerr << "job " << r.index
                << (r.quarantined ? " quarantined: " : " failed: ") << r.error
                << " (attempts: " << r.attempts << ")\n";

  if (!metrics_path.empty()) {
    telemetry::Registry().WriteCsv(metrics_path);
    std::cerr << "metrics written to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    telemetry::WriteChromeTrace(trace_path);
    std::cerr << "trace written to " << trace_path
              << " (open in https://ui.perfetto.dev)\n";
  }

  const std::string summary_path = args.GetString("summary-json");
  if (!summary_path.empty()) {
    std::ofstream f(summary_path);
    if (!f) throw std::runtime_error("cannot open " + summary_path);
    runtime::WriteSummaryJson(f, s);
    std::cerr << "summary written to " << summary_path << "\n";
  }

  if (http != nullptr) http->Stop();
  if (events != nullptr) {
    telemetry::SetProcessEventBus(nullptr);
    bus_guard.active = false;
    events->Close();
    const telemetry::EventBusStats es = events->stats();
    std::cerr << "events: " << es.written << " written, " << es.dropped
              << " dropped -> " << events_path << "\n";
  }
  return s.jobs_failed > 0 ? 1 : 0;
}

std::atomic<bool> g_serve_stop{false};

extern "C" void ServeSignalHandler(int) { g_serve_stop.store(true); }

int CmdServe(const util::ArgParser& args) {
  telemetry::SetEnabled(true);

  // Ambient event bus, same lifetime discipline as CmdSweep.
  const std::string events_path = args.GetString("events-out");
  std::unique_ptr<telemetry::EventBus> events;
  struct AmbientBusGuard {
    bool active = false;
    ~AmbientBusGuard() {
      if (active) telemetry::SetProcessEventBus(nullptr);
    }
  };
  AmbientBusGuard bus_guard;
  if (!events_path.empty()) {
    events = std::make_unique<telemetry::EventBus>(events_path);
    telemetry::SetProcessEventBus(events.get());
    bus_guard.active = true;
  }

  service::SweepService::Options so;
  so.engine_threads = static_cast<std::size_t>(args.GetInt("threads", 0));
  so.queue_depth = static_cast<std::size_t>(args.GetInt("queue-depth", 16));
  so.per_client = static_cast<std::size_t>(args.GetInt("per-client", 4));
  so.max_clients = static_cast<std::size_t>(args.GetInt("max-clients", 16));
  so.aging_ms = args.GetDouble("aging-ms", 2000.0);
  so.journal_dir = args.GetString("journal-dir");
  so.cache_budget_mb = args.GetDouble("cache-budget-mb", 0.0);
  so.job_retries = static_cast<std::size_t>(args.GetInt("job-retries", 2));
  so.job_deadline_ms = args.GetDouble("job-deadline-ms", 0.0);
  so.journal_sync =
      runtime::JournalSyncByName(args.GetString("journal-sync", "batch"));
  service::SweepService service(so);
  if (service.recovered() > 0)
    std::cerr << "recovered " << service.recovered()
              << " unfinished sweep(s) from " << so.journal_dir << "\n";

  net::HttpServer::Options ho;
  ho.port = static_cast<std::uint16_t>(args.GetInt("port", 0));
  ho.max_body_kb = static_cast<std::size_t>(args.GetInt("max-body-kb", 1024));
  ho.max_connections =
      static_cast<std::size_t>(args.GetInt("max-connections", 64));
  net::HttpServer server(service.HttpHandler(), ho);
  std::cerr << "darksilicon serve: http://127.0.0.1:" << server.port()
            << " (POST /v1/sweeps, GET /v1/sweeps/{id}/rows, /metrics)\n";

  g_serve_stop.store(false);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cerr << "darksilicon serve: shutting down\n";

  // Streams first, then the listener (HttpServer's shutdown contract).
  service.Stop();
  server.Stop();
  if (events != nullptr) {
    telemetry::SetProcessEventBus(nullptr);
    bus_guard.active = false;
    events->Close();
    const telemetry::EventBusStats es = events->stats();
    std::cerr << "events: " << es.written << " written, " << es.dropped
              << " dropped -> " << events_path << "\n";
  }
  return 0;
}

int CmdSubmit(const util::ArgParser& args) {
  if (args.positionals().size() < 2) return Usage();
  const int port = args.GetInt("port", 0);
  if (port <= 0 || port > 65535) {
    std::cerr << "error: submit requires --port <daemon port>\n";
    return 2;
  }

  std::ifstream in(args.positionals()[1], std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot open " + args.positionals()[1]);
  std::string spec_text((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

  net::FetchOptions post;
  post.headers.emplace_back("X-Client", args.GetString("client", "cli"));
  const net::ClientResponse admission =
      net::Fetch(static_cast<std::uint16_t>(port), "POST", "/v1/sweeps",
                 spec_text, post);
  if (admission.status_code != 202) {
    std::cerr << "submit rejected: " << admission.status_line << " "
              << admission.body;
    const std::string_view retry = admission.Header("retry-after");
    if (!retry.empty())
      std::cerr << "retry after " << retry << " s\n";
    return 1;
  }
  std::string id;
  const telemetry::JsonValue doc = telemetry::ParseJson(admission.body);
  if (const telemetry::JsonValue* v = doc.Find("id");
      v != nullptr && v->is_string())
    id = v->str;
  if (id.empty()) throw std::runtime_error("daemon returned no sweep id");
  std::cerr << "submitted " << id << "\n";
  if (args.Has("no-wait")) {
    std::cout << id << "\n";
    return 0;
  }

  const std::string out_path = args.GetString("out");
  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot open " + out_path);
    os = &file;
  }
  net::FetchOptions stream;
  stream.body_sink = [os](std::string_view chunk) {
    os->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  };
  const net::ClientResponse rows =
      net::Fetch(static_cast<std::uint16_t>(port), "GET",
                 "/v1/sweeps/" + id + "/rows", {}, stream);
  os->flush();
  if (rows.status_code != 200 || !os->good())
    throw std::runtime_error("row stream failed: " + rows.status_line);

  const net::ClientResponse status =
      net::Fetch(static_cast<std::uint16_t>(port), "GET",
                 "/v1/sweeps/" + id + "/status");
  std::string state = "unknown";
  if (status.status_code == 200) {
    const telemetry::JsonValue s = telemetry::ParseJson(status.body);
    if (const telemetry::JsonValue* v = s.Find("state");
        v != nullptr && v->is_string())
      state = v->str;
  }
  std::cerr << "sweep " << id << ": " << state;
  if (!out_path.empty()) std::cerr << ", rows -> " << out_path;
  std::cerr << "\n";
  return state == "done" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.positionals().empty()) return Usage();
  const std::string cmd = args.positionals()[0];
  try {
    if (cmd == "info") return CmdInfo();
    if (cmd == "tsp") return CmdTsp(args);
    if (cmd == "estimate") return CmdEstimate(args);
    if (cmd == "map") return CmdMap(args);
    if (cmd == "boost") return CmdBoost(args);
    if (cmd == "ntc") return CmdNtc(args);
    if (cmd == "characterize") return CmdCharacterize(args);
    if (cmd == "sim") return CmdSim(args);
    if (cmd == "sweep") return CmdSweep(args);
    if (cmd == "serve") return CmdServe(args);
    if (cmd == "submit") return CmdSubmit(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
