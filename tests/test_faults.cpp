// Fault-injection subsystem and graceful-degradation hardening:
// deterministic fault traces, zero-cost-when-off, the sensor-dropout
// safe-state path, fail-stop job migration, the perturbed-pivot solver
// retry, and the new API-boundary input validation.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "arch/platform.hpp"
#include "core/dtm.hpp"
#include "core/online_manager.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sensor_bus.hpp"
#include "sim/chip_sim.hpp"
#include "thermal/transient.hpp"
#include "util/csv.hpp"
#include "util/lu.hpp"
#include "util/matrix.hpp"

namespace ds {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

sim::SimConfig QuickSim(double duration = 1.0, double rate = 1.0) {
  sim::SimConfig cfg;
  cfg.duration_s = duration;
  cfg.arrival_rate = rate;
  cfg.seed = 3;
  return cfg;
}

bool TraceIsFinite(const sim::FullSimResult& r) {
  for (const sim::SimSnapshot& s : r.trace) {
    if (!std::isfinite(s.gips) || !std::isfinite(s.power_w) ||
        !std::isfinite(s.peak_temp_c) || !std::isfinite(s.freq_ghz))
      return false;
  }
  return std::isfinite(r.avg_gips) && std::isfinite(r.energy_j) &&
         std::isfinite(r.max_temp_c);
}

// ---------------------------------------------------------------- config

TEST(FaultConfig, ValidatesRatesAndDurations) {
  faults::FaultConfig cfg;
  cfg.sensor_dropout_rate = 1.5;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = {};
  cfg.core_failstop_rate = -0.1;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = {};
  cfg.dropout_duration_s = 0.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = {};
  cfg.sensor_noise_sigma_c = std::nan("");
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.Validate());
  EXPECT_FALSE(cfg.AnyFaultPossible());
  cfg.enabled = true;
  EXPECT_FALSE(cfg.AnyFaultPossible());
  cfg.sensor_dropout_rate = 0.1;
  EXPECT_TRUE(cfg.AnyFaultPossible());
}

TEST(SimConfigValidation, RejectsDegenerateInputs) {
  sim::SimConfig cfg;
  cfg.duration_s = -1.0;
  EXPECT_THROW(sim::ChipSimulator(Plat16(), cfg), std::invalid_argument);
  cfg = {};
  cfg.control_period_s = 0.0;
  EXPECT_THROW(sim::ChipSimulator(Plat16(), cfg), std::invalid_argument);
  cfg = {};
  cfg.arrival_rate = std::nan("");
  EXPECT_THROW(sim::ChipSimulator(Plat16(), cfg), std::invalid_argument);
  cfg = {};
  cfg.threads_per_job = 0;
  EXPECT_THROW(sim::ChipSimulator(Plat16(), cfg), std::invalid_argument);
  cfg = {};
  cfg.min_job_s = 2.0;
  cfg.max_job_s = 1.0;
  EXPECT_THROW(sim::ChipSimulator(Plat16(), cfg), std::invalid_argument);
}

TEST(OnlineConfigValidation, RejectsDegenerateInputs) {
  core::OnlineConfig cfg;
  cfg.arrival_rate = -1.0;
  EXPECT_THROW(
      core::OnlineManager(Plat16(), core::AdmissionPolicy::kThermalSafe, cfg),
      std::invalid_argument);
  cfg = {};
  cfg.min_duration = 10;
  cfg.max_duration = 5;
  EXPECT_THROW(
      core::OnlineManager(Plat16(), core::AdmissionPolicy::kThermalSafe, cfg),
      std::invalid_argument);
  cfg = {};
  cfg.tdp_w = 0.0;
  EXPECT_THROW(
      core::OnlineManager(Plat16(), core::AdmissionPolicy::kTdpBudget, cfg),
      std::invalid_argument);
}

TEST(ThermalGuards, StepRejectsNanPower) {
  thermal::TransientSimulator sim(Plat16().thermal_model(), 1e-3);
  std::vector<double> p(Plat16().num_cores(), 1.0);
  p[3] = std::nan("");
  EXPECT_THROW(sim.Step(p), std::invalid_argument);
}

// ------------------------------------------------------------- lu retry

TEST(SolverRetry, PerturbedPivotingSolvesSingularSystem) {
  util::Matrix a(2, 2);  // rank 1: plain factorization must refuse
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_THROW(util::LuFactorization{a}, util::SolverError);
  const util::LuFactorization lu(a, 1e-10);
  const std::vector<double> x = lu.Solve(std::vector<double>{2.0, 2.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
}

TEST(SolverRetry, RobustSteadyInitMatchesPlainWhenHealthy) {
  thermal::TransientSimulator plain(Plat16().thermal_model(), 1e-3);
  thermal::TransientSimulator robust(Plat16().thermal_model(), 1e-3);
  std::vector<double> p(Plat16().num_cores(), 2.0);
  plain.InitializeSteadyState(p);
  EXPECT_FALSE(robust.InitializeSteadyStateRobust(p, Plat16().solver()));
  const std::vector<double> a = plain.DieTemps();
  const std::vector<double> b = robust.DieTemps();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(SolverRetry, InjectedFailureTakesRetryPathWithCloseResult) {
  thermal::TransientSimulator plain(Plat16().thermal_model(), 1e-3);
  thermal::TransientSimulator retried(Plat16().thermal_model(), 1e-3);
  std::vector<double> p(Plat16().num_cores(), 2.0);
  plain.InitializeSteadyState(p);
  EXPECT_TRUE(retried.InitializeSteadyStateRobust(p, Plat16().solver(),
                                                  /*inject_failure=*/true));
  const std::vector<double> a = plain.DieTemps();
  const std::vector<double> b = retried.DieTemps();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

// ----------------------------------------------------------- sensor bus

TEST(SensorBus, PassThroughWithoutInjector) {
  faults::SensorBus bus(4, 45.0);
  const std::vector<double> truth = {50.0, 51.5, 49.0, 60.25};
  const std::vector<double>& sensed = bus.Sample(0.0, truth);
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_DOUBLE_EQ(sensed[i], truth[i]);
  EXPECT_FALSE(bus.InSafeState());
  EXPECT_EQ(bus.substitutions(), 0u);
}

TEST(SensorBus, PolicyValidation) {
  faults::SensorBusPolicy policy;
  policy.ewma_alpha = 0.0;
  EXPECT_THROW(faults::SensorBus(4, 45.0, policy), std::invalid_argument);
  policy = {};
  policy.min_plausible_c = 200.0;
  EXPECT_THROW(faults::SensorBus(4, 45.0, policy), std::invalid_argument);
  policy = {};
  policy.watchdog_threshold = 0;
  EXPECT_THROW(faults::SensorBus(4, 45.0, policy), std::invalid_argument);
}

TEST(SensorBus, NanReadingsAreSubstitutedAndWatchdogTrips) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.sensor_nan_rate = 1.0;  // every sensor, every step
  faults::FaultInjector injector(cfg, 2);
  faults::SensorBusPolicy policy;
  policy.watchdog_threshold = 3;
  faults::SensorBus bus(2, 45.0, policy);
  bus.AttachInjector(&injector);
  const std::vector<double> truth = {50.0, 52.0};
  for (int s = 0; s < 5; ++s) {
    injector.BeginStep(1e-3 * s, 1e-3);
    const std::vector<double>& sensed = bus.Sample(1e-3 * s, truth);
    EXPECT_TRUE(std::isfinite(sensed[0]));
    EXPECT_TRUE(std::isfinite(sensed[1]));
  }
  EXPECT_TRUE(bus.InSafeState());
  EXPECT_EQ(bus.substitutions(), 10u);
  EXPECT_TRUE(injector.log().EveryInjectionMitigated());
}

// ------------------------------------------------------------ fault log

TEST(FaultLog, CsvDumpWritesOneRowPerEvent) {
  faults::FaultLog log;
  log.Record(0.1, faults::FaultEventKind::kInjected,
             faults::FaultKind::kSensorDropout, 7, 0.0, "test");
  log.Record(0.2, faults::FaultEventKind::kMitigated,
             faults::FaultKind::kSensorDropout, 7, 51.0, "sub");
  const std::string path = "test_fault_log_dump.csv";
  log.WriteCsv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  for (int ch; (ch = std::fgetc(f)) != EOF;)
    if (ch == '\n') ++lines;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 3);  // header + 2 events
  EXPECT_TRUE(log.EveryInjectionMitigated());
}

TEST(FaultLog, UnmitigatedInjectionDetected) {
  faults::FaultLog log;
  log.Record(0.1, faults::FaultEventKind::kInjected,
             faults::FaultKind::kCoreFailStop, 3, 0.0, "dead");
  EXPECT_FALSE(log.EveryInjectionMitigated());
  log.Record(0.1, faults::FaultEventKind::kMitigated,
             faults::FaultKind::kCoreFailStop, 3, 0.0, "migrated");
  EXPECT_TRUE(log.EveryInjectionMitigated());
}

TEST(CsvWriter, RejectsColumnMismatchAndBadPath) {
  EXPECT_THROW(util::CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
  util::CsvWriter csv("test_csv_writer.csv", {"a", "b"});
  EXPECT_THROW(csv.WriteRow(std::vector<double>{1.0}),
               std::invalid_argument);
  csv.WriteRow(std::vector<double>{1.0, 2.0});
  csv.Close();
  std::remove("test_csv_writer.csv");
}

// ------------------------------------------------- chip sim under fault

TEST(ChipSimFaults, SameSeedSameTraceAndResult) {
  sim::SimConfig cfg = QuickSim(1.5, 1.5);
  cfg.faults.enabled = true;
  cfg.faults.sensor_dropout_rate = 2e-4;
  cfg.faults.core_failstop_rate = 2e-5;
  cfg.faults.dvfs_stuck_rate = 1e-3;
  cfg.faults.seed = 11;
  const sim::ChipSimulator sim(Plat16(), cfg);
  const sim::FullSimResult a = sim.Run();
  const sim::FullSimResult b = sim.Run();
  EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_DOUBLE_EQ(a.max_temp_c, b.max_temp_c);
  EXPECT_EQ(a.jobs_requeued, b.jobs_requeued);
  ASSERT_EQ(a.fault_log.events().size(), b.fault_log.events().size());
  for (std::size_t i = 0; i < a.fault_log.events().size(); ++i) {
    const faults::FaultEvent& ea = a.fault_log.events()[i];
    const faults::FaultEvent& eb = b.fault_log.events()[i];
    EXPECT_DOUBLE_EQ(ea.time_s, eb.time_s);
    EXPECT_EQ(ea.event, eb.event);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.core, eb.core);
  }
}

TEST(ChipSimFaults, EnabledButZeroRatesIsBitIdentical) {
  const sim::SimConfig off = QuickSim(1.0, 1.0);
  sim::SimConfig armed = off;
  armed.faults.enabled = true;  // all rates zero: no fault can fire
  const sim::FullSimResult a = sim::ChipSimulator(Plat16(), off).Run();
  const sim::FullSimResult b = sim::ChipSimulator(Plat16(), armed).Run();
  EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_DOUBLE_EQ(a.max_temp_c, b.max_temp_c);
  EXPECT_DOUBLE_EQ(a.time_above_tdtm_s, b.time_above_tdtm_s);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].peak_temp_c, b.trace[i].peak_temp_c);
    EXPECT_DOUBLE_EQ(a.trace[i].gips, b.trace[i].gips);
    EXPECT_DOUBLE_EQ(a.trace[i].freq_ghz, b.trace[i].freq_ghz);
  }
  EXPECT_TRUE(b.fault_log.empty());
  EXPECT_EQ(b.sensor_substitutions, 0u);
  EXPECT_DOUBLE_EQ(b.safe_state_s, 0.0);
}

TEST(ChipSimFaults, SensorDropoutStaysBelowCriticalViaSafeState) {
  sim::SimConfig cfg = QuickSim(2.0, 2.0);  // heavy load, boost armed
  cfg.faults.enabled = true;
  cfg.faults.sensor_dropout_rate = 3e-4;
  cfg.faults.dropout_duration_s = 0.05;
  cfg.faults.seed = 7;
  const sim::FullSimResult r = sim::ChipSimulator(Plat16(), cfg).Run();
  EXPECT_TRUE(TraceIsFinite(r));
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 1.0);
  EXPECT_GT(r.sensor_substitutions, 0u);
  EXPECT_GT(r.safe_state_s, 0.0);  // watchdog engaged at least once
  EXPECT_GT(r.fault_log.CountInjected(faults::FaultKind::kSensorDropout), 0u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(ChipSimFaults, FailStopCoresCompleteAllAdmittedJobs) {
  sim::SimConfig cfg;
  cfg.duration_s = 4.0;
  cfg.arrival_rate = 0.0;  // exactly the initial burst
  cfg.initial_jobs = 3;
  cfg.min_job_s = 0.5;
  cfg.max_job_s = 1.0;
  cfg.seed = 5;
  cfg.faults.enabled = true;
  cfg.faults.core_failstop_rate = 3e-4;
  cfg.faults.max_failed_cores = 25;
  cfg.faults.max_injection_time_s = 2.0;  // leave time to re-place + finish
  const sim::FullSimResult r = sim::ChipSimulator(Plat16(), cfg).Run();
  EXPECT_EQ(r.jobs_arrived, 3u);
  EXPECT_EQ(r.jobs_completed, 3u);  // every admitted job survives migration
  EXPECT_GT(r.cores_failed, 0u);
  EXPECT_GT(r.jobs_requeued, 0u);
  EXPECT_GT(r.fault_log.CountInjected(faults::FaultKind::kCoreFailStop), 0u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  EXPECT_TRUE(TraceIsFinite(r));
}

TEST(ChipSimFaults, TransientOutagesRecover) {
  sim::SimConfig cfg = QuickSim(2.5, 1.0);
  cfg.faults.enabled = true;
  cfg.faults.core_transient_rate = 1e-4;
  cfg.faults.transient_duration_s = 0.2;
  cfg.faults.max_injection_time_s = 1.5;
  const sim::FullSimResult r = sim::ChipSimulator(Plat16(), cfg).Run();
  EXPECT_GT(r.fault_log.CountInjected(faults::FaultKind::kCoreTransient), 0u);
  EXPECT_EQ(r.cores_failed, 0u);  // all outages ended before the run did
  EXPECT_TRUE(TraceIsFinite(r));
}

TEST(ChipSimFaults, StuckActuatorIsLoggedAndSurvivable) {
  sim::SimConfig cfg = QuickSim(2.0, 2.0);
  cfg.faults.enabled = true;
  cfg.faults.dvfs_stuck_rate = 2e-3;
  cfg.faults.dvfs_stuck_duration_s = 0.05;
  const sim::FullSimResult r = sim::ChipSimulator(Plat16(), cfg).Run();
  EXPECT_GT(r.fault_log.CountInjected(faults::FaultKind::kDvfsStuck), 0u);
  EXPECT_TRUE(TraceIsFinite(r));
  // A stuck actuator can overshoot briefly; the margin is bounded by
  // the stuck duration, not unbounded runaway.
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 5.0);
}

TEST(ChipSimFaults, InjectedSolverFailureRetriesWithPerturbedPivoting) {
  sim::SimConfig cfg = QuickSim(0.5, 1.0);
  cfg.faults.enabled = true;
  cfg.faults.solver_fail_rate = 1.0;
  const sim::FullSimResult r = sim::ChipSimulator(Plat16(), cfg).Run();
  EXPECT_EQ(r.solver_retries, 1u);  // the single warm-start solve
  EXPECT_EQ(r.fault_log.CountInjected(faults::FaultKind::kSolverNonConvergence),
            1u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  EXPECT_TRUE(TraceIsFinite(r));
  EXPECT_GT(r.avg_gips, 0.0);
}

// ------------------------------------------------------ dtm under fault

TEST(DtmFaults, SensorDropoutKeepsTraceFiniteAndMitigated) {
  const core::DtmSimulator sim(Plat16(), apps::AppByName("x264"), 6, 8);
  core::DtmRunOptions options;
  options.faults.enabled = true;
  options.faults.sensor_dropout_rate = 5e-4;
  options.faults.dropout_duration_s = 0.02;
  const core::DtmResult r = sim.Run(core::DtmPolicy::kThrottleGlobal,
                                    Plat16().ladder().NominalLevel(), 1.5,
                                    options);
  for (const double t : r.peak_temp_c) EXPECT_TRUE(std::isfinite(t));
  for (const double g : r.gips) EXPECT_TRUE(std::isfinite(g));
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 1.0);
  EXPECT_GT(r.sensor_substitutions, 0u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  // Same options, same seed: identical result.
  const core::DtmResult r2 = sim.Run(core::DtmPolicy::kThrottleGlobal,
                                     Plat16().ladder().NominalLevel(), 1.5,
                                     options);
  EXPECT_DOUBLE_EQ(r.avg_gips, r2.avg_gips);
  EXPECT_EQ(r.fault_log.events().size(), r2.fault_log.events().size());
}

TEST(DtmFaults, DisabledFaultsMatchLegacySignature) {
  const core::DtmSimulator sim(Plat16(), apps::AppByName("x264"), 6, 8);
  const std::size_t nominal = Plat16().ladder().NominalLevel();
  const core::DtmResult legacy =
      sim.Run(core::DtmPolicy::kThrottleGlobal, nominal, 0.5);
  core::DtmRunOptions options;  // faults disabled
  const core::DtmResult opt =
      sim.Run(core::DtmPolicy::kThrottleGlobal, nominal, 0.5, options);
  EXPECT_DOUBLE_EQ(legacy.avg_gips, opt.avg_gips);
  EXPECT_DOUBLE_EQ(legacy.max_temp_c, opt.max_temp_c);
  EXPECT_TRUE(opt.fault_log.empty());
}

TEST(DtmFaults, FailStoppedCoresGoDark) {
  const core::DtmSimulator sim(Plat16(), apps::AppByName("x264"), 6, 8);
  core::DtmRunOptions options;
  options.faults.enabled = true;
  options.faults.core_failstop_rate = 2e-4;
  options.faults.max_failed_cores = 10;
  const core::DtmResult r = sim.Run(core::DtmPolicy::kThrottleGlobal,
                                    Plat16().ladder().NominalLevel(), 1.0,
                                    options);
  EXPECT_GT(r.cores_failed, 0u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  // Lost cores cost throughput but never produce garbage.
  for (const double g : r.gips) EXPECT_TRUE(std::isfinite(g));
}

// --------------------------------------------- online manager migration

TEST(OnlineFaults, FailStopRequeuesAndReAdmitsOnDegradedSet) {
  core::OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.min_duration = 4;
  cfg.max_duration = 10;
  cfg.seed = 9;
  cfg.faults.enabled = true;
  cfg.faults.core_failstop_rate = 3e-3;  // per epoch per core
  cfg.faults.max_failed_cores = 40;
  const core::OnlineManager mgr(Plat16(),
                                core::AdmissionPolicy::kThermalSafe, cfg);
  const core::OnlineResult r = mgr.Run(80);
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_GT(r.cores_failed, 0u);
  EXPECT_GT(r.jobs_requeued, 0u);
  EXPECT_TRUE(r.fault_log.EveryInjectionMitigated());
  // Thermal-safe admission holds on the degraded set.
  EXPECT_EQ(r.violation_epochs, 0u);
  const core::OnlineResult r2 = mgr.Run(80);
  EXPECT_DOUBLE_EQ(r.avg_gips, r2.avg_gips);
  EXPECT_EQ(r.jobs_requeued, r2.jobs_requeued);
}

TEST(OnlineFaults, DisabledFaultsLeaveResultUnchanged) {
  core::OnlineConfig off;
  off.seed = 4;
  core::OnlineConfig armed = off;
  armed.faults.enabled = true;  // zero rates
  const core::OnlineResult a =
      core::OnlineManager(Plat16(), core::AdmissionPolicy::kThermalSafe, off)
          .Run(40);
  const core::OnlineResult b =
      core::OnlineManager(Plat16(), core::AdmissionPolicy::kThermalSafe,
                          armed)
          .Run(40);
  EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(b.jobs_requeued, 0u);
  EXPECT_TRUE(b.fault_log.empty());
}

// ------------------------------------------------ job-level chaos

TEST(ChaosInjector, DecisionsArePureFunctionsOfSeedJobAttempt) {
  faults::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.seed = 123;
  cfg.fail_rate = 0.5;
  cfg.delay_rate = 0.5;
  cfg.delay_ms = 25.0;
  const faults::ChaosInjector a(cfg);
  const faults::ChaosInjector b(cfg);
  bool any_fail = false, any_delay = false, any_clean = false;
  for (std::size_t job = 0; job < 64; ++job) {
    for (std::size_t attempt = 0; attempt < 4; ++attempt) {
      const faults::ChaosDecision d1 = a.Decide(job, attempt);
      const faults::ChaosDecision d2 = b.Decide(job, attempt);
      EXPECT_EQ(d1.fail, d2.fail);
      EXPECT_EQ(d1.delay, d2.delay);
      EXPECT_DOUBLE_EQ(d1.delay_ms, d2.delay_ms);
      any_fail |= d1.fail;
      any_delay |= d1.delay;
      any_clean |= !d1.fail && !d1.delay;
      if (d1.delay) {
        EXPECT_DOUBLE_EQ(d1.delay_ms, 25.0);
      }
    }
  }
  // At 50/50 rates over 256 draws, all three outcomes must appear.
  EXPECT_TRUE(any_fail);
  EXPECT_TRUE(any_delay);
  EXPECT_TRUE(any_clean);

  // A different seed must produce a different decision sequence.
  faults::ChaosConfig other = cfg;
  other.seed = 124;
  const faults::ChaosInjector c(other);
  bool diverged = false;
  for (std::size_t job = 0; job < 64 && !diverged; ++job)
    diverged = a.Decide(job, 0).fail != c.Decide(job, 0).fail;
  EXPECT_TRUE(diverged);
}

TEST(ChaosInjector, MaxFaultyAttemptsGuaranteesEventualSuccess) {
  faults::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.fail_rate = 1.0;
  cfg.delay_rate = 1.0;
  cfg.delay_ms = 10.0;
  cfg.max_faulty_attempts = 3;
  const faults::ChaosInjector inj(cfg);
  for (std::size_t job = 0; job < 16; ++job) {
    for (std::size_t attempt = 0; attempt < 3; ++attempt)
      EXPECT_TRUE(inj.Decide(job, attempt).fail);
    const faults::ChaosDecision clean = inj.Decide(job, 3);
    EXPECT_FALSE(clean.fail);
    EXPECT_FALSE(clean.delay);
  }
}

TEST(ChaosConfig, ValidateRejectsBadValues) {
  faults::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.fail_rate = 1.5;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.fail_rate = -0.1;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.fail_rate = 0.5;
  cfg.delay_ms = -1.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.delay_ms = 10.0;
  cfg.max_faulty_attempts = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.max_faulty_attempts = 1;
  cfg.Validate();  // now sound
  EXPECT_TRUE(cfg.AnyChaosPossible());
  cfg.fail_rate = 0.0;
  cfg.delay_rate = 0.0;
  EXPECT_FALSE(cfg.AnyChaosPossible());  // enabled but inert
}

TEST(CancelToken, SleepRunsFullDurationWhenNotCancelled) {
  const faults::CancelToken token;
  EXPECT_TRUE(token.SleepFor(1.0));
  EXPECT_TRUE(token.SleepFor(0.0));  // degenerate duration
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, CancelInterruptsASleeperQuickly) {
  faults::CancelToken token;
  std::atomic<bool> slept_full{true};
  std::thread sleeper([&] { slept_full = token.SleepFor(30000.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  sleeper.join();
  EXPECT_FALSE(slept_full);
  EXPECT_TRUE(token.cancelled());
  // Cancelled tokens never sleep again.
  EXPECT_FALSE(token.SleepFor(10000.0));
}

}  // namespace
}  // namespace ds
