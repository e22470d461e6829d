// Full-system chip co-simulation.
//
// Integrates every subsystem of this repository in one time-stepped
// loop, the way a runtime on a real dark-silicon chip would experience
// them (the paper's "efficient design and management of manycore
// systems in the dark silicon era" in executable form):
//
//   scheduler epoch (100 ms): job arrivals (Poisson), thermal-safe
//     admission on the influence matrix with core::PlaceDispersed over
//     the alive cores, departures; NoC power re-evaluated for the new
//     traffic;
//   control period (1 ms): one implicit-Euler thermal step; the
//     chip-wide DVFS governor boosts one ladder step when there is
//     thermal headroom (Turbo-Boost style) and throttles below nominal
//     when T_DTM is violated (DTM);
//   continuously: per-core Arrhenius wear accrual.
//
// The loop reads temperatures through a faults::SensorBus and survives
// injected faults (SimConfig::faults): implausible or stale readings
// are replaced by the bus's EWMA estimate, a watchdog safe-state pins
// the ladder at its lowest level after repeated bad readings, jobs are
// migrated (requeued + re-admitted on the degraded core set) off
// fail-stopped cores, DVFS commands go through the possibly-stuck
// actuator, and warm-start solver failures retry with perturbed
// pivoting. With faults disabled the loop is bit-identical to the
// fault-free implementation.
//
// The result is a trace of performance, power and temperature plus
// end-of-run job statistics, aging balance and the structured FaultLog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "faults/fault_injector.hpp"
#include "noc/mesh.hpp"
#include "reliability/aging.hpp"

namespace ds::sim {

struct SimConfig {
  double duration_s = 5.0;
  double control_period_s = 1e-3;
  double scheduler_period_s = 0.1;
  double arrival_rate = 0.6;      // expected jobs per scheduler epoch
  std::size_t initial_jobs = 6;   // queued at t = 0 (warm-start load)
  double min_job_s = 0.5;
  double max_job_s = 3.0;
  std::size_t threads_per_job = 8;
  bool enable_boost = true;       // governor may exceed nominal
  bool enable_noc = true;         // account uncore power
  double power_cap_w = 500.0;     // electrical constraint (Sec. 6)
  double thermal_margin_c = 0.0;  // governor headroom below T_DTM
  std::uint64_t seed = 1;
  faults::FaultConfig faults;     // disabled by default (zero-cost off)

  /// Rejects non-positive durations/periods, inverted job-length
  /// bounds, zero threads and non-finite rates with
  /// std::invalid_argument. Called by the ChipSimulator constructor.
  void Validate() const;
};

struct SimSnapshot {
  double time_s = 0.0;
  double gips = 0.0;
  double power_w = 0.0;
  double peak_temp_c = 0.0;
  double freq_ghz = 0.0;
  std::size_t active_cores = 0;
  std::size_t running_jobs = 0;
};

struct FullSimResult {
  std::vector<SimSnapshot> trace;   // one per scheduler epoch
  double avg_gips = 0.0;
  double avg_power_w = 0.0;
  double energy_j = 0.0;
  double max_temp_c = 0.0;
  double time_above_tdtm_s = 0.0;
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  double avg_active_cores = 0.0;
  double aging_imbalance = 1.0;     // max/mean wear
  double avg_noc_power_w = 0.0;
  // Robustness accounting (all zero when fault injection is off).
  faults::FaultLog fault_log;
  double safe_state_s = 0.0;        // time spent in the watchdog state
  std::size_t jobs_requeued = 0;    // migrations off failed cores
  std::size_t cores_failed = 0;     // cores down at the end of the run
  std::size_t sensor_substitutions = 0;
  std::size_t solver_retries = 0;
};

class ChipSimulator {
 public:
  /// Throws std::invalid_argument when `config` fails Validate().
  ChipSimulator(const arch::Platform& platform, const SimConfig& config);

  /// Runs the configured duration. Deterministic in config.seed.
  FullSimResult Run() const;

 private:
  const arch::Platform* platform_;
  SimConfig config_;
};

}  // namespace ds::sim
