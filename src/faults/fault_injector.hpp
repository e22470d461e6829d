// Deterministic fault injection for the closed-loop runtime.
//
// The paper's runtime techniques (TSP, DTM, boosting, online admission)
// are what keep a dark-silicon chip safe -- but only if they keep
// working when the inputs lie. This subsystem injects the faults a real
// thermal-management stack must survive:
//
//   sensors   -- stuck-at, additive Gaussian noise, slow drift,
//                dropout (stale readings: the valid-bit stops updating),
//                single-reading NaN;
//   cores     -- permanent fail-stop and transient unavailability;
//   actuator  -- DVFS ladder stuck at its current level (commands
//                silently ignored) for a bounded interval;
//   solver    -- steady-state solve declared non-convergent, forcing
//                the perturbed-pivot retry path.
//
// All scheduling is driven by one seeded mt19937_64 sampled in a fixed
// per-step, per-core order, so a (config, seed) pair always produces an
// identical fault trace regardless of how the consumer reacts. Every
// injection, expiry and mitigation is recorded in a FaultLog that can
// be queried in tests and dumped to CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ds::faults {

/// Sentinel core index for chip-wide events.
inline constexpr std::size_t kNoCore = std::numeric_limits<std::size_t>::max();

enum class FaultKind {
  kSensorStuck,
  kSensorNoise,
  kSensorDrift,
  kSensorDropout,
  kSensorNan,
  kCoreFailStop,
  kCoreTransient,
  kDvfsStuck,
  kSolverNonConvergence,
  kJobTransient,  // sweep job attempt fails with a transient error
  kJobDelay,      // sweep job attempt is delayed (deadline/watchdog test)
};

const char* FaultKindName(FaultKind kind);

enum class FaultEventKind {
  kInjected,   // fault became active
  kCleared,    // bounded fault expired on its own
  kMitigated,  // a consumer detected/absorbed the fault
};

const char* FaultEventKindName(FaultEventKind kind);

struct FaultEvent {
  double time_s = 0.0;
  FaultEventKind event = FaultEventKind::kInjected;
  FaultKind kind = FaultKind::kSensorDropout;
  std::size_t core = kNoCore;  // kNoCore for chip-wide faults
  double value = 0.0;          // kind-specific (stuck temp, level, ...)
  std::string detail;
};

/// Append-only structured record of injections and mitigations.
class FaultLog {
 public:
  void Record(double time_s, FaultEventKind event, FaultKind kind,
              std::size_t core, double value, std::string detail);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  std::size_t CountEvents(FaultEventKind event) const;
  std::size_t CountInjected(FaultKind kind) const;

  /// True when every kInjected event is followed (at an equal or later
  /// timestamp) by a kMitigated event of the same kind and core.
  bool EveryInjectionMitigated() const;

  /// Dumps the full event list (one row per event) to `path`.
  /// Propagates CsvWriter errors (std::runtime_error) on I/O failure.
  void WriteCsv(const std::string& path) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Fault scenario description. All rates are per control step (and per
/// core where the fault is per-core); 0 disables the class. The struct
/// is cheap to copy and embeds in SimConfig/OnlineConfig; `enabled`
/// false keeps every consumer on its exact fault-free code path.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 42;

  // Sensor faults (per step, per core).
  double sensor_stuck_rate = 0.0;      // reading freezes at current value
  double sensor_dropout_rate = 0.0;    // sensor stops delivering (stale)
  double sensor_nan_rate = 0.0;        // one NaN reading
  double sensor_drift_rate = 0.0;      // sensor starts drifting
  double sensor_noise_sigma_c = 0.0;   // additive N(0, sigma) on every reading
  double sensor_drift_c_per_s = 2.0;   // drift slope once drifting
  double stuck_duration_s = 0.2;
  double dropout_duration_s = 0.05;

  // Core faults (per step, per core).
  double core_failstop_rate = 0.0;     // permanent
  double core_transient_rate = 0.0;    // bounded outage
  double transient_duration_s = 0.5;
  std::size_t max_failed_cores =       // cap on simultaneously-down cores
      std::numeric_limits<std::size_t>::max();

  // DVFS actuator faults (per step, chip-wide governor).
  double dvfs_stuck_rate = 0.0;        // ladder ignores commands
  double dvfs_stuck_duration_s = 0.1;

  // Steady-state solver faults (per solve).
  double solver_fail_rate = 0.0;       // declare the solve non-convergent

  // No new faults are injected after this time (existing ones still
  // expire/persist); keeps end-of-run injections from being un-mitigable
  // in bounded-duration acceptance runs. Infinity = inject forever.
  double max_injection_time_s = std::numeric_limits<double>::infinity();

  /// Throws std::invalid_argument on out-of-range rates (must be finite,
  /// in [0, 1]), non-positive durations or a non-finite noise sigma.
  void Validate() const;

  /// enabled and at least one fault class has a non-zero rate/sigma.
  bool AnyFaultPossible() const;
};

/// One sensor reading as delivered by the (possibly faulty) interface.
/// `fresh` models the sensor valid-bit: a dropout keeps the last value
/// latched with fresh = false, which is how real buses detect staleness.
struct SensorReading {
  double value_c = 0.0;
  bool fresh = true;
};

class FaultInjector {
 public:
  /// Throws std::invalid_argument if `config` fails Validate().
  FaultInjector(const FaultConfig& config, std::size_t num_cores);

  /// Advances the fault schedule by one control step ending at
  /// `time_s`: samples new faults, expires bounded ones. Must be called
  /// once per step before any Corrupt*/Apply* queries for that step.
  void BeginStep(double time_s, double dt_s);

  /// Passes a true temperature through the faulty sensor path.
  SensorReading CorruptReading(std::size_t core, double true_temp_c);

  /// Fault (if any) currently corrupting `core`'s sensor, for matching
  /// mitigation log entries. Only meaningful after CorruptReading.
  bool ActiveSensorFault(std::size_t core, FaultKind* kind) const;

  /// True when `core`'s current outage is permanent (fail-stop).
  bool CoreDownPermanent(std::size_t core) const {
    return cores_[core].down && cores_[core].permanent;
  }

  /// Cores that went down during the current step (drained on read, so
  /// the consumer sees each failure exactly once).
  std::vector<std::size_t> TakeNewlyDownCores();

  /// Cores whose transient outage ended during the current step.
  std::vector<std::size_t> TakeNewlyRecoveredCores();

  /// Routes a governor DVFS request through the (possibly stuck)
  /// actuator: returns the level actually applied.
  std::size_t ApplyDvfs(std::size_t requested_level,
                        std::size_t current_level);

  /// True when the next steady-state solve should be treated as
  /// non-convergent (consumed: at most one failure per query that
  /// returns true). The injection is logged here; the consumer logs the
  /// matching mitigation once its retry path succeeds.
  bool ConsumeSolverFault();

  FaultLog& log() { return log_; }
  const FaultLog& log() const { return log_; }
  const FaultConfig& config() const { return config_; }
  std::size_t num_down_cores() const { return num_down_; }

 private:
  struct SensorState {
    double stuck_until_s = -1.0;
    double stuck_value_c = 0.0;
    double dropout_until_s = -1.0;
    double last_value_c = 0.0;
    bool drifting = false;
    double drift_c = 0.0;
    bool nan_this_step = false;
    FaultKind active = FaultKind::kSensorNoise;  // valid iff has_active
    bool has_active = false;
  };

  struct CoreState {
    bool down = false;
    bool permanent = false;
    double down_until_s = 0.0;  // transient only
  };

  bool Hit(double rate) { return rate > 0.0 && rng_.Uniform(0.0, 1.0) < rate; }

  FaultConfig config_;
  std::size_t num_cores_;
  util::Rng rng_;
  FaultLog log_;
  double time_s_ = 0.0;
  double dt_s_ = 0.0;
  bool injecting_ = true;  // false past max_injection_time_s

  std::vector<SensorState> sensors_;
  std::vector<CoreState> cores_;
  std::size_t num_down_ = 0;
  std::vector<std::size_t> newly_down_;
  std::vector<std::size_t> newly_recovered_;

  double dvfs_stuck_until_s_ = -1.0;
  std::size_t dvfs_stuck_level_ = 0;
  bool dvfs_fault_mitigation_logged_ = false;
};

}  // namespace ds::faults
