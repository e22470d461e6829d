// Validated thermal-sensor bus with graceful degradation.
//
// Every controller in this repo used to read die temperatures straight
// out of the RC model -- i.e. it trusted a perfect sensor. SensorBus is
// the indirection real thermal stacks put in between:
//
//   truth -> (FaultInjector, optional) -> plausibility checks -> value
//
// A reading is rejected when it is NaN/non-finite, outside the
// configured plausible band, or stale (the sensor valid-bit stopped
// updating). Rejected readings are replaced by a trend-corrected EWMA
// of the last accepted readings -- an O(1) stand-in for a model
// predictor, since die temperature moves smoothly at the 1 ms control
// period. After `watchdog_threshold` consecutive control steps with at
// least one bad reading the bus declares the watchdog safe-state
// (consumers must throttle to the lowest ladder level); it re-arms
// after `watchdog_recovery` consecutive clean steps.
//
// With no injector attached, Sample() copies the true temperatures
// verbatim and performs no validation -- controllers built on the bus
// are bit-identical to the pre-bus code when fault injection is off.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "faults/fault_injector.hpp"

namespace ds::faults {

struct SensorBusPolicy {
  double min_plausible_c = -20.0;   // below: sensor is lying
  double max_plausible_c = 150.0;   // above: sensor is lying
  double ewma_alpha = 0.25;         // smoothing of the fallback estimate
  std::size_t watchdog_threshold = 5;   // bad steps before safe-state
  std::size_t watchdog_recovery = 50;   // clean steps to leave safe-state

  /// Throws std::invalid_argument on inverted bounds, alpha outside
  /// (0, 1] or a zero watchdog threshold.
  void Validate() const;
};

class SensorBus {
 public:
  /// A bus over `num_cores` sensors; the fallback estimator starts at
  /// `ambient_c`. Throws std::invalid_argument on invalid `policy`.
  SensorBus(std::size_t num_cores, double ambient_c,
            SensorBusPolicy policy = {});

  /// Attaches the fault source. Mitigations (substituted readings,
  /// safe-state transitions) are recorded in the injector's log.
  /// Pass nullptr to detach (pass-through mode).
  void AttachInjector(FaultInjector* injector);

  /// Ingests one control step of true temperatures and returns the
  /// sensed (validated, possibly substituted) per-core temperatures.
  /// The span stays valid until the next Sample() call.
  const std::vector<double>& Sample(double time_s,
                                    std::span<const double> true_temps);

  /// Latest sensed temperatures (result of the last Sample()).
  const std::vector<double>& temps() const { return sensed_; }

  /// Peak of the latest sensed temperatures.
  double PeakTemp() const;

  /// True while the watchdog holds the chip in the safe-state.
  bool InSafeState() const { return safe_state_; }

  /// Readings rejected and substituted so far (all cores, all steps).
  std::size_t substitutions() const { return substitutions_; }

  const SensorBusPolicy& policy() const { return policy_; }

 private:
  SensorBusPolicy policy_;
  FaultInjector* injector_ = nullptr;
  std::vector<double> sensed_;
  std::vector<double> ewma_;      // smoothed last-accepted readings
  std::vector<double> trend_;     // smoothed per-step delta
  std::vector<bool> seeded_;      // ewma seeded with a real reading yet
  std::size_t bad_streak_ = 0;    // consecutive steps with >= 1 bad reading
  std::size_t clean_streak_ = 0;
  bool safe_state_ = false;
  std::size_t substitutions_ = 0;
};

}  // namespace ds::faults
