#include "faults/sensor_bus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace ds::faults {

void SensorBusPolicy::Validate() const {
  DS_REQUIRE(min_plausible_c < max_plausible_c,
             "SensorBusPolicy: plausible band [" << min_plausible_c << ", "
                 << max_plausible_c << "] must be non-empty");
  DS_REQUIRE(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
             "SensorBusPolicy: ewma_alpha " << ewma_alpha
                 << " must be in (0, 1]");
  DS_REQUIRE(watchdog_threshold >= 1,
             "SensorBusPolicy: watchdog_threshold must be >= 1");
}

SensorBus::SensorBus(std::size_t num_cores, double ambient_c,
                     SensorBusPolicy policy)
    : policy_(policy),
      sensed_(num_cores, ambient_c),
      ewma_(num_cores, ambient_c),
      trend_(num_cores, 0.0),
      seeded_(num_cores, false) {
  policy_.Validate();
}

void SensorBus::AttachInjector(FaultInjector* injector) {
  injector_ = injector;
}

const std::vector<double>& SensorBus::Sample(
    double time_s, std::span<const double> true_temps) {
  const std::size_t n = sensed_.size();
  if (injector_ == nullptr) {
    // Pass-through: exactly the true temperatures, no validation work.
    sensed_.assign(true_temps.begin(), true_temps.end());
    return sensed_;
  }

  bool any_bad = false;
  for (std::size_t c = 0; c < n; ++c) {
    const SensorReading reading = injector_->CorruptReading(c, true_temps[c]);
    const bool implausible = !std::isfinite(reading.value_c) ||
                             reading.value_c < policy_.min_plausible_c ||
                             reading.value_c > policy_.max_plausible_c;
    const bool reject = !reading.fresh || implausible;
    if (!reject) {
      // Accept, refresh the fallback estimator.
      if (!seeded_[c]) {
        ewma_[c] = reading.value_c;
        trend_[c] = 0.0;
        seeded_[c] = true;
      } else {
        const double prev = ewma_[c];
        ewma_[c] = policy_.ewma_alpha * reading.value_c +
                   (1.0 - policy_.ewma_alpha) * ewma_[c];
        trend_[c] = policy_.ewma_alpha * (ewma_[c] - prev) +
                    (1.0 - policy_.ewma_alpha) * trend_[c];
      }
      sensed_[c] = reading.value_c;
      continue;
    }

    any_bad = true;
    // Substitute the trend-corrected EWMA (model-predicted estimate);
    // let the prediction coast along its trend while the sensor is out.
    ewma_[c] += trend_[c];
    sensed_[c] = ewma_[c];
    ++substitutions_;
    FaultKind kind = FaultKind::kSensorNan;
    if (!injector_->ActiveSensorFault(c, &kind)) {
      // Rejected without a matching injected fault (e.g. drift walked
      // out of the plausible band long after injection): classify by
      // symptom so the log stays self-describing.
      kind = !reading.fresh ? FaultKind::kSensorDropout
                            : FaultKind::kSensorNan;
    }
    injector_->log().Record(
        time_s, FaultEventKind::kMitigated, kind, c, sensed_[c],
        !reading.fresh ? "stale reading replaced by EWMA estimate"
                       : "implausible reading replaced by EWMA estimate");
  }

  // Watchdog bookkeeping.
  if (any_bad) {
    ++bad_streak_;
    clean_streak_ = 0;
    if (!safe_state_ && bad_streak_ >= policy_.watchdog_threshold) {
      safe_state_ = true;
      injector_->log().Record(
          time_s, FaultEventKind::kMitigated, FaultKind::kSensorDropout,
          kNoCore, static_cast<double>(bad_streak_),
          "watchdog safe-state entered (throttle to lowest level)");
    }
  } else {
    bad_streak_ = 0;
    ++clean_streak_;
    if (safe_state_ && clean_streak_ >= policy_.watchdog_recovery) {
      safe_state_ = false;
      injector_->log().Record(
          time_s, FaultEventKind::kCleared, FaultKind::kSensorDropout,
          kNoCore, static_cast<double>(clean_streak_),
          "watchdog safe-state left after clean readings");
    }
  }
  return sensed_;
}

double SensorBus::PeakTemp() const {
  return *std::max_element(sensed_.begin(), sensed_.end());
}

}  // namespace ds::faults
