// Online dark-silicon-aware resource management.
//
// The paper's conclusion points at runtime resource management
// (invasive computing [26]) as the consumer of TSP and thermal-aware
// mapping. This module simulates an open system: application instances
// arrive over time, run for a while and leave; an admission policy
// decides when the chip is "full":
//
//   * kTdpBudget     -- classic: admit while the sum of budget powers
//                       stays below a fixed TDP; place contiguously.
//   * kThermalSafe   -- TSP-style: admit while the *predicted steady
//                       peak temperature* (influence matrix, leakage at
//                       T_DTM) stays below T_DTM; place with
//                       core::PlaceDispersed on top of the running jobs'
//                       rise (running jobs cannot migrate). Down cores
//                       are never placed on, but their rows still bound
//                       the predicted peak.
//
// The comparison quantifies the paper's thesis at the system level:
// power budgets leave thermal headroom unused (or violate it), while
// the temperature constraint is the real resource.
// Core faults (OnlineConfig::faults) exercise graceful degradation:
// jobs running on a core that fail-stops are requeued at the head of
// the admission queue and re-admitted -- with the thermal-safe
// predicate re-evaluated -- on the degraded core set. One epoch is one
// fault-injection control step. Sensor and DVFS faults do not apply at
// this epoch-level abstraction (the manager evaluates steady states,
// it does not sample sensors); use ChipSimulator for those.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/estimator.hpp"
#include "faults/fault_injector.hpp"
#include "util/rng.hpp"

namespace ds::core {

enum class AdmissionPolicy { kTdpBudget, kThermalSafe };

const char* AdmissionPolicyName(AdmissionPolicy policy);

struct OnlineConfig {
  double arrival_rate = 1.0;       // expected job arrivals per epoch
  std::size_t min_duration = 5;    // epochs
  std::size_t max_duration = 20;   // epochs
  std::size_t threads = 8;         // per job
  double tdp_w = 185.0;            // kTdpBudget only
  std::uint64_t seed = 1;
  faults::FaultConfig faults;      // disabled by default (zero-cost off)

  /// Rejects non-finite/negative rates, zero threads, inverted duration
  /// bounds and a non-positive TDP with std::invalid_argument.
  void Validate() const;
};

struct OnlineResult {
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_rejected = 0;   // still queued at the end
  double avg_wait_epochs = 0.0;    // admission delay of admitted jobs
  double avg_gips = 0.0;
  double avg_active_cores = 0.0;
  double max_peak_temp_c = 0.0;
  std::size_t violation_epochs = 0;  // epochs with peak > T_DTM
  std::vector<double> epoch_gips;
  std::vector<double> epoch_peak_temp;
  // Robustness accounting (all zero when fault injection is off).
  faults::FaultLog fault_log;
  std::size_t jobs_requeued = 0;   // migrations off failed cores
  std::size_t cores_failed = 0;    // cores down at the end of the run
};

class OnlineManager {
 public:
  /// Throws std::invalid_argument when `config` fails Validate().
  OnlineManager(const arch::Platform& platform, AdmissionPolicy policy,
                OnlineConfig config = {});

  /// Simulates `epochs` scheduling epochs; each epoch runs admitted
  /// jobs at the nominal v/f level and evaluates the true thermal
  /// steady state.
  OnlineResult Run(std::size_t epochs) const;

 private:
  const arch::Platform* platform_;
  AdmissionPolicy policy_;
  OnlineConfig config_;
};

}  // namespace ds::core
