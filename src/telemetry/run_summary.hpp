// End-of-run summary for the closed-loop `sim` command: what happened,
// in one screen, instead of silence on success. Populated by the CLI
// from the simulation result plus (when telemetry is enabled) the
// layer counters in the metrics registry, so it works -- with fewer
// lines -- even when telemetry is off. Sweeps report through
// runtime::SweepStats instead (see WriteSummaryJson).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace ds::telemetry {

struct RunSummary {
  std::string title = "run summary";

  double sim_time_s = 0.0;
  double wall_time_s = 0.0;
  std::size_t epochs = 0;
  std::size_t control_steps = 0;

  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_requeued = 0;

  double peak_temp_c = 0.0;
  double time_above_tdtm_s = 0.0;
  double avg_gips = 0.0;
  double avg_power_w = 0.0;

  std::size_t sensor_fallbacks = 0;
  std::size_t solver_retries = 0;
  std::size_t cores_failed = 0;
  double safe_state_s = 0.0;

  // Registry-derived extras; zero when telemetry is disabled.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_events_dropped = 0;

  // Thermal stepping (thermal.kernel.* counters): how many transient
  // steps ran on the folded dense propagator, and how many were covered
  // by k-step power-hold applications.
  std::uint64_t propagator_steps = 0;
  std::uint64_t hold_steps = 0;

  // Panel passes (thermal.batch.* counters) split by width (GEMM-shaped
  // k >= 2 vs k = 1 passes -- every TransientSimulator step -- in
  // member-steps), and panel power-hold member-steps.
  std::uint64_t batch_gemm_steps = 0;
  std::uint64_t batch_gemv_steps = 0;
  std::uint64_t batch_hold_steps = 0;

  /// Fills trace_events*/kernel-path counts from the live
  /// registry and trace collector (no-op values when telemetry is
  /// disabled).
  void CollectTelemetry();

  void Print(std::ostream& os) const;
};

}  // namespace ds::telemetry
