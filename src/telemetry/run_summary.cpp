#include "telemetry/run_summary.hpp"

#include <iomanip>
#include <ostream>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ds::telemetry {

void RunSummary::CollectTelemetry() {
  if (!Enabled()) return;
  trace_events = TotalTraceEvents();
  trace_events_dropped = TotalDroppedEvents();
  propagator_steps =
      Registry().GetCounter("thermal.kernel.propagator_steps").value();
  hold_steps = Registry().GetCounter("thermal.kernel.hold_steps").value();
  batch_gemm_steps = Registry().GetCounter("thermal.batch.gemm_steps").value();
  batch_gemv_steps = Registry().GetCounter("thermal.batch.gemv_steps").value();
  batch_hold_steps = Registry().GetCounter("thermal.batch.hold_steps").value();
}

void RunSummary::Print(std::ostream& os) const {
  const auto line = [&](const char* label, const auto& value,
                        const char* unit = "") {
    os << "  " << std::left << std::setw(22) << label << std::right
       << value << unit << "\n";
  };
  os << "-- " << title << " --\n";
  os << std::fixed << std::setprecision(2);
  line("simulated time", sim_time_s, " s");
  // Wall time is the one nondeterministic number; callers leave it at
  // zero (and we omit the line) when run-to-run diffable output
  // matters more than the measurement.
  if (wall_time_s > 0.0) line("wall time", wall_time_s, " s");
  if (epochs > 0) line("scheduler epochs", epochs);
  if (control_steps > 0) line("control steps", control_steps);
  line("jobs arrived", jobs_arrived);
  line("jobs completed", jobs_completed);
  if (jobs_requeued > 0) line("jobs requeued", jobs_requeued);
  line("avg GIPS", avg_gips);
  line("avg power", avg_power_w, " W");
  line("peak temperature", peak_temp_c, " C");
  line("time above T_DTM", 1e3 * time_above_tdtm_s, " ms");
  if (safe_state_s > 0.0) line("safe-state time", 1e3 * safe_state_s, " ms");
  if (sensor_fallbacks > 0) line("sensor fallbacks", sensor_fallbacks);
  if (solver_retries > 0) line("solver retries", solver_retries);
  if (cores_failed > 0) line("cores failed", cores_failed);
  if (propagator_steps > 0) line("propagator steps", propagator_steps);
  if (hold_steps > 0) line("power-hold steps", hold_steps);
  if (batch_gemm_steps > 0) line("batch GEMM steps", batch_gemm_steps);
  if (batch_gemv_steps > 0) line("batch GEMV steps", batch_gemv_steps);
  if (batch_hold_steps > 0) line("batch hold steps", batch_hold_steps);
  if (trace_events > 0) line("trace events", trace_events);
  if (trace_events_dropped > 0)
    line("trace events dropped", trace_events_dropped);
  os.unsetf(std::ios::fixed);
}

}  // namespace ds::telemetry
