// Program-facing helpers shared by the workloads: sweep set-up the way
// one `darksilicon sweep` process pays it, engine runs with row
// streaming, row checks, model-level probes and per-job replays.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "bench.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"

namespace pb {

/// The platform a sweep point runs on, without thermal assets.
ds::arch::Platform PlatformFor(const ds::runtime::SweepPoint& p);

/// One freshly set-up sweep: spec expanded, and a private ModelCache
/// holding the LU factorization and influence matrix of every distinct
/// model plus the folded propagator of every distinct (model, dt) of a
/// batchable kind.
struct SweepRig {
  std::unique_ptr<ds::runtime::ModelCache> cache;
  ds::runtime::SweepSpec spec;
  std::vector<ds::runtime::SweepJob> jobs;
  double expand_ms = 0.0;
  double setup_s = 0.0;
};
SweepRig SetUpSweep(const std::string& spec_text);

struct EngineRun {
  ds::runtime::SweepOutcome outcome;
  double wall_s = 0.0;
  /// Per row: time from Run start until the row can be streamed in
  /// index order (it and every earlier row delivered via on_result).
  std::vector<double> row_ms;
};
EngineRun RunEngine(const SweepRig& rig, std::size_t threads, bool stream);

const char* RowStatus(const ds::runtime::JobResult& r);

/// Checks every row against the reference; counts one operation per row.
void CheckRows(const std::vector<ds::runtime::SweepJob>& jobs,
               const std::vector<ds::runtime::JobResult>& results,
               Reference& ref, Report& rep);

/// Model-level layer costs on the paper platforms of `nodes`, averaged
/// per model: platform construction, LU factorization, steady solve,
/// influence matrix, propagator fold, batched and scalar stepping.
void MeasureModels(const std::vector<std::string>& nodes, bool tiny,
                   Report& rep);

/// Replays one job's runner call sequence through the layers' public
/// functions, with spans around each call (request id = job index).
struct ReplayTotals {
  double attributed_ms = 0.0;  // time inside the replay's layer spans
  std::vector<double> level_search_ms;
  std::vector<double> control_us;  // CorePowersAt per control period
  std::vector<double> estimate_tdp_ms;
  std::vector<double> estimate_thermal_ms;
  std::size_t drifted = 0;  // replayed rows that differ from the reference
};
void ReplayJob(ds::runtime::SweepKind kind, const ds::runtime::SweepJob& job,
               ds::runtime::ModelCache& cache, Reference& ref,
               ReplayTotals* totals);

std::uint64_t CounterValue(const char* name);

}  // namespace pb
