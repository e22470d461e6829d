// Scenario runners: one pure function per SweepKind mapping a bound
// SweepPoint to its metric set. Runners are referentially transparent
// (explicit seeds, no shared mutable state beyond the ModelCache, whose
// cached artifacts are bitwise-identical to uncached computation), so
// job results do not depend on scheduling -- the engine's determinism
// guarantee rests on this file.
//
// MetricColumns is each kind's row schema: the one place its metric
// column names are written. Runners hand it values in column order, and
// ResultSink writes the same names into every CSV header of the kind.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/sweep_spec.hpp"

namespace ds::runtime {

/// Executes one job. Fills `result->metrics` with MetricColumns(kind)
/// (or sets `skipped` for an infeasible scenario, which carries no
/// metrics); throws on invalid scenarios (unknown node or app,
/// inconsistent parameters), which the engine records as a failed job.
/// `cache` supplies the shared thermal artifacts.
void RunScenario(SweepKind kind, const SweepJob& job, ModelCache& cache,
                 JobResult* result);

/// The schema of `kind`'s rows: the metric column names RunScenario
/// emits, in order.
const std::vector<std::string>& MetricColumns(SweepKind kind);

/// True when `kind` steps a thermal model per job and can join a
/// lockstep cohort (see RunBoostTransientCohort / DESIGN.md §15).
bool KindIsBatchable(SweepKind kind);

/// Conservative cohort key for a batchable job: equal keys guarantee
/// the jobs share one (model content hash, dt) pair and therefore one
/// folded propagator. Built from spec fields only (node, cores,
/// control period) so grouping never has to construct a platform.
/// Returns "" for non-batchable kinds.
std::string BatchCohortKey(SweepKind kind, const SweepPoint& point);

/// Runs a cohort of boost_transient jobs in lockstep over one shared
/// propagator: each member steps a core::BoostLoop under the Turbo law
/// RunBoosting steps, from MaxSafeConstantLevel's warm start, on its
/// panel column, and one panel pass advances every member per control
/// period. All jobs must share BatchCohortKey. Fills results[i] for
/// jobs[i] and sets ok on completion.
///
/// `should_detach` (nullable) is polled once per control period per
/// member; true detaches it (its deadline passed or its cancel token
/// fired). A detached member -- and, when `should_detach` is non-null,
/// any member whose setup or stepping throws -- is reported via
/// detached[i] with its result slot untouched, so the engine can re-run
/// it through the scalar retry ladder. With `should_detach == nullptr`
/// (the scalar lane, k = 1), member exceptions propagate to the caller
/// exactly like every other runner.
///
/// Determinism: the panel kernels' per-element summation order does not
/// depend on k, so a row is bitwise identical at any cohort width (and
/// so at any thread count), and its avg_gips, energy_j and max_power_w
/// are bitwise RunBoosting's.
void RunBoostTransientCohort(
    std::span<const SweepJob* const> jobs, ModelCache& cache,
    std::span<JobResult* const> results,
    const std::function<bool(std::size_t)>& should_detach,
    std::vector<bool>* detached);

}  // namespace ds::runtime
