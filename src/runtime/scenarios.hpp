// Scenario runners: one pure function per SweepKind mapping a bound
// SweepPoint to its metric set. Runners are referentially transparent
// (explicit seeds, no shared mutable state beyond the ModelCache, whose
// cached artifacts are bitwise-identical to uncached computation), so
// job results do not depend on scheduling -- the engine's determinism
// guarantee rests on this file.
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

/// Executes one job. Fills `result->metrics` (and `skipped` for
/// infeasible scenarios); throws on invalid scenarios (unknown node or
/// app, inconsistent parameters), which the engine records as a failed
/// job. `cache` supplies the shared thermal artifacts.
void RunScenario(SweepKind kind, const SweepJob& job, ModelCache& cache,
                 JobResult* result);

/// The metric column names RunScenario emits for `kind`, in order.
std::vector<std::string> MetricColumns(SweepKind kind);

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
/// propagator: one panel pass over M_state/M_in advances every member
/// per control period. All jobs must share BatchCohortKey. Fills
/// results[i] for jobs[i] and sets ok on completion.
///
/// `should_detach` (nullable) is polled once per control period per
/// member; returning true detaches that member (its deadline passed or
/// its cancel token fired). A detached member -- and any member whose
/// setup or stepping throws, when `should_detach` is non-null -- is
/// reported via detached[i] with its result slot left untouched, so
/// the engine can re-run it through the scalar retry ladder. With
/// `should_detach == nullptr` (the scalar lane, k = 1), member
/// exceptions propagate to the caller exactly like every other runner.
///
/// Determinism: members step through the panel kernels whose per-
/// element summation order is independent of k, so a job's metrics are
/// bitwise identical at any cohort size, including the k = 1 scalar
/// lane -- this is what keeps sweep CSV output byte-identical at any
/// cohort width (and so at any thread count). Each member runs
/// BoostingSimulator::RunBoosting's closed loop (Fig. 11) from the
/// same warm start at MaxSafeConstantLevel, so its avg_gips, energy_j
/// and max_power_w are bitwise RunBoosting's.
void RunBoostTransientCohort(
    std::span<const SweepJob* const> jobs, ModelCache& cache,
    std::span<JobResult* const> results,
    const std::function<bool(std::size_t)>& should_detach,
    std::vector<bool>* detached);

}  // namespace ds::runtime
