// Shared thermal-model cache for the sweep engine.
//
// Every scenario in a sweep that shares a floorplan/package also shares
// the expensive thermal artifacts: the steady-state response block B
// (an LU factorization of the RC conductance matrix, its loops bounded
// by the matrix's profile of about N + 4 columns either side of the
// diagonal in 4N+12 nodes, then N unit-injection solves; B's die rows
// are the influence matrix) and the TSP-per-active-count tables
// derived from it.
// Pre-engine, each bench rebuilt those per Platform instance; the cache
// memoizes them under a content key so that a 70-job sweep over one
// floorplan performs exactly one factorization.
//
// Keying: the full geometric/material content of (Floorplan,
// PackageParams), compared value-for-value -- two floorplans with the
// same grid and tile size hit the same entry no matter how they were
// constructed. Bitwise-identical inputs produce bitwise-identical
// cached results, so cached and uncached solves agree exactly (tested
// by test_runtime: max-abs diff == 0).
//
// Thread safety: the entry map is mutex-protected; each entry is built
// exactly once under a std::once_flag, so concurrent first requests for
// one key block until the single builder finishes. Hit/miss counts are
// therefore deterministic for a fixed job set: misses == distinct keys.
//
// Byte budget: set_budget_bytes caps the approximate resident size
// (the RC model's edge list and G/C diagonals, the steady-state block
// B, folded propagators).
// After each request the least-recently-used entries are evicted until
// the cache fits -- except the entry just requested,
// which is pinned so a single oversized floorplan still works (the
// budget degrades to "keep one"). Eviction only drops the cache's
// reference: in-flight users keep their shared_ptrs alive, so a tight
// budget costs rebuilds (counted in stats().evictions and the
// "modelcache.evictions" counter), never correctness and never an
// unbounded footprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/lock_levels.hpp"
#include "util/thread_annotations.hpp"

#include "arch/platform.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"

namespace ds::runtime {

/// Content hash of the (floorplan, package) cache key: SplitMix64 mixed
/// over the key scalars' bit patterns. This is the `model_hash`
/// correlation field on cache_evict events -- a Perfetto/ds_report user
/// can tie an eviction back to the model family it dropped.
std::uint64_t ModelContentHash(const thermal::Floorplan& fp,
                               const thermal::PackageParams& pkg = {});

/// The shareable per-floorplan thermal state: RC network, a solver
/// built from it (immutable, so sharing is read-only)
/// and the dt -> step-propagator cache tied to the model, so every
/// sweep job at a given control period reuses one folded step operator
/// (PropagatorSet is internally synchronized).
struct ThermalAssets {
  std::shared_ptr<const thermal::RcModel> model;
  std::shared_ptr<const thermal::SteadyStateSolver> solver;
  std::shared_ptr<const thermal::PropagatorSet> propagators;
};

class ModelCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t tsp_hits = 0;
    std::uint64_t tsp_misses = 0;
    std::uint64_t evictions = 0;  // entries dropped to fit the budget
    std::uint64_t bytes = 0;      // approx resident bytes after last Get
  };

  /// Returns the shared assets for (fp, pkg), building them on first
  /// request. Also bumps the "modelcache.hits"/"modelcache.misses"
  /// telemetry counters.
  ThermalAssets Get(const thermal::Floorplan& fp,
                    const thermal::PackageParams& pkg = {});

  /// Get() for the platform's floorplan (default package) followed by
  /// Platform::AdoptThermalAssets, after which the platform can be used
  /// from the calling thread without ever factorizing.
  void InstallThermal(arch::Platform& platform);

  /// Memoized worst-case (densest-mapping) TSP(m) for the platform's
  /// thermal model; equals core::Tsp(platform).WorstCase(m) exactly.
  double TspWorstCase(const arch::Platform& platform, std::size_t m);

  /// Memoized best-case (spread-mapping) TSP(m); equals
  /// core::Tsp(platform).BestCase(m) exactly.
  double TspBestCase(const arch::Platform& platform, std::size_t m);

  /// Drops every entry (tests; long-lived processes switching studies).
  void Clear();

  /// Byte ceiling for cached entries; 0 = unlimited. Takes effect on
  /// the next Get (never evicts eagerly here).
  void set_budget_bytes(std::size_t bytes);
  std::size_t budget_bytes() const;

  Stats stats() const;

  /// The process-wide cache used by default by the sweep engine.
  static ModelCache& Process();

 private:
  struct Entry {
    std::once_flag once;
    ThermalAssets assets;
    std::atomic<bool> built{false};  // assets valid (set after call_once)
    // Guarded by the *enclosing* ModelCache::mu_ -- a nested struct
    // cannot name the outer capability, so this one stays a comment
    // contract (every access site sits under a MutexLock on mu_).
    std::uint64_t last_use = 0;
    std::uint64_t key_hash = 0;      // content-key hash (event correlation)
    /// Taken only after ModelCache::mu_ is released, never beneath it.
    Mutex tsp_mu{locks::kModelCacheEntry};
    // ('w' | 'b', active count) -> budget [W/core]
    std::map<std::pair<char, std::size_t>, double> tsp DS_GUARDED_BY(tsp_mu);
  };

  std::shared_ptr<Entry> GetEntry(const thermal::Floorplan& fp,
                                  const thermal::PackageParams& pkg,
                                  bool count_stats);
  double TspForEntry(const arch::Platform& platform, std::size_t m,
                     char kind);

  /// Approximate resident bytes of one *built* entry (0 while the
  /// builder is still running -- mid-build entries are never charged
  /// or evicted; their size lands on the next enforcement pass).
  static std::size_t EntryBytes(const Entry& entry);

  /// Recomputes total bytes and evicts LRU entries (never `pinned`)
  /// until the budget fits. Updates bytes_ and the telemetry gauge.
  void EnforceBudget(const Entry* pinned);

  mutable Mutex mu_{locks::kModelCache};
  std::map<std::vector<double>, std::shared_ptr<Entry>> entries_
      DS_GUARDED_BY(mu_);
  std::size_t budget_bytes_ DS_GUARDED_BY(mu_) = 0;   // 0 = unlimited
  std::uint64_t use_counter_ DS_GUARDED_BY(mu_) = 0;  // LRU clock
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> tsp_hits_{0};
  std::atomic<std::uint64_t> tsp_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace ds::runtime
