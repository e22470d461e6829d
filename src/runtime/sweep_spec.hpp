// Declarative sweep specification: a scenario kind, a base point and
// either a cartesian axis grid or an explicit point list, expanded into
// an ordered job sequence with per-job deterministic RNG seeds.
//
// JSON schema (see DESIGN.md §9):
//
//   {
//     "name": "fig05a",
//     "kind": "estimate",          // estimate | tsp_curve | tsp_perf |
//                                  // boost | characterize | speedup |
//                                  // boost_transient
//     "seed": 1,                   // optional, default 1
//     "base": {"node": "16nm", "tdp_w": 220},   // optional overrides
//     "axes": {"app": ["x264", "ferret"], "freq_ghz": [2.8, 3.6]},
//     "points": [{"app": "x264"}, ...]          // alternative to axes
//   }
//
// Exactly one of "axes"/"points" must be present. Axis expansion is
// cartesian in declaration order with the first axis outermost, so the
// job order matches the nested for-loops of the pre-engine benches.
// Every job derives an rng seed by SplitMix64-mixing the spec seed with
// the job index: stable under resume and independent of thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ds::runtime {

enum class SweepKind {
  kEstimate,      // dark-silicon estimate under TDP or temperature
  kTspCurve,      // TSP(m) budget for one active count
  kTspPerf,       // Fig. 10-style TSP-budgeted performance
  kBoost,         // boosting vs constant-frequency comparison
  kCharacterize,  // uarch first-principles app characterization
  kSpeedup,       // lock/barrier speed-up curve + Amdahl fit
  kBoostTransient,  // closed-loop transient boosting (batchable stepping)
};

const char* SweepKindName(SweepKind kind);
SweepKind SweepKindByName(std::string_view name);

/// One fully bound scenario. Fields not consumed by a kind are ignored
/// by its runner; defaults mirror the CLI/bench defaults.
struct SweepPoint {
  std::string node = "16nm";
  std::size_t cores = 0;  // 0 = the node's paper platform core count
  std::string app = "x264";
  double freq_ghz = 0.0;  // 0 = the node's nominal frequency
  std::string constraint = "tdp";  // estimate: "tdp" | "thermal"
  double tdp_w = 185.0;
  std::string mapping = "contiguous";  // or "worst"/"spread" (tsp_curve)
  std::size_t threads = 8;             // threads per instance
  std::size_t instances = 1;           // boost
  double power_cap_w = 500.0;          // boost
  double dark_pct = 0.0;               // tsp_perf
  std::size_t count = 1;               // tsp_curve active cores
  double tdtm_c = 0.0;                 // 0 = platform default (80 C)
  double duration_s = 0.25;            // boost_transient simulated time
  double control_ms = 1.0;  // boost_transient control period = step dt
};

/// An expanded job: the bound point plus its stable identity. `params`
/// echoes the axis/point fields that vary in this sweep, in declaration
/// order, for result rows and checkpoint records.
struct SweepJob {
  std::size_t index = 0;
  std::uint64_t rng_seed = 0;
  SweepPoint point;
  std::vector<std::pair<std::string, std::string>> params;
};

class SweepSpec {
 public:
  SweepSpec() = default;
  SweepSpec(std::string name, SweepKind kind);

  /// Parses and validates a JSON spec; contract-checked at this
  /// boundary (unknown kind/field, empty axis, axes+points conflict
  /// all throw ds::ContractViolation).
  static SweepSpec FromJsonText(std::string_view text);
  static SweepSpec FromJsonFile(const std::string& path);

  /// Builder API for programmatic specs (the converted benches).
  /// `Set` binds a base-point field; `Axis` appends a swept axis.
  SweepSpec& Set(const std::string& field, const std::string& value);
  SweepSpec& Set(const std::string& field, double value);
  SweepSpec& Axis(const std::string& field,
                  std::vector<std::string> values);
  SweepSpec& Axis(const std::string& field, std::vector<double> values);
  SweepSpec& Point(
      std::vector<std::pair<std::string, std::string>> fields);

  const std::string& name() const { return name_; }
  SweepKind kind() const { return kind_; }
  std::uint64_t seed() const { return seed_; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  /// Column names for the varying parameters, in declaration order.
  std::vector<std::string> ParamColumns() const;

  /// Expands the grid (or point list) into the ordered job sequence.
  std::vector<SweepJob> Jobs() const;

  /// Content hash over kind, seed, and the expanded job parameters;
  /// checkpoints bind to this so a journal can only resume its own
  /// sweep.
  std::string Fingerprint() const;

 private:
  struct AxisDef {
    std::string field;
    std::vector<std::string> values;  // canonical string form
  };

  std::string name_ = "sweep";
  SweepKind kind_ = SweepKind::kEstimate;
  std::uint64_t seed_ = 1;
  std::vector<std::pair<std::string, std::string>> base_;
  std::vector<AxisDef> axes_;
  std::vector<std::vector<std::pair<std::string, std::string>>> points_;
};

/// Canonical string form for numeric spec values: shortest round-trip
/// ("%.17g" trimmed), used for params echoed into rows/checkpoints.
std::string CanonicalNumber(double v);

/// Job `index`'s seed: util::SplitMix64 of `seed` plus `index`
/// golden-ratio increments (exposed for tests).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index);

}  // namespace ds::runtime
