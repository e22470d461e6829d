// Deterministic pseudo-random number generation for workload synthesis.
//
// All experiments must be exactly reproducible run-to-run, so every
// randomized component takes an explicit seed and uses this engine
// (std::mt19937_64 wrapped to keep call sites terse).
#pragma once

#include <cstdint>
#include <random>

namespace ds::util {

/// SplitMix64 (Steele, Lea and Flood): one golden-ratio increment and
/// the finalizer. The one mixer behind per-job sweep seeds, chaos and
/// backoff draws and model content hashes.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  /// Normal with the given mean and std-dev.
  double Normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ds::util
