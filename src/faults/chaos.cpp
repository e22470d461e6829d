#include "faults/chaos.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace ds::faults {

void CancelToken::Cancel() {
  {
    const MutexLock lock(mu_);
    cancelled_ = true;
  }
  cv_.NotifyAll();
}

bool CancelToken::cancelled() const {
  const MutexLock lock(mu_);
  return cancelled_;
}

bool CancelToken::SleepFor(double duration_ms) const {
  MutexLock lock(mu_);
  if (duration_ms <= 0.0) return !cancelled_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(duration_ms));
  while (!cancelled_) {
    if (cv_.WaitUntil(lock, deadline)) return !cancelled_;
  }
  return false;
}

void ChaosConfig::Validate() const {
  const auto rate_ok = [](double r) {
    return std::isfinite(r) && r >= 0.0 && r <= 1.0;
  };
  if (!rate_ok(fail_rate) || !rate_ok(delay_rate))
    throw std::invalid_argument(
        "ChaosConfig: rates must be finite and in [0, 1]");
  if (!std::isfinite(delay_ms) || delay_ms < 0.0)
    throw std::invalid_argument(
        "ChaosConfig: delay_ms must be finite and >= 0");
  if (max_faulty_attempts == 0)
    throw std::invalid_argument(
        "ChaosConfig: max_faulty_attempts must be >= 1 (use enabled=false "
        "to disable chaos)");
}

bool ChaosConfig::AnyChaosPossible() const {
  return enabled && (fail_rate > 0.0 || (delay_rate > 0.0 && delay_ms > 0.0));
}

ChaosInjector::ChaosInjector(const ChaosConfig& config) : config_(config) {
  config_.Validate();
}

ChaosDecision ChaosInjector::Decide(std::size_t job,
                                    std::size_t attempt) const {
  ChaosDecision d;
  if (!config_.enabled || attempt >= config_.max_faulty_attempts) return d;
  // SplitMix64 twice folds (job, attempt) into the chaos seed without
  // correlation between neighbouring jobs or attempts.
  util::Rng rng(util::SplitMix64(
      util::SplitMix64(config_.seed ^ static_cast<std::uint64_t>(job)) ^
      static_cast<std::uint64_t>(attempt)));
  // Fixed sampling order (delay first) so a decision never depends on
  // which classes are enabled elsewhere.
  const double delay_draw = rng.Uniform(0.0, 1.0);
  const double fail_draw = rng.Uniform(0.0, 1.0);
  if (config_.delay_rate > 0.0 && delay_draw < config_.delay_rate &&
      config_.delay_ms > 0.0) {
    d.delay = true;
    d.delay_ms = config_.delay_ms;
  }
  if (config_.fail_rate > 0.0 && fail_draw < config_.fail_rate) d.fail = true;
  return d;
}

void ChaosInjector::LogDecision(FaultLog& log, const ChaosDecision& decision,
                                std::size_t job, std::size_t attempt) {
  const double t = static_cast<double>(attempt);
  const std::string detail =
      "job " + std::to_string(job) + " attempt " + std::to_string(attempt);
  if (decision.delay)
    log.Record(t, FaultEventKind::kInjected, FaultKind::kJobDelay, job,
               decision.delay_ms, detail);
  if (decision.fail)
    log.Record(t, FaultEventKind::kInjected, FaultKind::kJobTransient, job,
               0.0, detail);
}

}  // namespace ds::faults
