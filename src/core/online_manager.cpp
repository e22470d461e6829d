#include "core/online_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::core {
namespace {

struct Job {
  const apps::AppProfile* app;
  std::size_t remaining;       // epochs left
  std::size_t arrival_epoch;
  std::size_t admit_epoch = 0;
  std::vector<std::size_t> cores;
};

/// Incremental dispersion: picks `count` cores from the free set,
/// greedily minimizing the predicted peak rise given the budget powers
/// already placed on the chip. `rise` is the current per-core rise
/// estimate (A * p) and is updated in place.
std::vector<std::size_t> PlaceIncremental(const util::Matrix& influence,
                                          std::vector<bool>& used,
                                          std::vector<double>& rise,
                                          double new_core_power,
                                          std::size_t count) {
  const std::size_t n = influence.rows();
  std::vector<std::size_t> placed;
  placed.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t best = n;
    double best_peak = std::numeric_limits<double>::infinity();
    for (std::size_t cand = 0; cand < n; ++cand) {
      if (used[cand]) continue;
      // Peak after adding cand: existing hotspots plus cand itself.
      double peak = rise[cand] + influence(cand, cand) * new_core_power;
      for (std::size_t i = 0; i < n; ++i) {
        if (!used[i] && i != cand) continue;
        peak = std::max(peak, rise[i] + influence(i, cand) * new_core_power);
      }
      if (peak < best_peak) {
        best_peak = peak;
        best = cand;
      }
    }
    DS_INVARIANT(best < n, "PlaceIncremental: greedy step " << k
                               << " found no free core");
    used[best] = true;
    placed.push_back(best);
    for (std::size_t i = 0; i < n; ++i)
      rise[i] += influence(i, best) * new_core_power;
  }
  return placed;
}

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kTdpBudget:
      return "tdp-budget";
    case AdmissionPolicy::kThermalSafe:
      return "thermal-safe";
  }
  return "?";
}

void OnlineConfig::Validate() const {
  DS_REQUIRE(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
             "OnlineConfig: arrival_rate " << arrival_rate
                 << " must be finite and >= 0");
  DS_REQUIRE(min_duration >= 1 && max_duration >= min_duration,
             "OnlineConfig: duration band [" << min_duration << ", "
                 << max_duration << "] must satisfy 1 <= min <= max");
  DS_REQUIRE(threads >= 1, "OnlineConfig: threads must be >= 1");
  DS_REQUIRE(std::isfinite(tdp_w) && tdp_w > 0.0,
             "OnlineConfig: tdp_w " << tdp_w << " must be positive");
  faults.Validate();
}

OnlineManager::OnlineManager(const arch::Platform& platform,
                             AdmissionPolicy policy, OnlineConfig config)
    : platform_(&platform), policy_(policy), config_(config) {
  config_.Validate();
}

OnlineResult OnlineManager::Run(std::size_t epochs) const {
  DS_TELEM_SPAN_ARG("sim", "online_run", ds::telemetry::TraceLevel::kSpan,
                    "epochs", static_cast<double>(epochs));
  const std::size_t n = platform_->num_cores();
  const DarkSiliconEstimator estimator(*platform_);
  const std::size_t level = platform_->ladder().NominalLevel();
  const power::VfLevel& vf = platform_->ladder()[level];
  const util::Matrix& influence = platform_->solver().InfluenceMatrix();
  const double headroom =
      platform_->tdtm_c() - platform_->thermal_model().ambient_c();
  const auto& suite = apps::ParsecSuite();

  util::Rng rng(config_.seed);
  // std::poisson_distribution requires a positive mean: at rate 0 no
  // job arrives and no engine value is drawn.
  std::optional<std::poisson_distribution<int>> arrivals;
  if (config_.arrival_rate > 0.0) arrivals.emplace(config_.arrival_rate);

  std::vector<Job> running;
  std::deque<Job> queue;
  std::vector<bool> used(n, false);
  std::vector<bool> down(n, false);  // fault outages (degraded core set)
  std::vector<double> rise(n, 0.0);  // predicted rise from budget powers
  double budget_used = 0.0;

  // One epoch is one fault control step; null when disabled.
  std::unique_ptr<faults::FaultInjector> injector;
  if (config_.faults.enabled)
    injector = std::make_unique<faults::FaultInjector>(config_.faults, n);

  OnlineResult result;
  double wait_acc = 0.0;
  std::size_t admitted = 0;
  double gips_acc = 0.0;
  double active_acc = 0.0;

  auto budget_core_power = [&](const apps::AppProfile& app) {
    return estimator.BudgetCorePower(app, config_.threads, level);
  };

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    DS_TELEM_COUNT("online.epochs", 1);
    // 0. Fault schedule: migrate jobs off cores that went down.
    if (injector) {
      const double now_s = static_cast<double>(epoch);
      injector->BeginStep(now_s, 1.0);
      for (const std::size_t c : injector->TakeNewlyRecoveredCores())
        down[c] = false;
      const std::vector<std::size_t> failed = injector->TakeNewlyDownCores();
      for (const std::size_t c : failed) down[c] = true;
      if (!failed.empty()) {
        for (auto it = running.begin(); it != running.end();) {
          const bool hit = std::any_of(
              it->cores.begin(), it->cores.end(),
              [&](std::size_t c) { return down[c]; });
          if (!hit) {
            ++it;
            continue;
          }
          const double p_core = budget_core_power(*it->app);
          for (const std::size_t c : it->cores) {
            used[c] = false;
            for (std::size_t i = 0; i < n; ++i)
              rise[i] -= influence(i, c) * p_core;
          }
          budget_used -= p_core * static_cast<double>(config_.threads);
          it->cores.clear();
          ++result.jobs_requeued;
          DS_TELEM_COUNT("online.jobs_requeued", 1);
          ds::telemetry::EmitInstant("controller", "job_requeued",
                                     ds::telemetry::TraceLevel::kDecision,
                                     "epoch", static_cast<double>(epoch));
          queue.push_front(std::move(*it));
          it = running.erase(it);
        }
        for (const std::size_t c : failed) {
          injector->log().Record(
              now_s, faults::FaultEventKind::kMitigated,
              injector->CoreDownPermanent(c)
                  ? faults::FaultKind::kCoreFailStop
                  : faults::FaultKind::kCoreTransient,
              c, 0.0,
              "jobs requeued; admission re-runs on the degraded core set");
        }
      }
    }

    // 1. Arrivals.
    const int k = arrivals ? (*arrivals)(rng.engine()) : 0;
    for (int i = 0; i < k; ++i) {
      Job job;
      job.app = &suite[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(suite.size()) - 1))];
      job.remaining = static_cast<std::size_t>(
          rng.UniformInt(static_cast<int>(config_.min_duration),
                         static_cast<int>(config_.max_duration)));
      job.arrival_epoch = epoch;
      queue.push_back(job);
      ++result.jobs_arrived;
    }

    // 2. Admission (FIFO; head-of-line blocking keeps it fair).
    while (!queue.empty()) {
      Job& job = queue.front();
      std::size_t free_cores = 0;
      for (std::size_t c = 0; c < n; ++c)
        if (!used[c] && !down[c]) ++free_cores;
      if (free_cores < config_.threads) break;

      const double p_core = budget_core_power(*job.app);
      if (policy_ == AdmissionPolicy::kTdpBudget) {
        if (budget_used + p_core * static_cast<double>(config_.threads) >
            config_.tdp_w)
          break;
        // Contiguous placement: lowest-index free (and alive) cores.
        for (std::size_t c = 0; c < n && job.cores.size() < config_.threads;
             ++c) {
          if (!used[c] && !down[c]) {
            used[c] = true;
            job.cores.push_back(c);
          }
        }
        for (const std::size_t c : job.cores)
          for (std::size_t i = 0; i < n; ++i)
            rise[i] += influence(i, c) * p_core;
      } else {
        // Thermal-safe: tentatively place dispersed on the alive free
        // cores, admit only if the predicted steady peak stays below
        // T_DTM.
        std::vector<bool> used_try = used;
        for (std::size_t c = 0; c < n; ++c)
          if (down[c]) used_try[c] = true;  // exclude from placement
        std::vector<double> rise_try = rise;
        const std::vector<std::size_t> placed = PlaceIncremental(
            influence, used_try, rise_try, p_core, config_.threads);
        const double peak =
            *std::max_element(rise_try.begin(), rise_try.end());
        if (peak > headroom) break;
        for (const std::size_t c : placed) used[c] = true;
        rise = std::move(rise_try);
        job.cores = placed;
      }
      budget_used += p_core * static_cast<double>(config_.threads);
      DS_TELEM_COUNT("online.jobs_admitted", 1);
      job.admit_epoch = epoch;
      wait_acc += static_cast<double>(epoch - job.arrival_epoch);
      ++admitted;
      running.push_back(std::move(job));
      queue.pop_front();
    }

    // 3. Evaluate the epoch's true thermal steady state.
    apps::Workload w;
    std::vector<std::size_t> active;
    for (const Job& job : running) {
      w.Add({job.app, config_.threads, vf.freq, vf.vdd});
      active.insert(active.end(), job.cores.begin(), job.cores.end());
    }
    double epoch_gips = 0.0;
    double epoch_peak = platform_->thermal_model().ambient_c();
    if (!running.empty()) {
      const Estimate e = estimator.EvaluateWorkload(w, active);
      epoch_gips = e.total_gips;
      epoch_peak = e.peak_temp_c;
      if (e.thermal_violation) ++result.violation_epochs;
    }
    gips_acc += epoch_gips;
    active_acc += static_cast<double>(active.size());
    result.max_peak_temp_c = std::max(result.max_peak_temp_c, epoch_peak);
    result.epoch_gips.push_back(epoch_gips);
    result.epoch_peak_temp.push_back(epoch_peak);

    // 4. Departures.
    for (auto it = running.begin(); it != running.end();) {
      if (--it->remaining == 0) {
        const double p_core = budget_core_power(*it->app);
        for (const std::size_t c : it->cores) {
          used[c] = false;
          for (std::size_t i = 0; i < n; ++i)
            rise[i] -= influence(i, c) * p_core;
        }
        budget_used -= p_core * static_cast<double>(config_.threads);
        ++result.jobs_completed;
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }

  result.jobs_rejected = queue.size();
  result.avg_wait_epochs =
      admitted > 0 ? wait_acc / static_cast<double>(admitted) : 0.0;
  result.avg_gips = gips_acc / static_cast<double>(epochs);
  result.avg_active_cores = active_acc / static_cast<double>(epochs);
  if (injector) {
    result.cores_failed = injector->num_down_cores();
    result.fault_log = std::move(injector->log());
  }
  return result;
}

}  // namespace ds::core
