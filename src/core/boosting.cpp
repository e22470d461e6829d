#include "core/boosting.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/scoped.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"

namespace ds::core {

BoostingSimulator::BoostingSimulator(const arch::Platform& platform,
                                     const apps::AppProfile& app,
                                     std::size_t instances,
                                     std::size_t threads,
                                     MappingPolicy policy)
    : platform_(&platform),
      app_(&app),
      instances_(instances),
      threads_(threads),
      activity_(app.Activity(threads)),
      estimator_(platform) {
  if (instances * threads > platform.num_cores())
    throw std::invalid_argument(
        "BoostingSimulator: workload does not fit the chip");
  active_set_ = SelectCores(platform, instances * threads, policy);
  chip_domain_ = DomainOfCore(std::vector<std::size_t>(instances, 0));
}

std::vector<std::size_t> BoostingSimulator::DomainOfCore(
    std::span<const std::size_t> domain_of_instance) const {
  std::vector<std::size_t> domain(platform_->num_cores(), kDark);
  for (std::size_t i = 0; i < instances_; ++i)
    for (std::size_t t = 0; t < threads_; ++t)
      domain[active_set_[i * threads_ + t]] = domain_of_instance[i];
  return domain;
}

void BoostingSimulator::PowersAt(std::span<const std::size_t> domain_of_core,
                                 std::span<const std::size_t> levels,
                                 std::span<const double> die_temps,
                                 std::span<double> out) const {
  const power::PowerModel& pm = platform_->power_model();
  const power::DvfsLadder& ladder = platform_->ladder();
  for (std::size_t c = 0; c < out.size(); ++c) {
    const std::size_t d = domain_of_core[c];
    if (d == kDark) {
      out[c] = pm.DarkCorePower(die_temps[c]);
    } else {
      const power::VfLevel& vf = ladder[levels[d]];
      out[c] = pm.TotalPower(activity_, app_->ceff22_nf, app_->pind22,
                             vf.vdd, vf.freq, die_temps[c]);
    }
  }
}

std::vector<double> BoostingSimulator::CorePowersAt(
    std::size_t level, std::span<const double> die_temps) const {
  std::vector<double> p(platform_->num_cores());
  PowersAt(chip_domain_, {&level, 1}, die_temps, p);
  return p;
}

apps::Workload BoostingSimulator::WorkloadAtLevel(std::size_t level) const {
  const power::VfLevel& vf = platform_->ladder()[level];
  apps::Workload w;
  w.AddN({app_, threads_, vf.freq, vf.vdd}, instances_);
  return w;
}

double BoostingSimulator::GipsAtLevel(std::size_t level) const {
  return WorkloadAtLevel(level).TotalGips();
}

Estimate BoostingSimulator::SteadyAtLevel(std::size_t level) const {
  return estimator_.EvaluateWorkload(WorkloadAtLevel(level), active_set_);
}

template <typename Visit>
void BoostingSimulator::ScanLadder(Visit&& visit) const {
  for (std::size_t level = 0; level < platform_->ladder().size(); ++level) {
    Estimate e;
    try {
      e = SteadyAtLevel(level);
    } catch (const std::runtime_error&) {
      return;  // thermal runaway at this level and above
    }
    visit(level, e);
  }
}

namespace {

/// MaxSafeConstantLevel's rule for one level's steady state.
bool SafeConstant(const Estimate& e, double power_cap_w) {
  return !e.thermal_violation && e.total_power_w <= power_cap_w;
}

}  // namespace

bool BoostingSimulator::MaxSafeConstantLevel(double power_cap_w,
                                             std::size_t* level_out) const {
  DS_REQUIRE(level_out != nullptr,
             "MaxSafeConstantLevel: level_out must not be null");
  bool found = false;
  ScanLadder([&](std::size_t level, const Estimate& e) {
    if (!SafeConstant(e, power_cap_w)) return;
    *level_out = level;
    found = true;
  });
  return found;
}

std::vector<double> BoostingSimulator::SteadyWarmStart(
    std::size_t level) const {
  std::vector<double> powers = CorePowersAt(
      level, std::vector<double>(platform_->num_cores(),
                                 platform_->thermal_model().ambient_c()));
  for (int pass = 1; pass < 3; ++pass)
    powers = CorePowersAt(level, platform_->solver().Solve(powers));
  return powers;
}

BoostTrace BoostingSimulator::RunLoop(const BoostLaw& law,
                                      std::size_t start_level,
                                      double duration_s,
                                      double control_period_s) const {
  BoostLoop loop(*this, law, start_level, duration_s, control_period_s);
  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);
  sim.InitializeSteadyState(SteadyWarmStart(start_level), platform_->solver());
  const std::size_t n = platform_->num_cores();
  const std::size_t stride = std::max<std::size_t>(1, loop.steps() / 1000);
  std::vector<double> time_s;
  std::vector<double> gips;
  std::vector<double> peak_temp_c;
  std::vector<double> power_w;
  for (std::vector<double>* v : {&time_s, &gips, &peak_temp_c, &power_w})
    v->reserve((loop.steps() + stride - 1) / stride);
  for (std::size_t s = 0; s < loop.steps(); ++s) {
    sim.Step(loop.Control(sim.state().first(n)));
    if (s % stride != 0) continue;
    const std::span<const double> die = sim.state().first(n);
    time_s.push_back(loop.time_s());
    gips.push_back(loop.gips());
    peak_temp_c.push_back(*std::max_element(die.begin(), die.end()));
    power_w.push_back(loop.power_w());
  }
  BoostTrace trace = loop.Finish(sim.state().first(n));
  trace.time_s = std::move(time_s);
  trace.gips = std::move(gips);
  trace.peak_temp_c = std::move(peak_temp_c);
  trace.power_w = std::move(power_w);
  return trace;
}

BoostTrace BoostingSimulator::RunBoosting(
    std::size_t start_level, double threshold_c, double power_cap_w,
    double duration_s, double control_period_s) const {
  DS_TELEM_SPAN_ARG("controller", "boosting_run",
                    ds::telemetry::TraceLevel::kSpan, "duration_s",
                    duration_s);
  return RunLoop({BoostLaw::Kind::kTurbo, threshold_c, power_cap_w},
                 start_level, duration_s, control_period_s);
}

BoostTrace BoostingSimulator::RunPerInstanceBoosting(
    std::size_t start_level, double threshold_c, double power_cap_w,
    double duration_s, double control_period_s) const {
  return RunLoop({BoostLaw::Kind::kPerInstance, threshold_c, power_cap_w},
                 start_level, duration_s, control_period_s);
}

BoostTrace BoostingSimulator::RunRaplBoosting(
    std::size_t start_level, double pl1_w, double pl2_w, double tau_s,
    double threshold_c, double duration_s, double control_period_s) const {
  return RunLoop({BoostLaw::Kind::kRapl, threshold_c, pl2_w, pl1_w, tau_s},
                 start_level, duration_s, control_period_s);
}

BoostingSimulator::QuasiSteadyBoost BoostingSimulator::EstimateBoosting(
    double threshold_c, double power_cap_w) const {
  return Compare(threshold_c, power_cap_w).boost;
}

BoostingSimulator::Comparison BoostingSimulator::Compare(
    double threshold_c, double power_cap_w) const {
  Comparison out;
  // The boost base is the highest level whose steady peak stays at or
  // below the threshold; when no level qualifies, the controller pins
  // the floor (level 0). `above` is the level over the base, unless it
  // ran away.
  std::optional<Estimate> base;
  std::optional<Estimate> above;
  std::size_t base_level = 0;
  ScanLadder([&](std::size_t level, Estimate& e) {
    if (SafeConstant(e, power_cap_w)) {
      out.feasible = true;
      out.level = level;
      out.steady = e;
    }
    if (level == 0 ||
        (e.peak_temp_c <= threshold_c && e.total_power_w <= power_cap_w)) {
      base = std::move(e);
      base_level = level;
      above.reset();
    } else if (level == base_level + 1) {
      above = std::move(e);
    }
  });
  if (!base) base = SteadyAtLevel(0);  // level 0 ran away: rethrows

  QuasiSteadyBoost& boost = out.boost;
  boost.base_level = base_level;
  const std::size_t up = base_level + 1;
  // No boost at the ladder top, or when the level above runs away or
  // exceeds the cap.
  if (!above || above->total_power_w > power_cap_w) {
    boost.avg_gips = GipsAtLevel(base_level);
    boost.avg_power_w = boost.peak_power_w = base->total_power_w;
    return out;
  }
  const double denom = above->peak_temp_c - base->peak_temp_c;
  const double d =
      denom <= 1e-9
          ? 1.0
          : std::clamp((threshold_c - base->peak_temp_c) / denom, 0.0, 1.0);
  boost.boosted = d > 0.0;
  boost.duty = d;
  boost.avg_gips =
      (1.0 - d) * GipsAtLevel(base_level) + d * GipsAtLevel(up);
  boost.avg_power_w =
      (1.0 - d) * base->total_power_w + d * above->total_power_w;
  boost.peak_power_w = above->total_power_w;
  return out;
}

BoostTrace BoostingSimulator::RunConstant(std::size_t level,
                                          double duration_s) const {
  // At a fixed level the trajectory starting from its own steady state
  // is constant; evaluate once and synthesize the (flat) trace.
  const Estimate e = SteadyAtLevel(level);
  const double gips = GipsAtLevel(level);
  BoostTrace trace;
  const std::size_t samples =
      static_cast<std::size_t>(std::lround(duration_s / 1e-3));
  const std::size_t stride = std::max<std::size_t>(1, samples / 1000);
  for (std::size_t s = 0; s < samples; s += stride) {
    trace.time_s.push_back(static_cast<double>(s) * 1e-3);
    trace.gips.push_back(gips);
    trace.peak_temp_c.push_back(e.peak_temp_c);
    trace.power_w.push_back(e.total_power_w);
  }
  trace.avg_gips = gips;
  trace.avg_power_w = e.total_power_w;
  trace.max_power_w = e.total_power_w;
  trace.max_temp_c = e.peak_temp_c;
  trace.duration_s = duration_s;
  trace.energy_j = e.total_power_w * duration_s;
  return trace;
}

BoostLoop::BoostLoop(const BoostingSimulator& sim, const BoostLaw& law,
                     std::size_t start_level, double duration_s,
                     double control_period_s)
    : sim_(&sim), law_(law), period_s_(control_period_s) {
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  DS_REQUIRE(positive(duration_s) && positive(control_period_s),
             "BoostLoop: duration " << duration_s << " s and control period "
                 << control_period_s << " s must be finite and positive");
  DS_REQUIRE(law.kind != BoostLaw::Kind::kRapl || positive(law.tau_s),
             "BoostLoop: RAPL window " << law.tau_s
                                       << " s must be finite and positive");
  const power::DvfsLadder& ladder = sim.platform_->ladder();
  DS_REQUIRE(start_level < ladder.size(),
             "BoostLoop: start level " << start_level << " of "
                                       << ladder.size());
  steps_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(duration_s / control_period_s)));

  const bool per_instance = law.kind == BoostLaw::Kind::kPerInstance;
  for (std::size_t i = 0; i < sim.instances_; ++i)
    domain_of_instance_.push_back(per_instance ? i : 0);
  domain_of_core_ = sim.DomainOfCore(domain_of_instance_);
  levels_.assign(per_instance ? sim.instances_ : 1, start_level);
  powers_.resize(sim.platform_->num_cores());
  trace_.duration_s = duration_s;
}

double BoostLoop::TotalPower(std::span<const double> die_temps) {
  sim_->PowersAt(domain_of_core_, levels_, die_temps, powers_);
  double total = 0.0;
  for (const double p : powers_) total += p;
  return total;
}

void BoostLoop::MoveTo(std::size_t d, std::size_t level) {
  if (level == levels_[d]) return;
  DS_TELEM_COUNT("boost.level_changes", 1);
  ds::telemetry::EmitInstant(
      "controller", level > levels_[d] ? "boost_up" : "boost_down",
      ds::telemetry::TraceLevel::kDecision, "freq_ghz",
      sim_->platform_->ladder()[level].freq, "sim_time_s", time_s_);
  levels_[d] = level;
}

void BoostLoop::Decide(double peak, std::span<const double> die_temps) {
  const power::DvfsLadder& ladder = sim_->platform_->ladder();
  if (law_.kind == BoostLaw::Kind::kPerInstance) {
    // Each domain by its hottest core, up only under the power cap.
    const double total_now = TotalPower(die_temps);
    for (std::size_t d = 0; d < levels_.size(); ++d) {
      double hottest = 0.0;
      for (std::size_t c = 0; c < die_temps.size(); ++c)
        if (domain_of_core_[c] == d) hottest = std::max(hottest, die_temps[c]);
      if (hottest >= law_.threshold_c) {
        MoveTo(d, ladder.StepDown(levels_[d]));
      } else if (total_now < law_.power_cap_w) {
        MoveTo(d, ladder.StepUp(levels_[d]));
      }
    }
    return;
  }
  // RAPL's power average starts at the warm start's power.
  if (law_.kind == BoostLaw::Kind::kRapl && s_ == 0)
    ewma_w_ = TotalPower(die_temps);
  const bool down = law_.kind == BoostLaw::Kind::kTurbo
                        ? !(peak < law_.threshold_c)
                        : peak > law_.threshold_c || ewma_w_ > law_.pl1_w;
  const std::size_t level = levels_[0];
  if (down) {
    MoveTo(0, ladder.StepDown(level));
    return;
  }
  const std::size_t up = ladder.StepUp(level);
  if (up == level) return;
  levels_[0] = up;
  const bool fits = TotalPower(die_temps) <= law_.power_cap_w;
  levels_[0] = level;
  if (fits) MoveTo(0, up);
}

std::span<const double> BoostLoop::Control(
    std::span<const double> die_temps) {
  DS_REQUIRE(s_ < steps_ && die_temps.size() == powers_.size(),
             "BoostLoop::Control: period " << s_ << " of " << steps_ << ", "
                 << die_temps.size() << " die temperatures");
  const double peak = *std::max_element(die_temps.begin(), die_temps.end());
  if (s_ == 0) {
    warm_peak_c_ = peak;
  } else {
    trace_.max_temp_c = std::max(trace_.max_temp_c, peak);  // period s_ - 1
  }
  Decide(peak, die_temps);

  const double total = TotalPower(die_temps);
  if (law_.kind == BoostLaw::Kind::kRapl)
    ewma_w_ += period_s_ / law_.tau_s * (total - ewma_w_);
  // Bitwise Workload::TotalGips when every domain is at one level.
  const power::DvfsLadder& ladder = sim_->platform_->ladder();
  double gips = 0.0;
  for (const std::size_t d : domain_of_instance_)
    gips += sim_->app_->InstanceGips(sim_->threads_, ladder[levels_[d]].freq);
  gips_acc_ += gips;
  gips_ = gips;
  power_w_ = total;
  trace_.energy_j += total * period_s_;
  trace_.max_power_w = std::max(trace_.max_power_w, total);
  time_s_ += period_s_;
  ++s_;
  return powers_;
}

BoostTrace BoostLoop::Finish(std::span<const double> die_temps) {
  DS_REQUIRE(s_ == steps_ && die_temps.size() == powers_.size(),
             "BoostLoop::Finish: " << s_ << " of " << steps_ << " periods, "
                 << die_temps.size() << " die temperatures");
  trace_.max_temp_c = std::max(
      trace_.max_temp_c, *std::max_element(die_temps.begin(), die_temps.end()));
  trace_.avg_gips = gips_acc_ / static_cast<double>(steps_);
  trace_.avg_power_w = trace_.energy_j / trace_.duration_s;
  return std::move(trace_);
}

}  // namespace ds::core
