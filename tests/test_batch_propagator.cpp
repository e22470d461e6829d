// Batched lockstep stepping: a member's trajectory inside a k-wide
// cohort must be BITWISE identical (a) to a per-job TransientSimulator
// -- a one-member panel over the same fold -- and (b) at any cohort
// size, which is the determinism contract behind the sweep engine's
// byte-identical CSV promise at any cohort width and thread count and
// behind DTM, sprint, chip_sim and Fig. 11 sharing the sweep rows'
// fold order.
// Also covered: mid-cohort detachment (swap-last compaction leaves
// survivors untouched bitwise), mixed-dt cohorts off one PropagatorSet,
// and a TSan-hammered concurrent-cohort run over one shared, immutable
// propagator.
#include "thermal/batch_propagator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iomanip>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_engine.hpp"
#include "runtime/sweep_spec.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {
namespace {

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Exact (bitwise) equality of two state vectors.
bool BitwiseEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// Deterministic per-core power pattern, distinct per member.
std::vector<double> PowerPattern(std::size_t n, std::size_t member,
                                 std::size_t phase) {
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = 0.5 + ((i * 7 + member * 11 + phase * 3) % 8) * 0.375;  // 0.5..3.1 W
  return p;
}

/// Deterministic initial node state, distinct per member.
std::vector<double> InitialState(std::size_t nodes, std::size_t member) {
  std::vector<double> s(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    s[i] = 45.0 + ((i * 5 + member * 13) % 10) * 1.5;  // 45..58.5 C
  return s;
}

std::shared_ptr<const StepPropagator> MakeProp(const RcModel& model,
                                               double dt) {
  return std::make_shared<const StepPropagator>(model, dt);
}

TEST(BatchStepPropagator, MatchesPerJobSimulatorBitwise) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const std::size_t k = 4;

  // Seed each reference with a distinct warm state, then add that
  // exact state as a cohort member so both lanes start identically.
  std::vector<TransientSimulator> refs;
  BatchStepPropagator batch(prop, k);
  for (std::size_t j = 0; j < k; ++j) {
    refs.emplace_back(model, 1e-3);
    refs.back().InitializeSteadyState(PowerPattern(model.num_cores(), j, 0));
    ASSERT_EQ(batch.AddMember(refs.back().state()), j);
  }
  ASSERT_EQ(batch.k(), k);

  // Time-varying, per-member-distinct powers.
  for (std::size_t s = 0; s < 120; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<double> p =
          PowerPattern(model.num_cores(), j, s / 30);
      batch.SetPowers(j, p);
      refs[j].Step(p);
    }
    batch.Step();
  }
  std::vector<double> out(model.num_nodes());
  for (std::size_t j = 0; j < k; ++j) {
    batch.CopyState(j, out);
    EXPECT_TRUE(BitwiseEqual(out, refs[j].state())) << "member " << j;
    EXPECT_EQ(batch.PeakDieTemp(j), refs[j].PeakDieTemp());
  }
  EXPECT_EQ(batch.steps(), 120u);
}

TEST(BatchStepPropagator, BitwiseIdenticalAcrossCohortSizes) {
  const RcModel model(Floorplan::MakeGrid(25, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const std::vector<double> init = InitialState(model.num_nodes(), 0);

  // Lane A: the member alone (scalar lane, k = 1).
  BatchStepPropagator solo(prop, 1);
  ASSERT_EQ(solo.AddMember(init), 0u);
  // Lanes B, C: the same member sharing a panel with 1 / 4 others
  // carrying different states and powers.
  BatchStepPropagator duo(prop, 2);
  BatchStepPropagator five(prop, 5);
  ASSERT_EQ(duo.AddMember(init), 0u);
  ASSERT_EQ(five.AddMember(init), 0u);
  for (std::size_t j = 1; j < 2; ++j)
    duo.AddMember(InitialState(model.num_nodes(), j));
  for (std::size_t j = 1; j < 5; ++j)
    five.AddMember(InitialState(model.num_nodes(), j));

  for (std::size_t s = 0; s < 200; ++s) {
    const std::vector<double> p = PowerPattern(model.num_cores(), 0, s / 40);
    solo.SetPowers(0, p);
    solo.Step();
    duo.SetPowers(0, p);
    five.SetPowers(0, p);
    for (std::size_t j = 1; j < 2; ++j)
      duo.SetPowers(j, PowerPattern(model.num_cores(), j, s / 40));
    for (std::size_t j = 1; j < 5; ++j)
      five.SetPowers(j, PowerPattern(model.num_cores(), j, s / 40));
    duo.Step();
    five.Step();
  }
  EXPECT_TRUE(BitwiseEqual(solo.MemberState(0), duo.MemberState(0)));
  EXPECT_TRUE(BitwiseEqual(solo.MemberState(0), five.MemberState(0)));
}

TEST(BatchStepPropagator, DetachLeavesSurvivorsBitwiseUnchanged) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  const std::size_t k = 3;

  BatchStepPropagator full(prop, k);      // nobody leaves
  BatchStepPropagator detach(prop, k);    // member 1 detaches at step 25
  for (std::size_t j = 0; j < k; ++j) {
    full.AddMember(InitialState(model.num_nodes(), j));
    detach.AddMember(InitialState(model.num_nodes(), j));
  }
  auto set_powers = [&](BatchStepPropagator& b, std::size_t phase) {
    for (std::size_t j = 0; j < k; ++j)
      if (b.IsActive(j))
        b.SetPowers(j, PowerPattern(model.num_cores(), j, phase));
  };
  for (std::size_t s = 0; s < 50; ++s) {
    if (s == 25) {
      detach.RemoveMember(1);  // deadline/cancel/quarantine path
      EXPECT_FALSE(detach.IsActive(1));
      EXPECT_EQ(detach.k(), k - 1);
    }
    set_powers(full, s / 10);
    set_powers(detach, s / 10);
    full.Step();
    detach.Step();
  }
  // Survivors (one of whom was compacted into the vacated column) are
  // bit-for-bit where they would have been with member 1 still aboard.
  EXPECT_TRUE(BitwiseEqual(full.MemberState(0), detach.MemberState(0)));
  EXPECT_TRUE(BitwiseEqual(full.MemberState(2), detach.MemberState(2)));
  EXPECT_THROW((void)detach.MemberState(1), ContractViolation);
}

TEST(BatchStepPropagator, MixedDtCohortsStayIndependent) {
  const RcModel model(Floorplan::MakeGrid(9, 5.1));
  // One PropagatorSet, two dt cohorts -- the engine keys cohorts by
  // (model, dt), so distinct-dt jobs land in distinct batches.
  const PropagatorSet set;
  const auto fast_prop = set.For(model, 1e-3);
  const auto slow_prop = set.For(model, 2e-3);
  ASSERT_NE(fast_prop.get(), slow_prop.get());

  BatchStepPropagator fast(fast_prop, 2);
  BatchStepPropagator slow(slow_prop, 2);
  TransientSimulator fast_ref(model, 1e-3);
  TransientSimulator slow_ref(model, 2e-3);
  fast.AddMember(fast_ref.state());
  slow.AddMember(slow_ref.state());
  fast.AddMember(InitialState(model.num_nodes(), 1));
  slow.AddMember(InitialState(model.num_nodes(), 2));

  const std::vector<double> p = PowerPattern(model.num_cores(), 0, 0);
  for (std::size_t s = 0; s < 60; ++s) {
    fast.SetPowers(0, p);
    fast.SetPowers(1, p);
    slow.SetPowers(0, p);
    slow.SetPowers(1, p);
    fast.Step();
    slow.Step();
    fast_ref.Step(p);
    slow_ref.Step(p);
  }
  EXPECT_LT(MaxAbsDiff(fast.MemberState(0), fast_ref.state()), 1e-9);
  EXPECT_LT(MaxAbsDiff(slow.MemberState(0), slow_ref.state()), 1e-9);
  EXPECT_DOUBLE_EQ(fast.dt(), 1e-3);
  EXPECT_DOUBLE_EQ(slow.dt(), 2e-3);
}

TEST(BatchStepPropagator, RejectsBadInputs) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  const auto prop = MakeProp(model, 1e-3);
  EXPECT_THROW(BatchStepPropagator(nullptr, 4), ContractViolation);
  EXPECT_THROW(BatchStepPropagator(prop, 0), ContractViolation);

  BatchStepPropagator batch(prop, 1);
  batch.AddMember(InitialState(model.num_nodes(), 0));
  EXPECT_THROW(batch.AddMember(InitialState(model.num_nodes(), 1)),
               ContractViolation);  // cohort full
  const std::vector<double> bad = {1.0, std::nan(""), 1.0, 1.0};
  EXPECT_THROW(batch.SetPowers(0, bad), std::invalid_argument);
  EXPECT_THROW(batch.SetPowers(0, std::vector<double>(3, 1.0)),
               ContractViolation);  // wrong width
  EXPECT_THROW((void)batch.PeakDieTemp(7), ContractViolation);
}

// TSan target: many cohorts over ONE shared propagator. Every thread
// reads the same immutable step operator, through its own cohort and
// through a per-job simulator built from the shared set.
TEST(BatchStepPropagator, ConcurrentCohortsOverSharedPropagator) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto set = std::make_shared<const PropagatorSet>();
  const auto prop = set->For(model, 1e-3);

  // Reference trajectory computed serially first.
  BatchStepPropagator ref(prop, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    ref.AddMember(InitialState(model.num_nodes(), j));
    ref.SetPowers(j, PowerPattern(model.num_cores(), j, 0));
  }
  for (std::size_t s = 0; s < 10; ++s) ref.Step();
  ref.StepN(16);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      BatchStepPropagator b(prop, 4);
      for (std::size_t j = 0; j < 4; ++j) {
        b.AddMember(InitialState(model.num_nodes(), j));
        b.SetPowers(j, PowerPattern(model.num_cores(), j, 0));
      }
      // Interleave with a per-job simulator over the same propagator,
      // mimicking a sweep where scalar and batched workers coexist.
      TransientSimulator scalar(model, 1e-3, StepKernel::kAuto, set);
      for (std::size_t s = 0; s < 10; ++s) b.Step();
      scalar.StepN(PowerPattern(model.num_cores(), t, 1), 16);
      b.StepN(16);
      got[t].resize(model.num_nodes());
      b.CopyState(0, got[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_TRUE(BitwiseEqual(got[t], ref.MemberState(0))) << "thread " << t;
}

}  // namespace
}  // namespace ds::thermal

namespace ds::runtime {
namespace {

/// The engine-level contract: CSV bytes do not depend on the cohort
/// width or thread count, and cohorts actually form for batchable
/// kinds. The width follows the thread count (min(16, ceil(pending
/// jobs of a cohort key / threads))), so at least one thread per job
/// runs every job on the k = 1 lane, and fewer threads form cohorts.
std::string SweepCsv(const char* spec_text, std::size_t threads,
                     SweepStats* stats = nullptr) {
  const SweepSpec spec = SweepSpec::FromJsonText(spec_text);
  ModelCache cache;
  SweepOptions opts;
  opts.threads = threads;
  opts.cache = &cache;
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  if (stats != nullptr) *stats = out.stats;
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  return os.str();
}

constexpr const char* kBtUnitSpec = R"({
  "name": "bt_unit", "kind": "boost_transient", "seed": 3,
  "base": {"node": "16nm", "duration_s": 0.02, "control_ms": 1.0},
  "axes": {"app": ["x264", "ferret"], "instances": [1, 2],
           "power_cap_w": [300, 500]}
})";

TEST(SweepEngineBatchTest, CsvBytesIndependentOfBatchKAndThreads) {
  // 8 jobs share one cohort key: a thread per job leaves every cohort
  // one wide, and 1, 2 and 3 threads form cohorts 8, 4 and 3 wide.
  SweepStats scalar_stats;
  const std::string scalar = SweepCsv(kBtUnitSpec, 8, &scalar_stats);
  EXPECT_EQ(scalar_stats.batch_cohorts, 0u);
  EXPECT_EQ(scalar_stats.jobs_executed, 8u);
  for (const std::size_t threads : {1, 2, 3}) {
    SweepStats stats;
    EXPECT_EQ(scalar, SweepCsv(kBtUnitSpec, threads, &stats)) << threads;
    EXPECT_EQ(stats.batch_cohorts, threads);
    EXPECT_EQ(stats.batch_cohort_members, 8u);
    EXPECT_EQ(stats.jobs_executed, 8u);
    EXPECT_EQ(stats.jobs_failed, 0u);
  }
}

// duration_s is a sweepable axis and RunBoostTransientCohort derives
// the cohort-wide step count from jobs[0], so the cohort key must
// split on it: jobs differing only in duration_s must never share a
// cohort (they would all be simulated for the first member's horizon).
TEST(SweepEngineBatchTest, MixedDurationJobsNeverShareACohort) {
  SweepPoint a;
  SweepPoint b = a;
  b.duration_s = 2.0 * a.duration_s;
  EXPECT_NE(BatchCohortKey(SweepKind::kBoostTransient, a),
            BatchCohortKey(SweepKind::kBoostTransient, b));

  constexpr const char* kMixedSpec = R"({
    "name": "bt_mixed_dur", "kind": "boost_transient", "seed": 3,
    "base": {"node": "16nm", "control_ms": 1.0},
    "axes": {"duration_s": [0.01, 0.02], "app": ["x264", "ferret"],
             "power_cap_w": [300, 500]}
  })";
  SweepStats scalar_stats, batched_stats;
  const std::string scalar = SweepCsv(kMixedSpec, 8, &scalar_stats);
  const std::string batched = SweepCsv(kMixedSpec, 2, &batched_stats);
  EXPECT_EQ(scalar, batched);
  EXPECT_EQ(scalar_stats.batch_cohorts, 0u);
  // Cohorts still form, but only within each duration group (4 jobs
  // per duration share a key), never across.
  EXPECT_GE(batched_stats.batch_cohorts, 2u);
  EXPECT_EQ(batched_stats.jobs_executed, 8u);
  EXPECT_EQ(batched_stats.jobs_failed, 0u);
}

// No cohort passes 16 members: 20 jobs sharing one key on one thread
// form a cohort of 16, then one of 4.
TEST(SweepEngineBatchTest, CohortWidthCapsAtSixteen) {
  constexpr const char* kWideSpec = R"({
    "name": "bt_wide", "kind": "boost_transient", "seed": 3,
    "base": {"node": "16nm", "duration_s": 0.01, "control_ms": 1.0},
    "axes": {"app": ["x264", "ferret"], "instances": [1, 2],
             "power_cap_w": [300, 350, 400, 450, 500]}
  })";
  SweepStats stats;
  SweepCsv(kWideSpec, 1, &stats);
  EXPECT_EQ(stats.batch_cohorts, 2u);
  EXPECT_EQ(stats.batch_cohort_members, 20u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

// One closed-loop semantics: every boost_transient row is the Fig. 11
// closed loop, BoostingSimulator::RunBoosting from the level that
// MaxSafeConstantLevel picks, bit for bit -- on the k = 1 lane and
// inside a cohort. max_temp_c and final_peak_c are not compared: they
// are defined differently (the row takes each period's starting peak,
// RunBoosting samples after each step).
TEST(BoostTransientClosedLoop, RowsAreRunBoostingBitForBit) {
  constexpr const char* kSpec = R"({
    "name": "bt_closed_loop", "kind": "boost_transient", "seed": 5,
    "base": {"node": "16nm", "duration_s": 0.05, "control_ms": 1.0},
    "axes": {"app": ["x264", "ferret", "blackscholes"],
             "power_cap_w": [250, 400, 500]}
  })";
  const SweepSpec spec = SweepSpec::FromJsonText(kSpec);
  const std::vector<SweepJob> jobs = spec.Jobs();
  ASSERT_GE(jobs.size(), 9u);
  const arch::Platform platform =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  // A thread per job runs every job on the k = 1 lane; one thread runs
  // them as one cohort.
  for (const std::size_t threads : {jobs.size(), std::size_t{1}}) {
    ModelCache cache;
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    const SweepOutcome out = SweepEngine(spec, opts).Run();
    EXPECT_EQ(out.stats.batch_cohorts, threads == 1 ? 1u : 0u);
    ASSERT_EQ(out.results.size(), jobs.size());
    std::size_t compared = 0;
    for (const SweepJob& job : jobs) {
      const SweepPoint& p = job.point;
      SCOPED_TRACE(testing::Message() << threads << " threads, " << p.app
                                      << " at " << p.power_cap_w << " W");
      const JobResult& row = out.results[job.index];
      ASSERT_TRUE(row.ok) << row.error;
      const core::BoostingSimulator sim(platform, apps::AppByName(p.app),
                                        p.instances, p.threads);
      std::size_t level = 0;
      const bool feasible = sim.MaxSafeConstantLevel(p.power_cap_w, &level);
      ASSERT_EQ(row.skipped, !feasible);
      if (!feasible) continue;
      const core::BoostTrace ref =
          sim.RunBoosting(level, platform.tdtm_c(), p.power_cap_w,
                          p.duration_s, p.control_ms * 1e-3);
      const std::pair<const char*, double> expected[] = {
          {"avg_gips", ref.avg_gips},
          {"energy_j", ref.energy_j},
          {"max_power_w", ref.max_power_w}};
      for (const auto& [name, want] : expected) {
        const auto it = std::find_if(
            row.metrics.begin(), row.metrics.end(),
            [&](const auto& m) { return m.first == name; });
        ASSERT_NE(it, row.metrics.end()) << name;
        EXPECT_TRUE(same_bits(it->second, want))
            << name << ": row " << std::setprecision(17) << it->second
            << ", RunBoosting " << want;
      }
      ++compared;
    }
    EXPECT_GE(compared, 9u);
  }
}

}  // namespace
}  // namespace ds::runtime
