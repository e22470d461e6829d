// Allocation-freedom regression test for the transient stepping hot
// path. Built as its own binary (not part of ds_tests) because it
// replaces the global allocator with a counting one: after warm-up,
// Step and StepN must perform ZERO heap allocations on the
// propagator's k = 1 panel lane, and neither may a boost closed loop's
// control period, under any of its laws. This is the enforcement for
// the per-step-allocation fix -- a reintroduced std::vector in the step
// or control path fails here, not in a profile much later. The
// allocator also counts bytes, so a boost_transient row can show that
// what it allocates does not grow with its simulated time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_spec.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

// Counting global allocator: every operator-new flavor funnels through
// malloc and bumps the call and byte counters. Deallocation stays
// symmetric via free; the deletes stay out of line, or g++'s
// -Wmismatched-new-delete sees free() meet operator new's pointer where
// gtest's CreateTest inlines both.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace ds::thermal {
namespace {

std::uint64_t AllocsDuring(const std::function<void()>& body) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  body();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

std::uint64_t BytesDuring(const std::function<void()>& body) {
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  body();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

TEST(AllocFree, PropagatorStepAllocatesNothing) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  TransientSimulator sim(model, 1e-3);
  const std::vector<double> p(16, 2.0);
  sim.Step(p);  // warm-up (first telemetry-site touch, lazily, if any)
  EXPECT_EQ(AllocsDuring([&] {
              for (int i = 0; i < 1000; ++i) sim.Step(p);
            }),
            0u);
}

TEST(AllocFree, StepNAllocatesNothingAfterWarmup) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  TransientSimulator sim(model, 1e-3);
  const std::vector<double> p(16, 2.0);
  sim.StepN(p, 25);  // warm-up
  EXPECT_EQ(AllocsDuring([&] {
              for (int i = 0; i < 100; ++i) sim.StepN(p, 25);
            }),
            0u);
}

// x264 x12 at 16 nm from its highest safe constant level: every law
// moves its levels within the first periods, so the 100 periods
// measured cover both directions and the up step's power check.
std::uint64_t BoostLoopAllocs(const core::BoostLaw& law) {
  const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  const core::BoostingSimulator sim(plat, apps::AppByName("x264"), 12, 8);
  std::size_t level = 0;
  EXPECT_TRUE(sim.MaxSafeConstantLevel(500.0, &level));
  core::BoostLoop loop(sim, law, level, 0.2, 1e-3);
  TransientSimulator t = plat.MakeTransient(1e-3);
  t.InitializeSteadyState(sim.SteadyWarmStart(level), plat.solver());
  const auto period = [&] {
    t.Step(loop.Control(t.state().first(plat.num_cores())));
  };
  for (int i = 0; i < 10; ++i) period();  // warm-up
  return AllocsDuring([&] {
    for (int i = 0; i < 100; ++i) period();
  });
}

TEST(AllocFree, TurboControlAllocatesNothing) {
  EXPECT_EQ(BoostLoopAllocs({core::BoostLaw::Kind::kTurbo, power::kTdtmC,
                             500.0}),
            0u);
}

TEST(AllocFree, PerInstanceControlAllocatesNothing) {
  EXPECT_EQ(BoostLoopAllocs({core::BoostLaw::Kind::kPerInstance,
                             power::kTdtmC, 500.0}),
            0u);
}

TEST(AllocFree, RaplControlAllocatesNothing) {
  EXPECT_EQ(BoostLoopAllocs({core::BoostLaw::Kind::kRapl, power::kTdtmC,
                             300.0, 220.0, 1.0}),
            0u);
}

// Bytes one boost_transient row allocates through RunScenario (x264
// x12 at 16 nm, 500 W) on a warm cache.
std::uint64_t BoostTransientRowBytes(runtime::ModelCache& cache,
                                     double duration_s) {
  const runtime::SweepSpec spec = runtime::SweepSpec::FromJsonText(
      R"({"kind": "boost_transient", "points": [{"node": "16nm",
          "app": "x264", "instances": 12, "threads": 8,
          "power_cap_w": 500, "duration_s": )" +
      std::to_string(duration_s) + "}]}");
  const runtime::SweepJob job = spec.Jobs()[0];
  return BytesDuring([&] {
    runtime::JobResult result;
    runtime::RunScenario(spec.kind(), job, cache, &result);
  });
}

// A row keeps the loop's aggregates, not a per-period trace, so four
// times the simulated time allocates the same bytes.
TEST(AllocFree, BoostTransientRowBytesDoNotGrowWithDuration) {
  runtime::ModelCache cache;
  BoostTransientRowBytes(cache, 0.4);  // warm-up: model, solver, fold
  EXPECT_EQ(BoostTransientRowBytes(cache, 0.1),
            BoostTransientRowBytes(cache, 0.4));
}

}  // namespace
}  // namespace ds::thermal
