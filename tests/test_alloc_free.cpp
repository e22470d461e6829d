// Allocation-freedom regression test for the transient stepping hot
// path. Built as its own binary (not part of ds_tests) because it
// replaces the global allocator with a counting one: after warm-up,
// Step and StepN must perform ZERO heap allocations on the
// propagator's k = 1 panel lane. This is the enforcement for the
// per-step-allocation fix -- a reintroduced std::vector in the step
// path fails here, not in a profile much later.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/transient.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator: every operator-new flavor funnels through
// malloc and bumps the counter. Deallocation stays symmetric via free.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ds::thermal {
namespace {

std::uint64_t AllocsDuring(const std::function<void()>& body) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  body();
  return g_allocs.load(std::memory_order_relaxed) - before;
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

}  // namespace
}  // namespace ds::thermal
