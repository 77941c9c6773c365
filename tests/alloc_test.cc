// Allocation budget of a steady-state index build.
//
// Every index family keeps its trees and pass buffers from one build to
// the next, so rebuilding the indexes over an unchanged table should
// allocate next to nothing, and nothing that grows with the table. This
// binary replaces the global operator new with a counting one; it is its
// own test executable so the counter affects no other suite.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAllocOrThrow(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// pair malloc with free (sanitizer builds check the pairing).
void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sgl {
namespace {

/// Allocations made by the second of two BuildIndexes calls over an
/// unchanged battle table of `units` units, ticked 5 times on one thread.
int64_t SteadyStateBuildAllocations(int32_t units) {
  ScenarioParams params;
  params.units = units;
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.threads = 1;
  auto built =
      ScenarioRegistry::Global().BuildSimulation("battle", params, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return -1;
  std::unique_ptr<Simulation> sim = built.MoveValue();
  EXPECT_TRUE(sim->Run(5).ok());
  const TickRandom rnd(sim->config().seed, sim->tick_count());
  int64_t allocations = 0;
  for (int32_t s = 0; s < sim->NumScripts(); ++s) {
    IndexedAggregateProvider* provider = sim->session(s).provider.get();
    EXPECT_NE(nullptr, provider);
    if (provider == nullptr) return -1;
    EXPECT_TRUE(provider->BuildIndexes(sim->table(), rnd).ok());
    g_allocations = 0;
    g_counting = true;
    const Status st = provider->BuildIndexes(sim->table(), rnd);
    g_counting = false;
    EXPECT_TRUE(st.ok()) << st.ToString();
    allocations += g_allocations.load();
  }
  return allocations;
}

TEST(AllocationBudget, SteadyStateIndexBuildDoesNotGrowWithTheTable) {
  const int64_t small = SteadyStateBuildAllocations(1000);
  const int64_t large = SteadyStateBuildAllocations(10000);
  ASSERT_GE(small, 0);
  ASSERT_GE(large, 0);
  EXPECT_LE(small, 500);
  EXPECT_LE(large, 500);
  // At most 10% more at ten times the units.
  EXPECT_LE(large * 10, small * 11) << "1k: " << small << ", 10k: " << large;
  std::printf("steady-state build allocations: %lld at 1k units, %lld at "
              "10k units\n",
              static_cast<long long>(small), static_cast<long long>(large));
}

}  // namespace
}  // namespace sgl
