// Steady-state allocation budget of the simulation substrate.
//
// This binary replaces the global operator new with a counting one, runs a
// 256-rank LU and CG world on Tardis (no detector, no fault, background
// slowdowns on) to 30 s of virtual time, and counts the heap allocations
// made between 30 s and 60 s. Per-message and per-compute-segment work must
// not allocate: the only allowance is a small constant per collective
// instance (its bookkeeping entry and waiter list) plus a fixed slack.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "simmpi/world.hpp"
#include "workloads/catalog.hpp"
#include "workloads/synthetic.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined into a caller, the free() would sit next to the
// operator new call and the compiler would flag it as a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace parastack::simmpi {
namespace {

constexpr std::uint64_t kPerCollective = 16;
constexpr std::uint64_t kSlack = 64;

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t collective_instances = 0;
  std::uint64_t matches = 0;
  std::uint64_t events = 0;
};

Window measure(workloads::Bench bench) {
  constexpr int kRanks = 256;
  WorldConfig config;
  config.nranks = kRanks;
  config.platform = sim::Platform::tardis();
  config.seed = 42;
  World world(config, workloads::make_factory(workloads::make_profile(
                          bench, workloads::default_input(bench, kRanks),
                          kRanks)));
  world.start();
  world.engine().run_until(sim::from_seconds(30));
  const std::uint64_t collectives = world.comm().collectives_entered();
  const std::uint64_t matches = world.comm().matches();
  const std::uint64_t events = world.engine().events_fired();
  const std::uint64_t before = g_allocations.load();
  world.engine().run_until(sim::from_seconds(60));
  Window w;
  w.allocations = g_allocations.load() - before;
  w.collective_instances =
      (world.comm().collectives_entered() - collectives) / kRanks;
  w.matches = world.comm().matches() - matches;
  w.events = world.engine().events_fired() - events;
  EXPECT_FALSE(world.all_finished()) << "window must be mid-run";
  return w;
}

void expect_within_budget(const char* name, const Window& w) {
  std::printf("%s 30-60 s: %llu allocations, %llu collective instances, "
              "%llu matches, %llu events\n",
              name, static_cast<unsigned long long>(w.allocations),
              static_cast<unsigned long long>(w.collective_instances),
              static_cast<unsigned long long>(w.matches),
              static_cast<unsigned long long>(w.events));
  EXPECT_GT(w.matches, 0u);
  EXPECT_LE(w.allocations, kPerCollective * w.collective_instances + kSlack)
      << name << ": allocations scale with messages or compute segments";
}

TEST(SteadyStateAllocations, Lu256AllocatesOnlyPerCollective) {
  expect_within_budget("LU-256", measure(workloads::Bench::kLU));
}

TEST(SteadyStateAllocations, Cg256AllocatesOnlyPerCollective) {
  expect_within_budget("CG-256", measure(workloads::Bench::kCG));
}

}  // namespace
}  // namespace parastack::simmpi
