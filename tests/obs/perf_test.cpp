#include "obs/perf.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "harness/runner.hpp"

namespace parastack::obs::perf {
namespace {

TEST(PerfCounter, AddAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(PerfHighWater, KeepsTheMaximumEverObserved) {
  HighWater hw;
  hw.observe(7);
  hw.observe(3);  // lower: must not move the mark
  EXPECT_EQ(hw.value(), 7u);
  hw.observe(19);
  EXPECT_EQ(hw.value(), 19u);
  hw.reset();
  EXPECT_EQ(hw.value(), 0u);
}

TEST(PerfMacros, NullHandlesAreNoOps) {
  Counter* counter = nullptr;
  HighWater* gauge = nullptr;
  Timer* timer = nullptr;
  PS_PERF_ADD(counter, 5);
  PS_PERF_OBSERVE(gauge, 5);
  { PS_PERF_SCOPE(scope, timer); }
  // Nothing to assert beyond "did not dereference null" — the macros are
  // the run-time off switch and must cost one pointer test at most.
  SUCCEED();
}

TEST(PerfScopedTimer, RecordsOncePerScopeAndNestsInclusively) {
  Timer outer;
  Timer inner;
  {
    PS_PERF_SCOPE(a, &outer);
    {
      PS_PERF_SCOPE(b, &inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(outer.calls(), 1u);
  EXPECT_EQ(inner.calls(), 1u);
  EXPECT_GT(inner.nanos(), 0u);
  // The inner scope's wall time is included in the enclosing scope's.
  EXPECT_GE(outer.nanos(), inner.nanos());
}

TEST(PerfRegistry, HandlesAreInternedAndStable) {
  ProfileRegistry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.counter("y"));
  // The three instrument namespaces are independent.
  EXPECT_NE(static_cast<void*>(registry.counter("n")),
            static_cast<void*>(registry.high_water("n")));
}

TEST(PerfRegistry, SnapshotSuffixesHighWatersAndExcludesTimers) {
  ProfileRegistry registry;
  registry.counter("events")->add(3);
  registry.high_water("depth")->observe(9);
  registry.timer("stage")->record(1000);
  const auto snapshot = registry.counter_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("events"), 3u);
  EXPECT_EQ(snapshot.at("depth.hw"), 9u);
  EXPECT_EQ(snapshot.count("stage"), 0u);  // timers are advisory
}

harness::RunConfig instrumented_lu(std::uint64_t seed,
                                   ProfileRegistry* registry) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 32;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  config.perf = registry;
  return config;
}

TEST(PerfRegistry, RunCountersAreSeedDeterministic) {
  ProfileRegistry first;
  ProfileRegistry second;
  (void)harness::run_one(instrumented_lu(3, &first));
  (void)harness::run_one(instrumented_lu(3, &second));
  const auto a = first.counter_snapshot();
  EXPECT_EQ(a, second.counter_snapshot());
  // The engine, stage, and monitor vocabularies all showed up and counted.
  EXPECT_GT(a.at("sim.events_fired"), 0u);
  EXPECT_GT(a.at("sim.events_scheduled"), 0u);
  EXPECT_GT(a.at("sim.queue_depth.hw"), 0u);
  EXPECT_GT(a.at("stage.sampler.calls"), 0u);
  EXPECT_GT(a.at("monitor.reports_aggregated"), 0u);
}

TEST(PerfRegistry, DetachedRunLeavesRegistryEmpty) {
  ProfileRegistry untouched;
  (void)harness::run_one(instrumented_lu(3, nullptr));
  EXPECT_TRUE(untouched.counter_snapshot().empty());
}

}  // namespace
}  // namespace parastack::obs::perf
