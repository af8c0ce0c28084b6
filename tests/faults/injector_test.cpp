#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include "workloads/synthetic.hpp"

namespace parastack::faults {
namespace {

std::shared_ptr<const workloads::BenchmarkProfile> looping_profile(
    int iterations = 200) {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->name = "LOOP";
  profile->iterations = static_cast<std::uint64_t>(iterations);
  profile->reference_ranks = 8;
  profile->setup_time = sim::from_millis(5);
  profile->phases = {
      {"loop_compute", sim::from_millis(10), 0.05,
       workloads::CommPattern::kAllreduce, 64},
  };
  return profile;
}

simmpi::WorldConfig config8(std::uint64_t seed = 11) {
  simmpi::WorldConfig config;
  config.nranks = 8;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TEST(FaultInjector, NoFaultPassesThrough) {
  FaultInjector injector(FaultPlan{});
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  EXPECT_TRUE(world.run_until_done(sim::kMinute));
  EXPECT_FALSE(injector.record().activated());
}

TEST(FaultInjector, ComputeHangActivatesAfterTrigger) {
  FaultPlan plan;
  plan.type = FaultType::kComputeHang;
  plan.victim = 5;
  plan.trigger_time = sim::from_millis(300);
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  EXPECT_FALSE(world.run_until_done(sim::kMinute));  // global hang
  const auto& record = injector.record();
  EXPECT_TRUE(record.activated());
  EXPECT_GE(record.activated_at, plan.trigger_time);
  // Victim is stuck OUT_MPI in user code; everyone else is stuck IN_MPI.
  EXPECT_FALSE(world.rank(5).in_mpi());
  EXPECT_EQ(world.rank(5).status(), simmpi::RankStatus::kHungCompute);
  for (simmpi::Rank r = 0; r < 8; ++r) {
    if (r != 5) {
      EXPECT_TRUE(world.rank(r).in_mpi()) << "rank " << r;
    }
  }
}

TEST(FaultInjector, ComputeHangPreservesUserFunctionFrame) {
  FaultPlan plan;
  plan.type = FaultType::kComputeHang;
  plan.victim = 2;
  plan.trigger_time = sim::from_millis(100);
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  world.run_until_done(sim::kMinute);
  // The hang is injected into the benchmark's own user function (§7).
  EXPECT_EQ(world.rank(2).stack().frames().back().name, "loop_compute");
}

TEST(FaultInjector, CommDeadlockLeavesEveryoneInMpi) {
  FaultPlan plan;
  plan.type = FaultType::kCommDeadlock;
  plan.victim = 3;
  plan.trigger_time = sim::from_millis(300);
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  EXPECT_FALSE(world.run_until_done(sim::kMinute));
  EXPECT_TRUE(injector.record().activated());
  for (simmpi::Rank r = 0; r < 8; ++r) {
    EXPECT_TRUE(world.rank(r).in_mpi()) << "rank " << r;
  }
}

TEST(FaultInjector, NodeFreezeStopsWholeNode) {
  FaultPlan plan;
  plan.type = FaultType::kNodeFreeze;
  plan.victim = 0;  // node 0 hosts all 8 ranks on Tianhe-2 (24 cores/node)
  plan.trigger_time = sim::from_millis(200);
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  EXPECT_FALSE(world.run_until_done(sim::kMinute));
  EXPECT_TRUE(injector.record().activated());
  EXPECT_EQ(injector.record().activated_at, plan.trigger_time);
  for (simmpi::Rank r = 0; r < 8; ++r) {
    EXPECT_TRUE(world.rank(r).frozen());
    EXPECT_FALSE(world.rank(r).finished());
  }
}

TEST(FaultInjector, TransientSlowdownRecoversAndCompletes) {
  FaultPlan plan;
  plan.type = FaultType::kTransientSlowdown;
  plan.victim = 1;
  plan.trigger_time = sim::from_millis(100);
  plan.slowdown_duration = sim::from_millis(400);
  plan.slowdown_factor = 10.0;
  FaultInjector injector(plan);

  // Reference run without the fault.
  simmpi::World clean(config8(42),
                      workloads::make_factory(looping_profile(50)));
  clean.start();
  ASSERT_TRUE(clean.run_until_done(sim::kMinute));

  simmpi::World world(
      config8(42), injector.wrap(workloads::make_factory(looping_profile(50))));
  injector.arm(world);
  world.start();
  EXPECT_TRUE(world.run_until_done(10 * sim::kMinute));  // completes anyway
  EXPECT_TRUE(injector.record().activated());
  EXPECT_GT(world.finish_time(), clean.finish_time());  // but paid for it
  // Factor restored.
  for (simmpi::Rank r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(world.rank(r).compute_factor(), 1.0);
  }
}

TEST(FaultInjector, VictimOutsideWrapUnaffected) {
  FaultPlan plan;
  plan.type = FaultType::kComputeHang;
  plan.victim = 7;
  plan.trigger_time = sim::kHour;  // never reached in this run
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  world.start();
  EXPECT_TRUE(world.run_until_done(sim::kMinute));
  EXPECT_FALSE(injector.record().activated());
}

TEST(FaultInjectorDeath, ArmTwiceFailsLoudly) {
  FaultPlan plan;
  plan.type = FaultType::kComputeHang;
  plan.victim = 1;
  plan.trigger_time = sim::from_millis(100);
  FaultInjector injector(plan);
  simmpi::World world(
      config8(), injector.wrap(workloads::make_factory(looping_profile())));
  injector.arm(world);
  EXPECT_DEATH(injector.arm(world), "arm called twice");
}

TEST(FaultInjectorDeath, ArmWithoutWrapFailsLoudly) {
  FaultPlan plan;
  plan.type = FaultType::kComputeHang;
  plan.victim = 1;
  plan.trigger_time = sim::from_millis(100);
  FaultInjector injector(plan);
  // World built from the RAW factory: the injector never instrumented the
  // victim, so arming would silently produce a fault that cannot fire.
  simmpi::World world(config8(), workloads::make_factory(looping_profile()));
  EXPECT_DEATH(injector.arm(world), "never called");
}

TEST(FaultInjector, NodeFreezeArmsWithoutWrap) {
  // Node-level faults are injected via the engine, not the rank program, so
  // an unwrapped factory is legitimate for them.
  FaultPlan plan;
  plan.type = FaultType::kNodeFreeze;
  plan.victim = 0;
  plan.trigger_time = sim::from_millis(100);
  FaultInjector injector(plan);
  simmpi::World world(config8(), workloads::make_factory(looping_profile()));
  injector.arm(world);
  world.start();
  EXPECT_FALSE(world.run_until_done(sim::kMinute));
  EXPECT_TRUE(injector.record().activated());
}

}  // namespace
}  // namespace parastack::faults
