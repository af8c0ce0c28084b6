// sched under concurrent tenants: independent JobLifecycle machines
// interleaved on one fleet timeline, the bounded MonitorPool admission
// semantics, and FleetBill rolling give-ups and refusals into the
// fleet-level SU ledger.

#include <gtest/gtest.h>

#include "sched/scheduler.hpp"

namespace parastack::sched {
namespace {

constexpr sim::Time kS = sim::kSecond;

JobTicket ticket(int nodes = 4, sim::Time walltime = sim::kHour) {
  JobTicket t;
  t.nodes = nodes;
  t.cores_per_node = 24;
  t.walltime = walltime;
  return t;
}

TEST(FleetSched, TwoJobsSuspectedTheSameTickStayIndependent) {
  // Both tenants trip their suspicion streak at the same instant; one
  // recovers, the other's budget is already spent. Neither machine may
  // observe the other's transitions.
  JobLifecycle a(/*max_restarts=*/1);
  JobLifecycle b(/*max_restarts=*/0);
  a.launch(0);
  b.launch(0);
  const sim::Time tick = 40 * kS;
  a.suspect(tick);
  b.suspect(tick);
  a.kill(tick);
  b.kill(tick);
  EXPECT_TRUE(a.try_restore(tick));
  EXPECT_FALSE(b.try_restore(tick));  // budget exhausted -> gave up
  a.resume(tick + 20 * kS);
  a.complete(tick + 100 * kS);

  EXPECT_EQ(a.state(), JobState::kCompleted);
  EXPECT_EQ(b.state(), JobState::kGaveUp);
  EXPECT_EQ(a.restarts(), 1);
  EXPECT_EQ(b.restarts(), 0);
  ASSERT_EQ(a.history().size(), 6u);
  ASSERT_EQ(b.history().size(), 4u);
  // Same-tick transitions carry the same timestamp on both machines.
  EXPECT_EQ(a.history()[2].at, b.history()[2].at);
  EXPECT_EQ(b.history().back().to, JobState::kGaveUp);
}

TEST(FleetSched, RecoveryOfOneTenantMidSuspicionOfAnother) {
  // Tenant A runs its whole kill -> restore -> resume arc while tenant B
  // sits inside a suspicion gather; B's machine is untouched by it.
  JobLifecycle a(1);
  JobLifecycle b(1);
  a.launch(0);
  b.launch(0);
  b.suspect(30 * kS);  // B's verification gather opens first
  a.suspect(35 * kS);
  a.kill(35 * kS);
  ASSERT_TRUE(a.try_restore(35 * kS));
  a.resume(55 * kS);  // A is running again while B still gathers
  EXPECT_EQ(b.state(), JobState::kSuspected);
  b.clear_suspicion(60 * kS);  // B's gather ends: false alarm
  a.complete(200 * kS);
  b.complete(210 * kS);

  EXPECT_EQ(a.state(), JobState::kCompleted);
  EXPECT_EQ(b.state(), JobState::kCompleted);
  EXPECT_EQ(a.restarts(), 1);
  EXPECT_EQ(b.restarts(), 0);
  // B's audited path never saw a kill.
  for (const auto& transition : b.history()) {
    EXPECT_NE(transition.to, JobState::kKilled);
  }
}

TEST(FleetSched, MonitorPoolTracksOccupancyAndRefusals) {
  MonitorPool pool(4);
  EXPECT_TRUE(pool.try_acquire(3));
  EXPECT_FALSE(pool.try_acquire(2));  // would exceed capacity
  EXPECT_EQ(pool.in_use(), 3);        // a refusal claims nothing
  EXPECT_TRUE(pool.try_acquire(1));
  EXPECT_EQ(pool.in_use(), 4);
  EXPECT_EQ(pool.high_water(), 4);
  EXPECT_FALSE(pool.try_acquire(1));  // full
  pool.release(3);
  EXPECT_EQ(pool.in_use(), 1);
  EXPECT_TRUE(pool.try_acquire(2));
  EXPECT_EQ(pool.high_water(), 4);  // high water survives the drain
}

TEST(FleetSched, UnboundedPoolAdmitsEverythingButStillMeters) {
  MonitorPool pool;
  EXPECT_TRUE(pool.try_acquire(1000));
  EXPECT_TRUE(pool.try_acquire(1000));
  EXPECT_EQ(pool.high_water(), 2000);
  pool.release(1500);
  EXPECT_EQ(pool.in_use(), 500);
}

TEST(FleetSched, RefusedLifecycleIsTerminalAtArrival) {
  JobLifecycle lc;
  lc.refuse(5 * kS);
  EXPECT_EQ(lc.state(), JobState::kRefused);
  EXPECT_TRUE(lc.terminal());
  ASSERT_EQ(lc.history().size(), 1u);
  EXPECT_EQ(lc.history()[0].from, JobState::kPending);
  EXPECT_EQ(lc.history()[0].at, 5 * kS);
  EXPECT_EQ(job_state_name(JobState::kRefused), "refused");
}

TEST(FleetSched, FleetBillBucketsEveryEndState) {
  const JobTicket t = ticket(4, sim::kHour);
  FleetBill bill;
  // Completed job: billed to its finish.
  bill.add(t, settle_recovered(t, 30 * sim::kMinute, {}, false, 1.0));
  // Killed-on-detection job: billed to the kill, credited the rest.
  bill.add(t, settle_recovered(t, {}, 15 * sim::kMinute, false, 1.0));
  // Give-up: the kill is reclassified, with no savings credit.
  bill.add(t, settle_recovered(t, {}, 45 * sim::kMinute, true, 1.0));
  // Expired: burned the entire slot.
  bill.add(t, settle_recovered(t, {}, sim::kHour, false, 1.0));
  bill.add_refusal();

  EXPECT_EQ(bill.jobs, 4);  // the refusal is counted apart, never billed
  EXPECT_EQ(bill.completed, 1);
  EXPECT_EQ(bill.killed, 1);
  EXPECT_EQ(bill.gave_up, 1);
  EXPECT_EQ(bill.expired, 1);
  EXPECT_EQ(bill.refused, 1);
  // 4 nodes x 24 cores: 0.5 h + 0.25 h + 0.75 h + 1 h = 2.5 h of slot.
  EXPECT_DOUBLE_EQ(bill.su_billed, 4 * 24 * 2.5);
  // Savings come from the killed job alone: the 45 min it did not burn.
  EXPECT_DOUBLE_EQ(bill.su_saved, 4 * 24 * 0.75);
  EXPECT_DOUBLE_EQ(bill.machine_hours_saved(24), 4 * 0.75);
}

TEST(FleetSched, GiveUpChargesScaleWithTheReplicaMultiplier) {
  // A team-replication tenant that gives up burned every replica's
  // allocation for the elapsed span; the fleet ledger must bill all of it.
  const JobTicket t = ticket(2, sim::kHour);
  FleetBill bill;
  const JobCharge charge =
      settle_recovered(t, {}, 20 * sim::kMinute, true, 3.0);
  EXPECT_EQ(charge.end, JobEnd::kGaveUp);
  EXPECT_DOUBLE_EQ(charge.savings_fraction, 0.0);
  bill.add(t, charge);
  EXPECT_EQ(bill.gave_up, 1);
  EXPECT_DOUBLE_EQ(bill.su_billed, 2 * 24 * (20.0 / 60.0) * 3.0);
  EXPECT_DOUBLE_EQ(bill.su_saved, 0.0);
}

}  // namespace
}  // namespace parastack::sched
