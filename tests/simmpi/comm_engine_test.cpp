#include "simmpi/comm_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace parastack::simmpi {
namespace {

class CommEngineTest : public ::testing::Test {
 protected:
  CommEngineTest() : platform_(sim::Platform::tianhe2()) {
    platform_.eager_threshold_bytes = 64 * 1024;
  }

  /// An eager send's local injection cost: 0.5 us plus the buffer copy at
  /// link bandwidth.
  sim::Time eager_cost(std::size_t bytes) const {
    return sim::from_micros(0.5) +
           static_cast<sim::Time>(static_cast<double>(bytes) /
                                  (platform_.network_bandwidth_gbps * 0.125));
  }

  sim::Engine engine_;
  sim::Platform platform_;
};

// A completion fires no event, so running the engine no longer moves the
// clock to it: where these tests once checked a completed flag after
// running, they check the completion key and its instant.

TEST_F(CommEngineTest, EagerSendCompletesWithoutReceiver) {
  CommEngine comm(engine_, platform_, 4);
  auto send = comm.post_send(0, 1, 5, 1024);  // below the eager threshold
  EXPECT_GT(send->key, engine_.firing());     // not complete yet
  engine_.run_until_idle();
  EXPECT_EQ(send->key.time, eager_cost(1024));
  EXPECT_EQ(engine_.events_fired(), 0u);
  EXPECT_EQ(comm.matches(), 0u);
}

TEST_F(CommEngineTest, RendezvousSendWaitsForReceiver) {
  CommEngine comm(engine_, platform_, 4);
  auto send = comm.post_send(0, 1, 5, 1024 * 1024);  // rendezvous
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(send->key, kUnmatchedKey);
  auto recv = comm.post_recv(1, 0, 5, 1024 * 1024);
  engine_.run_until_idle();
  // Both complete when the transfer that starts at the match finishes.
  const sim::Time done = sim::kSecond + platform_.transfer_time(1024 * 1024);
  EXPECT_EQ(send->key.time, done);
  EXPECT_EQ(recv->key.time, done);
  EXPECT_LT(send->key, recv->key);
  EXPECT_EQ(comm.matches(), 1u);
}

TEST_F(CommEngineTest, RecvCompletesAfterEagerArrival) {
  CommEngine comm(engine_, platform_, 2);
  auto recv = comm.post_recv(1, 0, 3, 512);
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(recv->key, kUnmatchedKey);
  comm.post_send(0, 1, 3, 512);
  engine_.run_until_idle();
  EXPECT_EQ(recv->key.time, sim::kSecond + platform_.transfer_time(512));
}

TEST_F(CommEngineTest, TagsKeepChannelsSeparate) {
  CommEngine comm(engine_, platform_, 2);
  auto recv_tag7 = comm.post_recv(1, 0, 7, 512);
  comm.post_send(0, 1, 9, 512);  // different tag: must not match
  engine_.run_until_idle();
  EXPECT_EQ(recv_tag7->key, kUnmatchedKey);
  comm.post_send(0, 1, 7, 512);
  engine_.run_until_idle();
  EXPECT_EQ(recv_tag7->key.time, platform_.transfer_time(512));
}

TEST_F(CommEngineTest, DirectionMatters) {
  CommEngine comm(engine_, platform_, 2);
  auto recv = comm.post_recv(0, 1, 4, 256);  // 0 receives from 1
  comm.post_send(0, 1, 4, 256);              // 0 sends to 1: no match
  engine_.run_until_idle();
  EXPECT_EQ(recv->key, kUnmatchedKey);
}

TEST_F(CommEngineTest, FifoMatchingPerChannel) {
  CommEngine comm(engine_, platform_, 2);
  auto recv1 = comm.post_recv(1, 0, 1, 128);
  auto recv2 = comm.post_recv(1, 0, 1, 128);
  comm.post_send(0, 1, 1, 128);
  engine_.run_until_idle();
  // The first posted matches first.
  EXPECT_EQ(recv1->key.time, platform_.transfer_time(128));
  EXPECT_EQ(recv2->key, kUnmatchedKey);
}

TEST_F(CommEngineTest, UnmatchedRecvNeverCompletes) {
  CommEngine comm(engine_, platform_, 2);
  auto recv = comm.post_recv(1, 0, 1, 128);
  engine_.run_until(10 * sim::kSecond);
  EXPECT_EQ(recv->key, kUnmatchedKey);  // the hang primitive
}

TEST_F(CommEngineTest, SynchronizingCollectiveWaitsForAll) {
  CommEngine comm(engine_, platform_, 3);
  int done = 0;
  comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64, [&] { ++done; });
  comm.enter_collective(MpiFunc::kAllreduce, 1, 0, 64, [&] { ++done; });
  engine_.run_until(10 * sim::kSecond);
  EXPECT_EQ(done, 0);  // rank 2 missing: nobody may leave
  comm.enter_collective(MpiFunc::kAllreduce, 2, 0, 64, [&] { ++done; });
  engine_.run_until_idle();
  EXPECT_EQ(done, 3);
}

TEST_F(CommEngineTest, BarrierReleasesEveryoneAfterLastArrival) {
  CommEngine comm(engine_, platform_, 2);
  sim::Time released0 = -1;
  comm.enter_collective(MpiFunc::kBarrier, 0, 0, 0,
                        [&] { released0 = engine_.now(); });
  engine_.run_until(sim::kSecond);
  comm.enter_collective(MpiFunc::kBarrier, 1, 0, 0, [] {});
  engine_.run_until_idle();
  EXPECT_GE(released0, sim::kSecond);  // not before the last arrival
}

TEST_F(CommEngineTest, GatherNonRootLeavesEarly) {
  // Paper §4: MPI_Gather is NOT synchronization-like.
  CommEngine comm(engine_, platform_, 3);
  bool nonroot_done = false;
  bool root_done = false;
  comm.enter_collective(MpiFunc::kGather, 1, 0, 1024,
                        [&] { nonroot_done = true; });
  comm.enter_collective(MpiFunc::kGather, 0, 0, 1024,
                        [&] { root_done = true; });
  engine_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(nonroot_done);  // leaves after injecting its contribution
  EXPECT_FALSE(root_done);    // root waits for rank 2
  comm.enter_collective(MpiFunc::kGather, 2, 0, 1024, [] {});
  engine_.run_until_idle();
  EXPECT_TRUE(root_done);
}

TEST_F(CommEngineTest, BcastRootLeavesWithoutStragglers) {
  CommEngine comm(engine_, platform_, 3);
  bool root_done = false;
  bool nonroot_done = false;
  comm.enter_collective(MpiFunc::kBcast, 0, 0, 4096, [&] { root_done = true; });
  comm.enter_collective(MpiFunc::kBcast, 1, 0, 4096,
                        [&] { nonroot_done = true; });
  engine_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(root_done);     // fire-and-forget down the tree
  EXPECT_TRUE(nonroot_done);  // root arrived, data could reach rank 1
}

TEST_F(CommEngineTest, BcastNonRootWaitsForRoot) {
  CommEngine comm(engine_, platform_, 3);
  bool nonroot_done = false;
  comm.enter_collective(MpiFunc::kBcast, 1, 0, 4096,
                        [&] { nonroot_done = true; });
  engine_.run_until(10 * sim::kSecond);
  EXPECT_FALSE(nonroot_done);  // no data until the root shows up
}

TEST_F(CommEngineTest, CollectiveMismatchIsRecordedAndHangsTheOffender) {
  CommEngine comm(engine_, platform_, 2);
  bool a_done = false;
  bool b_done = false;
  comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64, [&] { a_done = true; });
  comm.enter_collective(MpiFunc::kBarrier, 1, 0, 0, [&] { b_done = true; });
  engine_.run_until_idle();
  EXPECT_EQ(comm.mismatch_count(), 1u);
  EXPECT_TRUE(a_done);    // instance completed once `arrived` reached nranks
  EXPECT_FALSE(b_done);   // the mismatched rank deadlocks
}

TEST_F(CommEngineTest, SynchronizingCollectiveReleasesWithOneEvent) {
  // Ranks arrive in the order 2, 0, 3, 1; rank 3 names another root, so
  // it is a mismatch that counts as an arrival but is never released.
  // Rank 2's continuation, the first to run, also calls `first_done`.
  const auto enter_all = [](CommEngine& comm, MpiFunc kind,
                            std::vector<int>& order,
                            const std::function<void()>& first_done) {
    for (const Rank rank : {2, 0, 3, 1}) {
      comm.enter_collective(kind, rank, rank == 3 ? 1 : 0, 64,
                            [&order, first_done, rank] {
                              if (rank == 2) first_done();
                              order.push_back(rank);
                            });
    }
  };
  for (const MpiFunc kind : {MpiFunc::kBarrier, MpiFunc::kAllreduce,
                             MpiFunc::kAllgather, MpiFunc::kAlltoall}) {
    SCOPED_TRACE(mpi_func_name(kind));
    // The instance adds exactly one event, and the continuations run in
    // arrival order.
    sim::Engine engine;
    CommEngine comm(engine, platform_, 4);
    std::vector<int> order;
    enter_all(comm, kind, order, [] {});
    engine.run_until_idle();
    EXPECT_EQ(engine.events_fired(), 1u);
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(comm.mismatch_count(), 1u);
    EXPECT_EQ(comm.open_collectives(), 0u);
    const sim::Time release = engine.now();

    // An event scheduled for the release instant before the last arrival
    // fires before the first continuation; one scheduled at `now` from
    // inside the first continuation fires after the last.
    sim::Engine engine2;
    CommEngine comm2(engine2, platform_, 4);
    std::vector<int> order2;
    engine2.schedule_at(release, [&order2] { order2.push_back(-1); });
    enter_all(comm2, kind, order2, [&engine2, &order2] {
      engine2.schedule_at(engine2.now(), [&order2] { order2.push_back(-2); });
    });
    engine2.run_until_idle();
    EXPECT_EQ(order2, (std::vector<int>{-1, 2, 0, 1, -2}));
    EXPECT_EQ(engine2.events_fired(), 3u);
  }
}

TEST_F(CommEngineTest, SuccessiveCollectivesMatchByPosition) {
  CommEngine comm(engine_, platform_, 2);
  int completions = 0;
  for (int round = 0; round < 3; ++round) {
    comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64, [&] { ++completions; });
    comm.enter_collective(MpiFunc::kAllreduce, 1, 0, 64, [&] { ++completions; });
    engine_.run_until_idle();
    EXPECT_EQ(completions, 2 * (round + 1));
  }
  EXPECT_EQ(comm.mismatch_count(), 0u);
}

TEST_F(CommEngineTest, AlltoallCostGrowsWithPayload) {
  CommEngine comm_small(engine_, platform_, 4);
  sim::Time t_small = -1;
  for (Rank r = 0; r < 4; ++r) {
    comm_small.enter_collective(MpiFunc::kAlltoall, r, 0, 1024,
                                [&] { t_small = engine_.now(); });
  }
  engine_.run_until_idle();
  const sim::Time start2 = engine_.now();
  CommEngine comm_big(engine_, platform_, 4);
  sim::Time t_big = -1;
  for (Rank r = 0; r < 4; ++r) {
    comm_big.enter_collective(MpiFunc::kAlltoall, r, 0, 10 * 1024 * 1024,
                              [&] { t_big = engine_.now(); });
  }
  engine_.run_until_idle();
  EXPECT_GT(t_big - start2, t_small);
}

TEST_F(CommEngineTest, WaiterCallbackFiresOnCompletion) {
  // The one waiter learns the key at the match, once, with the payload's
  // arrival instant.
  struct KeyWaiter : CompletionWaiter {
    void on_completion_key(sim::Key key) override { keys.push_back(key); }
    std::vector<sim::Key> keys;
  };
  CommEngine comm(engine_, platform_, 2);
  auto recv = comm.post_recv(1, 0, 2, 64);
  KeyWaiter waiter;
  recv->waiter = &waiter;
  comm.post_send(0, 1, 2, 64);
  ASSERT_EQ(waiter.keys.size(), 1u);
  EXPECT_EQ(waiter.keys[0], recv->key);
  EXPECT_EQ(recv->key.time, platform_.transfer_time(64));
  EXPECT_EQ(recv->waiter, nullptr);
  engine_.run_until_idle();
  EXPECT_EQ(waiter.keys.size(), 1u);
  EXPECT_EQ(engine_.events_fired(), 0u);
}

TEST_F(CommEngineTest, DeathOnBadRanks) {
  CommEngine comm(engine_, platform_, 2);
  EXPECT_DEATH((void)comm.post_send(0, 5, 0, 8), "out of range");
  EXPECT_DEATH((void)comm.post_recv(-1, 0, 0, 8), "out of range");
}

}  // namespace
}  // namespace parastack::simmpi
