#include "simmpi/comm_engine.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace parastack::simmpi {
namespace {

/// A test rank: keeps each request's completion key by slot, as a
/// RankProcess does, and runs `done` when a collective releases it.
struct TestOwner final : RequestOwner {
  std::uint32_t send(CommEngine& comm, Rank src, Rank dst, int tag,
                     std::size_t bytes) {
    keys.push_back(kUnmatchedKey);
    const auto slot = static_cast<std::uint32_t>(keys.size() - 1);
    comm.post_send(src, dst, tag, bytes, *this, slot);
    return slot;
  }
  std::uint32_t recv(CommEngine& comm, Rank dst, Rank src, int tag) {
    keys.push_back(kUnmatchedKey);
    const auto slot = static_cast<std::uint32_t>(keys.size() - 1);
    comm.post_recv(dst, src, tag, *this, slot);
    return slot;
  }
  void on_completion_key(std::uint32_t slot, sim::Key key) override {
    keys.at(slot) = key;
    ++reports;
  }
  void on_collective_done() override { done(); }

  std::vector<sim::Key> keys;
  int reports = 0;
  std::function<void()> done = [] {};
};

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

  /// A rank that runs `done` when a collective releases it. The deque keeps
  /// every owner where the engine was told it is.
  RequestOwner& on_done(std::function<void()> done) {
    owners_.emplace_back().done = std::move(done);
    return owners_.back();
  }

  sim::Engine engine_;
  sim::Platform platform_;
  std::deque<TestOwner> owners_;
};

// A completion fires no event, so running the engine no longer moves the
// clock to it: where these tests once checked a completed flag after
// running, they check the completion key and its instant.

TEST_F(CommEngineTest, EagerSendCompletesWithoutReceiver) {
  CommEngine comm(engine_, platform_, 4);
  TestOwner rank0;
  const auto send = rank0.send(comm, 0, 1, 5, 1024);  // below the threshold
  EXPECT_GT(rank0.keys[send], engine_.firing());       // not complete yet
  engine_.run_until_idle();
  EXPECT_EQ(rank0.keys[send].time, eager_cost(1024));
  EXPECT_EQ(engine_.events_fired(), 0u);
  EXPECT_EQ(comm.matches(), 0u);
}

TEST_F(CommEngineTest, EagerSendReportsItsKeyOnceAtThePost) {
  // The key is fixed when the send is posted; the queued op never calls
  // back, not even when a receive matches it.
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  TestOwner rank1;
  const auto send = rank0.send(comm, 0, 1, 5, 1024);
  EXPECT_EQ(rank0.reports, 1);
  const sim::Key key = rank0.keys[send];
  const auto recv = rank1.recv(comm, 1, 0, 5);
  EXPECT_EQ(comm.matches(), 1u);
  EXPECT_EQ(rank0.reports, 1);
  EXPECT_EQ(rank0.keys[send], key);
  EXPECT_EQ(rank1.reports, 1);
  EXPECT_EQ(rank1.keys[recv].time, platform_.transfer_time(1024));
}

TEST_F(CommEngineTest, RendezvousSendWaitsForReceiver) {
  CommEngine comm(engine_, platform_, 4);
  TestOwner rank0;
  TestOwner rank1;
  const auto send = rank0.send(comm, 0, 1, 5, 1024 * 1024);  // rendezvous
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(rank0.keys[send], kUnmatchedKey);
  const auto recv = rank1.recv(comm, 1, 0, 5);
  engine_.run_until_idle();
  // Both complete when the transfer that starts at the match finishes.
  const sim::Time done = sim::kSecond + platform_.transfer_time(1024 * 1024);
  EXPECT_EQ(rank0.keys[send].time, done);
  EXPECT_EQ(rank1.keys[recv].time, done);
  EXPECT_LT(rank0.keys[send], rank1.keys[recv]);
  EXPECT_EQ(comm.matches(), 1u);
}

TEST_F(CommEngineTest, RecvCompletesAfterEagerArrival) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  TestOwner rank1;
  const auto recv = rank1.recv(comm, 1, 0, 3);
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(rank1.keys[recv], kUnmatchedKey);
  rank0.send(comm, 0, 1, 3, 512);
  engine_.run_until_idle();
  EXPECT_EQ(rank1.keys[recv].time,
            sim::kSecond + platform_.transfer_time(512));
}

TEST_F(CommEngineTest, TagsKeepChannelsSeparate) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  TestOwner rank1;
  const auto recv_tag7 = rank1.recv(comm, 1, 0, 7);
  rank0.send(comm, 0, 1, 9, 512);  // different tag: must not match
  engine_.run_until_idle();
  EXPECT_EQ(rank1.keys[recv_tag7], kUnmatchedKey);
  rank0.send(comm, 0, 1, 7, 512);
  engine_.run_until_idle();
  EXPECT_EQ(rank1.keys[recv_tag7].time, platform_.transfer_time(512));
}

TEST_F(CommEngineTest, DirectionMatters) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  const auto recv = rank0.recv(comm, 0, 1, 4);  // 0 receives from 1
  rank0.send(comm, 0, 1, 4, 256);               // 0 sends to 1: no match
  engine_.run_until_idle();
  EXPECT_EQ(rank0.keys[recv], kUnmatchedKey);
}

TEST_F(CommEngineTest, FifoMatchingPerChannel) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  TestOwner rank1;
  const auto recv1 = rank1.recv(comm, 1, 0, 1);
  const auto recv2 = rank1.recv(comm, 1, 0, 1);
  rank0.send(comm, 0, 1, 1, 128);
  engine_.run_until_idle();
  // The first posted matches first.
  EXPECT_EQ(rank1.keys[recv1].time, platform_.transfer_time(128));
  EXPECT_EQ(rank1.keys[recv2], kUnmatchedKey);
}

TEST_F(CommEngineTest, UnmatchedRecvNeverCompletes) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank1;
  const auto recv = rank1.recv(comm, 1, 0, 1);
  engine_.run_until(10 * sim::kSecond);
  EXPECT_EQ(rank1.keys[recv], kUnmatchedKey);  // the hang primitive
}

TEST_F(CommEngineTest, SynchronizingCollectiveWaitsForAll) {
  CommEngine comm(engine_, platform_, 3);
  int done = 0;
  comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64,
                        on_done([&] { ++done; }));
  comm.enter_collective(MpiFunc::kAllreduce, 1, 0, 64,
                        on_done([&] { ++done; }));
  engine_.run_until(10 * sim::kSecond);
  EXPECT_EQ(done, 0);  // rank 2 missing: nobody may leave
  comm.enter_collective(MpiFunc::kAllreduce, 2, 0, 64,
                        on_done([&] { ++done; }));
  engine_.run_until_idle();
  EXPECT_EQ(done, 3);
}

TEST_F(CommEngineTest, BarrierReleasesEveryoneAfterLastArrival) {
  CommEngine comm(engine_, platform_, 2);
  sim::Time released0 = -1;
  comm.enter_collective(MpiFunc::kBarrier, 0, 0, 0,
                        on_done([&] { released0 = engine_.now(); }));
  engine_.run_until(sim::kSecond);
  comm.enter_collective(MpiFunc::kBarrier, 1, 0, 0, on_done([] {}));
  engine_.run_until_idle();
  EXPECT_GE(released0, sim::kSecond);  // not before the last arrival
}

TEST_F(CommEngineTest, GatherNonRootLeavesEarly) {
  // Paper §4: MPI_Gather is NOT synchronization-like.
  CommEngine comm(engine_, platform_, 3);
  bool nonroot_done = false;
  bool root_done = false;
  comm.enter_collective(MpiFunc::kGather, 1, 0, 1024,
                        on_done([&] { nonroot_done = true; }));
  comm.enter_collective(MpiFunc::kGather, 0, 0, 1024,
                        on_done([&] { root_done = true; }));
  engine_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(nonroot_done);  // leaves after injecting its contribution
  EXPECT_FALSE(root_done);    // root waits for rank 2
  comm.enter_collective(MpiFunc::kGather, 2, 0, 1024, on_done([] {}));
  engine_.run_until_idle();
  EXPECT_TRUE(root_done);
}

TEST_F(CommEngineTest, RootedCollectivesLetRanksRunAhead) {
  // Non-roots leave a Gather at once, so they run ten instances ahead of
  // a late root: ten instances are open at once, and each closes, oldest
  // first, when the root arrives at it.
  CommEngine comm(engine_, platform_, 3);
  std::vector<int> root_done;
  for (int i = 0; i < 10; ++i) {
    comm.enter_collective(MpiFunc::kGather, 1, 2, 64, on_done([] {}));
    comm.enter_collective(MpiFunc::kGather, 0, 2, 64, on_done([] {}));
    EXPECT_EQ(comm.open_collectives(), static_cast<std::size_t>(i + 1));
  }
  engine_.run_until(sim::kSecond);
  for (int i = 0; i < 10; ++i) {
    comm.enter_collective(MpiFunc::kGather, 2, 2, 64,
                          on_done([&root_done, i] { root_done.push_back(i); }));
    EXPECT_EQ(comm.open_collectives(), static_cast<std::size_t>(9 - i));
  }
  engine_.run_until_idle();
  EXPECT_EQ(root_done, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(comm.mismatch_count(), 0u);
}

TEST_F(CommEngineTest, BcastRootLeavesWithoutStragglers) {
  CommEngine comm(engine_, platform_, 3);
  bool root_done = false;
  bool nonroot_done = false;
  comm.enter_collective(MpiFunc::kBcast, 0, 0, 4096,
                        on_done([&] { root_done = true; }));
  comm.enter_collective(MpiFunc::kBcast, 1, 0, 4096,
                        on_done([&] { nonroot_done = true; }));
  engine_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(root_done);     // fire-and-forget down the tree
  EXPECT_TRUE(nonroot_done);  // root arrived, data could reach rank 1
}

TEST_F(CommEngineTest, BcastNonRootWaitsForRoot) {
  CommEngine comm(engine_, platform_, 3);
  bool nonroot_done = false;
  comm.enter_collective(MpiFunc::kBcast, 1, 0, 4096,
                        on_done([&] { nonroot_done = true; }));
  engine_.run_until(10 * sim::kSecond);
  EXPECT_FALSE(nonroot_done);  // no data until the root shows up
}

TEST_F(CommEngineTest, CollectiveMismatchIsRecordedAndHangsTheOffender) {
  CommEngine comm(engine_, platform_, 2);
  bool a_done = false;
  bool b_done = false;
  comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64,
                        on_done([&] { a_done = true; }));
  EXPECT_EQ(comm.open_collectives(), 1u);
  comm.enter_collective(MpiFunc::kBarrier, 1, 0, 0,
                        on_done([&] { b_done = true; }));
  EXPECT_EQ(comm.open_collectives(), 0u);
  engine_.run_until_idle();
  EXPECT_EQ(comm.mismatch_count(), 1u);
  EXPECT_TRUE(a_done);    // instance completed once `arrived` reached nranks
  EXPECT_FALSE(b_done);   // the mismatched rank deadlocks
}

TEST_F(CommEngineTest, SynchronizingCollectiveReleasesWithOneEvent) {
  // Ranks arrive in the order 2, 0, 3, 1; rank 3 names another root, so
  // it is a mismatch that counts as an arrival but is never released.
  // Rank 2's continuation, the first to run, also calls `first_done`.
  const auto enter_all = [this](CommEngine& comm, MpiFunc kind,
                                std::vector<int>& order,
                                const std::function<void()>& first_done) {
    for (const Rank rank : {2, 0, 3, 1}) {
      comm.enter_collective(kind, rank, rank == 3 ? 1 : 0, 64,
                            on_done([&order, first_done, rank] {
                              if (rank == 2) first_done();
                              order.push_back(rank);
                            }));
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
    comm.enter_collective(MpiFunc::kAllreduce, 0, 0, 64,
                          on_done([&] { ++completions; }));
    comm.enter_collective(MpiFunc::kAllreduce, 1, 0, 64,
                          on_done([&] { ++completions; }));
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
                                on_done([&] { t_small = engine_.now(); }));
  }
  engine_.run_until_idle();
  const sim::Time start2 = engine_.now();
  CommEngine comm_big(engine_, platform_, 4);
  sim::Time t_big = -1;
  for (Rank r = 0; r < 4; ++r) {
    comm_big.enter_collective(MpiFunc::kAlltoall, r, 0, 10 * 1024 * 1024,
                              on_done([&] { t_big = engine_.now(); }));
  }
  engine_.run_until_idle();
  EXPECT_GT(t_big - start2, t_small);
}

TEST_F(CommEngineTest, WaiterCallbackFiresOnCompletion) {
  // The receiving rank learns the key at the match, once, with the
  // payload's arrival instant, and the matched op leaves its channel.
  CommEngine comm(engine_, platform_, 2);
  TestOwner rank0;
  TestOwner rank1;
  const auto recv = rank1.recv(comm, 1, 0, 2);
  EXPECT_EQ(rank1.reports, 0);
  rank0.send(comm, 0, 1, 2, 64);
  ASSERT_EQ(rank1.reports, 1);
  EXPECT_EQ(rank1.keys[recv].time, platform_.transfer_time(64));
  EXPECT_EQ(comm.pending_recvs(), 0u);
  engine_.run_until_idle();
  EXPECT_EQ(rank1.reports, 1);
  EXPECT_EQ(engine_.events_fired(), 0u);
}

TEST_F(CommEngineTest, DeathOnBadRanks) {
  CommEngine comm(engine_, platform_, 2);
  TestOwner owner;
  EXPECT_DEATH(comm.post_send(0, 5, 0, 8, owner, 0), "out of range");
  EXPECT_DEATH(comm.post_recv(-1, 0, 0, owner, 0), "out of range");
}

}  // namespace
}  // namespace parastack::simmpi
