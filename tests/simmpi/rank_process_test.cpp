#include "simmpi/rank_process.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/comm_engine.hpp"

namespace parastack::simmpi {
namespace {

/// Scripted program: plays back a fixed action list, then finishes.
class ScriptedProgram : public Program {
 public:
  explicit ScriptedProgram(std::deque<Action> script)
      : script_(std::move(script)) {}

  Action next() override {
    if (script_.empty()) return Action::finish();
    Action action = script_.front();
    script_.pop_front();
    return action;
  }

 private:
  std::deque<Action> script_;
};

class RankProcessTest : public ::testing::Test {
 protected:
  RankProcessTest() : platform_(sim::Platform::tianhe2()) {
    platform_.noise_cv = 0.0;  // deterministic timings for assertions
    comm_ = std::make_unique<CommEngine>(engine_, platform_, 4);
  }

  std::unique_ptr<RankProcess> make_rank(Rank rank, std::deque<Action> script) {
    RankProcess::Hooks hooks;
    hooks.on_finished = [this](Rank) { ++finished_; };
    return std::make_unique<RankProcess>(
        engine_, *comm_, platform_, rank, 0,
        std::make_unique<ScriptedProgram>(std::move(script)),
        util::Rng(100 + static_cast<std::uint64_t>(rank)), hooks);
  }

  sim::Engine engine_;
  sim::Platform platform_;
  std::unique_ptr<CommEngine> comm_;
  int finished_ = 0;
};

TEST_F(RankProcessTest, ComputeRunsOutMpiThenFinishes) {
  auto rank = make_rank(0, {Action::compute(sim::from_millis(50), 0.0, "fn")});
  rank->start();
  engine_.run_until(sim::from_millis(20));
  EXPECT_EQ(rank->status(), RankStatus::kComputing);
  EXPECT_FALSE(rank->in_mpi());
  EXPECT_EQ(rank->stack().top(), "fn");
  engine_.run_until_idle();
  EXPECT_TRUE(rank->finished());
  EXPECT_EQ(finished_, 1);
  // Finished ranks rest in MPI_Finalize (IN_MPI), not in user code.
  EXPECT_TRUE(rank->in_mpi());
}

TEST_F(RankProcessTest, BlockingRecvWaitsForSender) {
  auto receiver = make_rank(0, {Action::recv(1, 9, 256)});
  receiver->start();
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(receiver->status(), RankStatus::kInMpiBlocked);
  EXPECT_TRUE(receiver->in_mpi());
  EXPECT_EQ(receiver->stack().innermost_mpi_frame(), "pmpi_progress_wait");

  auto sender = make_rank(1, {Action::send(0, 9, 256)});
  sender->start();
  engine_.run_until_idle();
  EXPECT_TRUE(receiver->finished());
  EXPECT_TRUE(sender->finished());
}

TEST_F(RankProcessTest, SendrecvPairExchanges) {
  auto a = make_rank(0, {Action::sendrecv(1, 3, 512)});
  auto b = make_rank(1, {Action::sendrecv(0, 3, 512)});
  a->start();
  b->start();
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
}

TEST_F(RankProcessTest, HalfBlockingHaloViaWaitall) {
  std::deque<Action> script_a = {Action::irecv(1, 4, 128),
                                 Action::isend(1, 4, 128), Action::wait_all()};
  std::deque<Action> script_b = {Action::irecv(0, 4, 128),
                                 Action::isend(0, 4, 128), Action::wait_all()};
  auto a = make_rank(0, std::move(script_a));
  auto b = make_rank(1, std::move(script_b));
  a->start();
  b->start();
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
}

TEST_F(RankProcessTest, WaitallBlocksUntilPeerPosts) {
  std::deque<Action> script = {Action::irecv(1, 4, 128), Action::wait_all()};
  auto a = make_rank(0, std::move(script));
  a->start();
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(a->status(), RankStatus::kInMpiBlocked);
  EXPECT_EQ(a->stack().innermost_mpi_frame(), "pmpi_progress_wait");

  auto b = make_rank(1, {Action::send(0, 4, 128)});
  b->start();
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
}

// A blocking call wakes its rank with one engine event, at the latest
// completion of the requests it blocks on, however many there are. The
// peers' halves are posted straight into the CommEngine by one event each;
// nobody waits on their requests. Messages are above the eager threshold,
// so every request completes only at its match, while rank 0 is blocked.
// One event per request completion would add one event for each of rank
// 0's requests and one for each of the peers'.
TEST_F(RankProcessTest, WaitallOverFourHaloRequestsCostsOneEvent) {
  constexpr std::size_t kBytes = 1024 * 1024;
  auto a = make_rank(
      0, {Action::irecv(1, 4, kBytes), Action::irecv(2, 4, kBytes),
          Action::isend(1, 4, kBytes), Action::isend(2, 4, kBytes),
          Action::wait_all()});
  a->start();
  engine_.run_until(sim::from_millis(1));
  EXPECT_EQ(a->stack().innermost_mpi_frame(), "pmpi_progress_wait");
  const std::uint64_t before = engine_.events_fired();
  engine_.schedule_at(1 * sim::kSecond, [this] {
    (void)comm_->post_send(1, 0, 4, kBytes);
  });
  engine_.schedule_at(2 * sim::kSecond, [this] {
    (void)comm_->post_recv(1, 0, 4, kBytes);
  });
  engine_.schedule_at(3 * sim::kSecond, [this] {
    (void)comm_->post_send(2, 0, 4, kBytes);
  });
  engine_.schedule_at(4 * sim::kSecond, [this] {
    (void)comm_->post_recv(2, 0, 4, kBytes);
  });
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  // Four posts and one wake-up, at the last completion's instant.
  EXPECT_EQ(engine_.events_fired() - before, 4u + 1u);
  EXPECT_EQ(a->finished_at(),
            4 * sim::kSecond + platform_.transfer_time(kBytes));
}

TEST_F(RankProcessTest, SendrecvCostsOneEvent) {
  constexpr std::size_t kBytes = 1024 * 1024;
  auto a = make_rank(0, {Action::sendrecv(1, 3, kBytes)});
  a->start();
  engine_.run_until(sim::from_millis(1));
  EXPECT_EQ(a->stack().innermost_mpi_frame(), "pmpi_progress_wait");
  const std::uint64_t before = engine_.events_fired();
  engine_.schedule_at(1 * sim::kSecond, [this] {
    (void)comm_->post_send(1, 0, 3, kBytes);
  });
  engine_.schedule_at(2 * sim::kSecond, [this] {
    (void)comm_->post_recv(1, 0, 3, kBytes);
  });
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  // Two posts and one wake-up, at the later completion's instant.
  EXPECT_EQ(engine_.events_fired() - before, 2u + 1u);
  EXPECT_EQ(a->finished_at(),
            2 * sim::kSecond + platform_.transfer_time(kBytes));
}

TEST_F(RankProcessTest, TestLoopFlipsBetweenStates) {
  std::deque<Action> script = {Action::irecv(1, 4, 128),
                               Action::test_loop("hpl_spread_loop")};
  auto a = make_rank(0, std::move(script));
  a->start();
  // Sample the busy-wait over a window; both states must appear.
  bool saw_out = false;
  bool saw_in = false;
  for (int i = 0; i < 400; ++i) {
    engine_.run_until(engine_.now() + sim::from_micros(20));
    if (a->status() == RankStatus::kBusyWaitOut) saw_out = true;
    if (a->status() == RankStatus::kBusyWaitIn) {
      saw_in = true;
      EXPECT_EQ(a->stack().innermost_mpi_frame(), "MPI_Test");
    }
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in);
  EXPECT_FALSE(a->finished());

  auto b = make_rank(1, {Action::send(0, 4, 128)});
  b->start();
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
}

TEST_F(RankProcessTest, HangComputeNeverFinishes) {
  auto a = make_rank(0, {Action::hang_compute("stuck_loop")});
  a->start();
  engine_.run_until(sim::kMinute);
  EXPECT_EQ(a->status(), RankStatus::kHungCompute);
  EXPECT_FALSE(a->in_mpi());
  EXPECT_EQ(a->stack().top(), "stuck_loop");
  EXPECT_FALSE(a->finished());
}

TEST_F(RankProcessTest, HangInMpiNeverFinishes) {
  auto a = make_rank(0, {Action::hang_in_mpi(MpiFunc::kAllreduce)});
  a->start();
  engine_.run_until(sim::kMinute);
  EXPECT_EQ(a->status(), RankStatus::kInMpiBlocked);
  EXPECT_TRUE(a->in_mpi());
  EXPECT_EQ(a->stack().innermost_mpi_frame(), "pmpi_progress_wait");
  EXPECT_FALSE(a->finished());
}

TEST_F(RankProcessTest, SuspensionDelaysComputeCompletion) {
  auto fast = make_rank(0, {Action::compute(sim::from_millis(50), 0.0, "fn")});
  auto slow = make_rank(1, {Action::compute(sim::from_millis(50), 0.0, "fn")});
  fast->start();
  slow->start();
  engine_.run_until(sim::from_millis(10));
  slow->add_suspension(sim::from_millis(40));  // ptrace stop
  engine_.run_until_idle();
  EXPECT_GE(slow->finished_at(), fast->finished_at() + sim::from_millis(39));
}

TEST_F(RankProcessTest, SuspensionIgnoredWhileBlockedInMpi) {
  auto receiver = make_rank(0, {Action::recv(1, 9, 256)});
  receiver->start();
  engine_.run_until(sim::from_millis(100));
  receiver->add_suspension(sim::kSecond);  // blocked: loses nothing
  auto sender = make_rank(1, {Action::send(0, 9, 256)});
  sender->start();
  engine_.run_until_idle();
  EXPECT_TRUE(receiver->finished());
  // Completion well before the 1s suspension would have allowed.
  EXPECT_LT(receiver->finished_at(), sim::from_millis(300));
}

TEST_F(RankProcessTest, FreezeStopsProgressInPlace) {
  auto a = make_rank(0, {Action::compute(sim::from_millis(50), 0.0, "fn"),
                         Action::compute(sim::from_millis(50), 0.0, "fn2")});
  a->start();
  engine_.run_until(sim::from_millis(20));
  EXPECT_EQ(a->status(), RankStatus::kComputing);
  a->freeze();
  engine_.run_until(sim::kMinute);
  EXPECT_EQ(a->status(), RankStatus::kComputing);  // state preserved
  EXPECT_TRUE(a->frozen());
  EXPECT_FALSE(a->finished());
  EXPECT_EQ(a->stack().top(), "fn");  // never advanced
}

TEST_F(RankProcessTest, FrozenRankIgnoresCommCompletion) {
  auto receiver = make_rank(0, {Action::recv(1, 9, 256)});
  receiver->start();
  engine_.run_until(sim::from_millis(50));
  receiver->freeze();
  auto sender = make_rank(1, {Action::send(0, 9, 256)});
  sender->start();
  engine_.run_until_idle();
  EXPECT_FALSE(receiver->finished());
  EXPECT_TRUE(receiver->in_mpi());  // still parked inside MPI_Recv
}

TEST_F(RankProcessTest, SlowdownFactorStretchesNewComputes) {
  auto normal = make_rank(0, {Action::compute(sim::from_millis(40), 0.0, "f")});
  auto slowed = make_rank(1, {Action::compute(sim::from_millis(40), 0.0, "f")});
  slowed->set_compute_factor(8.0);
  normal->start();
  slowed->start();
  engine_.run_until_idle();
  EXPECT_GT(slowed->finished_at(), 6 * normal->finished_at());
}

}  // namespace
}  // namespace parastack::simmpi
