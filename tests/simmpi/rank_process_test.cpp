#include "simmpi/rank_process.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string_view>
#include <vector>

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

/// Posts a peer's half of an exchange straight into the CommEngine; nobody
/// waits on its requests, and a slot is never reused.
struct Peer final : RequestOwner {
  void send(CommEngine& comm, Rank src, Rank dst, int tag, std::size_t bytes) {
    comm.post_send(src, dst, tag, bytes, *this, slots++);
  }
  void recv(CommEngine& comm, Rank dst, Rank src, int tag) {
    comm.post_recv(dst, src, tag, *this, slots++);
  }
  void on_completion_key(std::uint32_t, sim::Key) override {}
  void on_collective_done() override {}

  std::uint32_t slots = 0;
};

/// The MPI call a blocked rank is in (the frame under the progress frame).
std::string_view blocked_in(const RankProcess& rank) {
  const auto& frames = rank.stack().frames();
  return frames.size() < 2 ? std::string_view{}
                           : frames[frames.size() - 2].name;
}

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
  Peer peer_;
  int finished_ = 0;
};

TEST_F(RankProcessTest, ComputeRunsOutMpiThenFinishes) {
  auto rank = make_rank(0, {Action::compute(sim::from_millis(50), 0.0, "fn")});
  rank->start();
  engine_.run_until(sim::from_millis(20));
  EXPECT_EQ(rank->status(), RankStatus::kComputing);
  EXPECT_FALSE(rank->in_mpi());
  EXPECT_EQ(rank->stack().frames().back().name, "fn");
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
  auto a =
      make_rank(0, {Action::irecv(1, 4, kBytes), Action::irecv(2, 4, kBytes),
                    Action::isend(1, 4, kBytes), Action::isend(2, 4, kBytes),
                    Action::wait_all()});
  a->start();
  engine_.run_until(sim::from_millis(1));
  EXPECT_EQ(a->stack().innermost_mpi_frame(), "pmpi_progress_wait");
  const std::uint64_t before = engine_.events_fired();
  engine_.schedule_at(1 * sim::kSecond,
                      [this] { peer_.send(*comm_, 1, 0, 4, kBytes); });
  engine_.schedule_at(2 * sim::kSecond,
                      [this] { peer_.recv(*comm_, 1, 0, 4); });
  engine_.schedule_at(3 * sim::kSecond,
                      [this] { peer_.send(*comm_, 2, 0, 4, kBytes); });
  engine_.schedule_at(4 * sim::kSecond,
                      [this] { peer_.recv(*comm_, 2, 0, 4); });
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
  engine_.schedule_at(1 * sim::kSecond,
                      [this] { peer_.send(*comm_, 1, 0, 3, kBytes); });
  engine_.schedule_at(2 * sim::kSecond,
                      [this] { peer_.recv(*comm_, 1, 0, 3); });
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  // Two posts and one wake-up, at the later completion's instant.
  EXPECT_EQ(engine_.events_fired() - before, 2u + 1u);
  EXPECT_EQ(a->finished_at(),
            2 * sim::kSecond + platform_.transfer_time(kBytes));
}

// Slot retirement. A rank drops the slots a wait covered when that wait
// returns, and only then; each of the cases below goes wrong if a slot is
// dropped, reused or counted by the wrong call.

// An Irecv whose key is fixed while the rank is blocked in a later Send
// is not part of the Send's wait: the Send returns at its own completion,
// and the Waitall after it still waits for the Irecv, whose transfer is
// the longer one.
TEST_F(RankProcessTest, IrecvCompletingDuringALaterSendWaitsForTheWaitall) {
  constexpr std::size_t kLong = 64 * 1024 * 1024;
  constexpr std::size_t kShort = 1024 * 1024;
  auto a = make_rank(0, {Action::irecv(1, 4, kLong), Action::send(2, 5, kShort),
                         Action::wait_all()});
  a->start();
  const sim::Time irecv_match = sim::kSecond;
  const sim::Time send_match = sim::kSecond + sim::from_millis(1);
  engine_.schedule_at(irecv_match,
                      [this] { peer_.send(*comm_, 1, 0, 4, kLong); });
  engine_.schedule_at(send_match, [this] { peer_.recv(*comm_, 2, 0, 5); });
  const sim::Time send_done = send_match + platform_.transfer_time(kShort);
  const sim::Time irecv_done = irecv_match + platform_.transfer_time(kLong);
  ASSERT_LT(send_done, irecv_done);

  engine_.run_until(send_match - 1);  // the Irecv's key is fixed
  EXPECT_EQ(comm_->pending_recvs(), 0u);
  EXPECT_EQ(blocked_in(*a), "MPI_Send");
  engine_.run_until(send_done - 1);
  EXPECT_EQ(blocked_in(*a), "MPI_Send");
  engine_.run_until(send_done);
  EXPECT_EQ(blocked_in(*a), "MPI_Waitall");
  engine_.run_until_idle();
  EXPECT_TRUE(a->finished());
  EXPECT_EQ(a->finished_at(), irecv_done);
}

// A Sendrecv with itself: the receive half matches the send half inside
// the call, so both keys arrive before the call counts what it waits on.
TEST_F(RankProcessTest, SendrecvWithItself) {
  for (const std::size_t bytes : {std::size_t{512}, std::size_t{1024 * 1024}}) {
    SCOPED_TRACE(bytes);
    sim::Engine engine;
    CommEngine comm(engine, platform_, 1);
    RankProcess a(
        engine, comm, platform_, 0, 0,
        std::make_unique<ScriptedProgram>(std::deque<Action>{
            Action::sendrecv(0, 3, bytes), Action::sendrecv(0, 3, bytes)}),
        util::Rng(7), RankProcess::Hooks{});
    a.start();
    engine.run_until_idle();
    EXPECT_TRUE(a.finished());
    EXPECT_EQ(comm.matches(), 2u);
    EXPECT_EQ(comm.pending_sends(), 0u);
    EXPECT_EQ(comm.pending_recvs(), 0u);
    // The start, then one wake-up per call.
    EXPECT_EQ(engine.events_fired(), 3u);
  }
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
  EXPECT_EQ(a->stack().frames().back().name, "stuck_loop");
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
  EXPECT_EQ(a->stack().frames().back().name, "fn");  // never advanced
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

// A frozen rank still takes the completion it was blocked on: the
// wake-up event fires, as a no-op, and the rank does not advance.
TEST_F(RankProcessTest, RankFrozenInRecvTakesItsCompletionWithoutAdvancing) {
  auto receiver = make_rank(0, {Action::recv(1, 9, 256)});
  receiver->start();
  engine_.run_until(sim::from_millis(50));
  receiver->freeze();
  const std::uint64_t actions = receiver->actions_executed();
  const std::uint64_t before = engine_.events_fired();
  engine_.schedule_at(sim::kSecond,
                      [this] { peer_.send(*comm_, 1, 0, 9, 256); });
  engine_.run_until_idle();
  // The send and the receiver's no-op wake-up.
  EXPECT_EQ(engine_.events_fired() - before, 2u);
  EXPECT_EQ(comm_->pending_recvs(), 0u);
  EXPECT_EQ(receiver->actions_executed(), actions);
  EXPECT_EQ(blocked_in(*receiver), "MPI_Recv");
  EXPECT_FALSE(receiver->finished());
}

TEST_F(RankProcessTest, RankFrozenInAllreduceTakesItsReleaseWithoutAdvancing) {
  std::vector<std::unique_ptr<RankProcess>> ranks;
  for (Rank r = 0; r < 4; ++r) {
    ranks.push_back(
        make_rank(r, {Action::collective(Action::Kind::kAllreduce, 64)}));
  }
  for (Rank r = 0; r < 3; ++r) ranks[static_cast<std::size_t>(r)]->start();
  engine_.run_until(sim::from_millis(50));
  ranks[0]->freeze();
  const std::uint64_t actions = ranks[0]->actions_executed();
  ranks[3]->start();
  engine_.run_until_idle();
  EXPECT_EQ(comm_->open_collectives(), 0u);
  EXPECT_EQ(finished_, 3);
  EXPECT_FALSE(ranks[0]->finished());
  EXPECT_EQ(ranks[0]->actions_executed(), actions);
  EXPECT_EQ(blocked_in(*ranks[0]), "MPI_Allreduce");
}

// A mismatched rank counts as arrived but is never released, and the
// instance after it never fills; open_collectives() counts exactly the
// instances some rank has entered and not all have.
TEST_F(RankProcessTest, CollectiveMismatchLeavesItsRankBlocked) {
  std::vector<std::unique_ptr<RankProcess>> ranks;
  for (Rank r = 0; r < 3; ++r) {
    ranks.push_back(
        make_rank(r, {Action::collective(Action::Kind::kAllreduce, 64),
                      Action::collective(Action::Kind::kBarrier, 0)}));
  }
  ranks.push_back(
      make_rank(3, {Action::collective(Action::Kind::kBarrier, 0)}));
  for (Rank r = 0; r < 3; ++r) ranks[static_cast<std::size_t>(r)]->start();
  engine_.run_until(sim::kSecond);
  EXPECT_EQ(comm_->open_collectives(), 1u);
  ranks[3]->start();
  engine_.run_until_idle();
  EXPECT_EQ(comm_->mismatch_count(), 1u);
  // The Allreduce closed when rank 3 arrived; the Barrier ranks 0-2 then
  // entered waits for rank 3, which never leaves its mismatched call.
  EXPECT_EQ(comm_->open_collectives(), 1u);
  EXPECT_EQ(ranks[3]->status(), RankStatus::kInMpiBlocked);
  EXPECT_EQ(blocked_in(*ranks[3]), "MPI_Barrier");
  for (Rank r = 0; r < 3; ++r) {
    EXPECT_EQ(blocked_in(*ranks[static_cast<std::size_t>(r)]), "MPI_Barrier");
  }
  EXPECT_EQ(finished_, 0);
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
