// The busy-wait (MPI_Test loop) model: duty cycle, backoff, and hang
// behaviour — the properties §3.3's exception list and §4's persistence
// check rely on.

#include <gtest/gtest.h>

#include <deque>

#include "sim/engine.hpp"
#include "simmpi/comm_engine.hpp"
#include "simmpi/rank_process.hpp"

namespace parastack::simmpi {
namespace {

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

/// Rank 1's side: posts the send the busy-waiting rank 0 is waiting for.
struct Sender final : RequestOwner {
  void on_completion_key(std::uint32_t, sim::Key) override {}
  void on_collective_done() override {}
};

struct BusyRig {
  BusyRig() : platform(sim::Platform::tianhe2()) {
    platform.noise_cv = 0.0;
    comm = std::make_unique<CommEngine>(engine, platform, 2);
  }

  std::unique_ptr<RankProcess> spin_forever() {
    // Busy-wait on a receive that never arrives.
    std::deque<Action> script = {Action::irecv(1, 1, 64),
                                 Action::test_loop("spread_loop")};
    return std::make_unique<RankProcess>(
        engine, *comm, platform, 0, 0,
        std::make_unique<ScriptedProgram>(std::move(script)), util::Rng(9),
        RankProcess::Hooks{});
  }

  void send_to_rank0() { comm->post_send(1, 0, 1, 64, sender, 0); }

  sim::Engine engine;
  sim::Platform platform;
  std::unique_ptr<CommEngine> comm;
  Sender sender;
};

TEST(BusyWait, DutyCycleFavoursInMpi) {
  // The MPI_Test probe dominates the loop (§4's persistence check depends
  // on flippers being caught inside MPI most of the time).
  BusyRig rig;
  auto rank = rig.spin_forever();
  rank->start();
  rig.engine.run_until(sim::kSecond);  // let the loop settle
  int out = 0;
  int in = 0;
  for (int i = 0; i < 3000; ++i) {
    rig.engine.run_until(rig.engine.now() + sim::from_micros(230));
    if (rank->status() == RankStatus::kBusyWaitOut) ++out;
    if (rank->status() == RankStatus::kBusyWaitIn) ++in;
  }
  ASSERT_GT(out + in, 2500);
  const double out_fraction =
      static_cast<double>(out) / static_cast<double>(out + in);
  EXPECT_GT(out_fraction, 0.15);
  EXPECT_LT(out_fraction, 0.55);
}

TEST(BusyWait, BackoffBoundsEventRate) {
  // A rank flipping "forever" must not melt the event queue: after the
  // exponential backoff settles, the flip rate is bounded.
  BusyRig rig;
  auto rank = rig.spin_forever();
  rank->start();
  rig.engine.run_until(2 * sim::kSecond);
  const auto fired_before = rig.engine.events_fired();
  rig.engine.run_until(12 * sim::kSecond);
  const auto events = rig.engine.events_fired() - fired_before;
  // 10 simulated seconds of spinning: at the backoff cap (~14 ms/cycle)
  // that is ~700 cycles = ~1400 events, far below the unbacked-off ~120k.
  EXPECT_LT(events, 6000u);
  EXPECT_GT(events, 200u);  // ...but the rank must still be flipping
  EXPECT_FALSE(rank->finished());
}

TEST(BusyWait, BackoffResetsPerLoop) {
  // A fresh busy-wait that completes quickly uses fine slices again.
  BusyRig rig;
  std::deque<Action> script = {Action::irecv(1, 1, 64),
                               Action::test_loop("fast_loop")};
  auto rank = std::make_unique<RankProcess>(
      rig.engine, *rig.comm, rig.platform, 0, 0,
      std::make_unique<ScriptedProgram>(std::move(script)), util::Rng(10),
      RankProcess::Hooks{});
  rank->start();
  // Satisfy the receive after 3 ms: the loop should exit within a few
  // fine-grained slices, not a backed-off 14 ms one.
  rig.engine.schedule_at(3 * sim::kMillisecond, [&] {
    rig.send_to_rank0();
  });
  rig.engine.run_until(20 * sim::kMillisecond);
  EXPECT_TRUE(rank->finished());
}

TEST(BusyWait, CompletionExitsTheLoopLate) {
  // Even a deeply backed-off loop notices completion at its next probe.
  BusyRig rig;
  auto rank = rig.spin_forever();
  rank->start();
  rig.engine.run_until(30 * sim::kSecond);  // fully backed off
  rig.send_to_rank0();
  rig.engine.run_until(31 * sim::kSecond);
  EXPECT_TRUE(rank->finished());
}

}  // namespace
}  // namespace parastack::simmpi
