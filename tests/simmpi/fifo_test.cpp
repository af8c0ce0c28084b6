// Differential tests of the channel FIFO (simmpi::Fifo) against std::deque,
// and of CommEngine matching over a backlog that never fully drains: order
// stays first-in first-out, and pending_sends()/pending_recvs() stay exact.

#include "simmpi/fifo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/comm_engine.hpp"

namespace parastack::simmpi {
namespace {

TEST(Fifo, RandomTrafficMatchesDeque) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    std::mt19937_64 gen(seed);
    Fifo<int> fifo;
    std::deque<int> ref;
    int next = 0;
    // Pushes outpace pops: the backlog grows through several ring sizes
    // while wrapping around, and never drains completely.
    for (int step = 0; step < 5000; ++step) {
      if (gen() % 100 < 55 || ref.size() < 3) {
        fifo.push_back(next);
        ref.push_back(next);
        ++next;
      } else {
        ASSERT_EQ(fifo.pop_front(), ref.front()) << "seed " << seed;
        ref.pop_front();
      }
      ASSERT_EQ(fifo.size(), ref.size());
      ASSERT_EQ(fifo.empty(), ref.empty());
    }
    while (!ref.empty()) {
      ASSERT_EQ(fifo.pop_front(), ref.front());
      ref.pop_front();
    }
    EXPECT_TRUE(fifo.empty());
  }
}

TEST(Fifo, PoppedSlotsReleaseTheirResources) {
  Fifo<std::shared_ptr<int>> fifo;
  const auto token = std::make_shared<int>(1);
  for (int i = 0; i < 5; ++i) fifo.push_back(token);
  EXPECT_EQ(token.use_count(), 6);
  for (int i = 0; i < 5; ++i) fifo.pop_front();
  EXPECT_EQ(token.use_count(), 1);  // nothing lingers in consumed slots
}

/// One side of the backlog: keeps every request's key by slot, as a rank
/// does, but never retires a slot.
struct SlotLog final : RequestOwner {
  std::uint32_t next_slot() {
    keys.push_back(kUnmatchedKey);
    return static_cast<std::uint32_t>(keys.size() - 1);
  }
  void on_completion_key(std::uint32_t slot, sim::Key key) override {
    keys.at(slot) = key;
  }
  void on_collective_done() override {}

  std::vector<sim::Key> keys;
};

class BacklogTest : public ::testing::Test {
 protected:
  BacklogTest() : platform_(sim::Platform::tianhe2()) {
    platform_.eager_threshold_bytes = 64 * 1024;
  }

  /// Whether a request has completed by now: its key is fixed (an
  /// unmatched key's time is the largest there is) and its instant has
  /// passed.
  bool completed(const sim::Key& key) const {
    return key.time <= engine_.now();
  }

  sim::Engine engine_;
  sim::Platform platform_;
};

// A hung receiver: rank 0 keeps posting rendezvous sends to rank 1, which
// posts receives only now and then. A rendezvous send completes only when
// matched, so after every step exactly the oldest `matched` sends are
// complete — first-in first-out — and the ledger counts the rest pending.
TEST_F(BacklogTest, SendBacklogMatchesOldestFirst) {
  CommEngine comm(engine_, platform_, 2);
  std::mt19937_64 gen(11);
  SlotLog sends;
  SlotLog recvs;
  for (int step = 0; step < 600; ++step) {
    if (gen() % 100 < 70) {
      comm.post_send(0, 1, 3, 128 * 1024, sends, sends.next_slot());
    } else {
      comm.post_recv(1, 0, 3, recvs, recvs.next_slot());
    }
    engine_.run_until(engine_.now() + sim::kSecond);
    const std::size_t matched = std::min(sends.keys.size(), recvs.keys.size());
    ASSERT_EQ(comm.matches(), matched);
    ASSERT_EQ(comm.pending_sends(), sends.keys.size() - matched);
    ASSERT_EQ(comm.pending_recvs(), recvs.keys.size() - matched);
    for (std::size_t i = 0; i < sends.keys.size(); ++i) {
      ASSERT_EQ(completed(sends.keys[i]), i < matched) << "send " << i;
    }
    for (std::size_t i = 0; i < recvs.keys.size(); ++i) {
      ASSERT_EQ(completed(recvs.keys[i]), i < matched) << "recv " << i;
    }
  }
  EXPECT_GT(comm.pending_sends(), 100u);  // the backlog never drained
}

// The mirror image: receives pile up on a channel whose sender lags. Eager
// sends complete on their own, so the receives show the order.
TEST_F(BacklogTest, RecvBacklogMatchesOldestFirst) {
  CommEngine comm(engine_, platform_, 2);
  std::mt19937_64 gen(12);
  SlotLog sends;
  SlotLog recvs;
  for (int step = 0; step < 600; ++step) {
    if (gen() % 100 < 65) {
      comm.post_recv(1, 0, 4, recvs, recvs.next_slot());
    } else {
      comm.post_send(0, 1, 4, 512, sends, sends.next_slot());
    }
    engine_.run_until(engine_.now() + sim::kSecond);
    const std::size_t matched = std::min(sends.keys.size(), recvs.keys.size());
    ASSERT_EQ(comm.pending_sends(), sends.keys.size() - matched);
    ASSERT_EQ(comm.pending_recvs(), recvs.keys.size() - matched);
    for (std::size_t i = 0; i < recvs.keys.size(); ++i) {
      ASSERT_EQ(completed(recvs.keys[i]), i < matched) << "recv " << i;
    }
  }
  EXPECT_GT(comm.pending_recvs(), 100u);
}

}  // namespace
}  // namespace parastack::simmpi
