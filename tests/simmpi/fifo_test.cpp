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

class BacklogTest : public ::testing::Test {
 protected:
  BacklogTest() : platform_(sim::Platform::tianhe2()) {
    platform_.eager_threshold_bytes = 64 * 1024;
  }

  /// Whether `req` has completed by now: its key is fixed (an unmatched
  /// key's time is the largest there is) and its instant has passed.
  bool completed(const RequestHandle& req) const {
    return req->key.time <= engine_.now();
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
  std::vector<RequestHandle> sends;
  std::vector<RequestHandle> recvs;
  for (int step = 0; step < 600; ++step) {
    if (gen() % 100 < 70) {
      sends.push_back(comm.post_send(0, 1, 3, 128 * 1024));
    } else {
      recvs.push_back(comm.post_recv(1, 0, 3, 128 * 1024));
    }
    engine_.run_until(engine_.now() + sim::kSecond);
    const std::size_t matched = std::min(sends.size(), recvs.size());
    ASSERT_EQ(comm.matches(), matched);
    ASSERT_EQ(comm.pending_sends(), sends.size() - matched);
    ASSERT_EQ(comm.pending_recvs(), recvs.size() - matched);
    for (std::size_t i = 0; i < sends.size(); ++i) {
      ASSERT_EQ(completed(sends[i]), i < matched) << "send " << i;
    }
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      ASSERT_EQ(completed(recvs[i]), i < matched) << "recv " << i;
    }
  }
  EXPECT_GT(comm.pending_sends(), 100u);  // the backlog never drained
}

// The mirror image: receives pile up on a channel whose sender lags. Eager
// sends complete on their own, so the receives show the order.
TEST_F(BacklogTest, RecvBacklogMatchesOldestFirst) {
  CommEngine comm(engine_, platform_, 2);
  std::mt19937_64 gen(12);
  std::vector<RequestHandle> recvs;
  std::size_t sends = 0;
  for (int step = 0; step < 600; ++step) {
    if (gen() % 100 < 65) {
      recvs.push_back(comm.post_recv(1, 0, 4, 512));
    } else {
      comm.post_send(0, 1, 4, 512);
      ++sends;
    }
    engine_.run_until(engine_.now() + sim::kSecond);
    const std::size_t matched = std::min(sends, recvs.size());
    ASSERT_EQ(comm.pending_sends(), sends - matched);
    ASSERT_EQ(comm.pending_recvs(), recvs.size() - matched);
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      ASSERT_EQ(completed(recvs[i]), i < matched) << "recv " << i;
    }
  }
  EXPECT_GT(comm.pending_recvs(), 100u);
}

}  // namespace
}  // namespace parastack::simmpi
