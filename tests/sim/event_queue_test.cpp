// Differential tests of sim::EventQueue (next-event slot in front of a 4-ary
// heap) against a reference ordered set of (time, seq) keys, plus the
// engine-level paths that touch the slot: run_until cutoffs that peek at it
// without popping, and chained near events interleaving with the heap.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace parastack::sim {
namespace {

using Key = std::pair<Time, std::uint64_t>;

class Reference {
 public:
  void push(EventQueue& queue, Time time) {
    const std::uint64_t seq = next_seq_++;
    queue.push(QueuedEvent{time, seq, static_cast<std::uint32_t>(seq)});
    keys_.insert({time, seq});
  }

  /// Pop from both and require the same key; checks size and front first.
  void pop(EventQueue& queue) {
    expect_same_front(queue);
    queue.pop_front();
    keys_.erase(keys_.begin());
  }

  void expect_same_front(const EventQueue& queue) const {
    ASSERT_EQ(queue.size(), keys_.size());
    ASSERT_EQ(queue.empty(), keys_.empty());
    if (keys_.empty()) return;
    const QueuedEvent& front = queue.front();
    ASSERT_EQ((Key{front.time, front.seq}), *keys_.begin());
  }

  Time front_time() const { return keys_.begin()->first; }
  bool empty() const { return keys_.empty(); }

 private:
  std::set<Key> keys_;
  std::uint64_t next_seq_ = 1;
};

TEST(EventQueue, RandomSequencesMatchOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    std::mt19937_64 gen(seed);
    EventQueue queue;
    Reference ref;
    // Narrow time range: plenty of equal-time ties.
    std::uniform_int_distribution<Time> time(0, 40);
    std::uniform_int_distribution<int> op(0, 99);
    for (int step = 0; step < 4000; ++step) {
      const int roll = op(gen);
      if (roll < 45) {
        ref.push(queue, time(gen));
      } else if (roll < 60 && !ref.empty()) {
        // Earlier than (or tied with) everything pending: the slot path,
        // displacing whatever is parked there.
        ref.push(queue, std::max<Time>(0, ref.front_time() - time(gen) % 3));
      } else if (!ref.empty()) {
        ref.pop(queue);
      }
      ref.expect_same_front(queue);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    while (!ref.empty()) ref.pop(queue);
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, PushEarlierThanParkedEventDisplacesIt) {
  EventQueue queue;
  Reference ref;
  for (const Time t : {50, 60, 70}) ref.push(queue, t);
  ref.push(queue, 10);  // parked in the slot
  ref.push(queue, 5);   // displaces 10 into the heap
  ref.push(queue, 7);   // between the slot and the heap top
  ref.push(queue, 1);   // displaces 5
  for (int i = 0; i < 7; ++i) ref.pop(queue);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EqualTimesPopInSequenceOrder) {
  EventQueue queue;
  Reference ref;
  ref.push(queue, 20);
  ref.push(queue, 10);  // slot
  ref.push(queue, 10);  // ties the slot, later seq: goes to the heap
  ref.push(queue, 10);
  ref.pop(queue);
  ref.push(queue, 10);  // ties the heap top, later seq
  while (!ref.empty()) ref.pop(queue);
}

TEST(EngineNextEventSlot, RunUntilPeeksAtTheSlotWithoutPopping) {
  Engine engine;
  std::vector<int> fired;
  engine.schedule_at(500, [&fired] { fired.push_back(500); });
  engine.schedule_at(300, [&fired] { fired.push_back(300); });  // slot
  engine.run_until(200);  // cutoff before the parked event
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(engine.now(), 200);
  EXPECT_EQ(engine.events_pending(), 2u);
  // A later push earlier than the parked event displaces it.
  engine.schedule_at(250, [&fired] { fired.push_back(250); });
  engine.run_until(300);  // inclusive cutoff: 250 and 300 fire
  EXPECT_EQ(fired, (std::vector<int>{250, 300}));
  engine.run_until(499);
  EXPECT_EQ(fired.size(), 2u);
  engine.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{250, 300, 500}));
}

TEST(EngineNextEventSlot, ChainedNearEventsInterleaveWithHeapByTime) {
  // Each chain step schedules its successor 1 ns out — next to fire, the
  // slot path — while far events wait in the heap. At equal times the far
  // event, scheduled first, fires first.
  Engine engine;
  std::vector<std::pair<Time, bool>> fired;  // (time, is_chain)
  for (Time t = 3; t <= 30; t += 3) {
    engine.schedule_at(t, [&] { fired.emplace_back(engine.now(), false); });
  }
  int left = 25;
  std::function<void()> chain = [&] {
    fired.emplace_back(engine.now(), true);
    if (--left > 0) engine.schedule_after(1, chain);
  };
  engine.schedule_at(1, chain);
  engine.run_until_idle();
  std::vector<std::pair<Time, bool>> expected;
  for (Time t = 1; t <= 30; ++t) {
    if (t % 3 == 0) expected.emplace_back(t, false);
    if (t <= 25) expected.emplace_back(t, true);
  }
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace parastack::sim
