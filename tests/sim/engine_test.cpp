#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

namespace parastack::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTimeFiresInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  engine.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  Time fired_at = -1;
  engine.schedule_at(50, [&] {
    engine.schedule_after(25, [&] { fired_at = engine.now(); });
  });
  engine.run_until_idle();
  EXPECT_EQ(fired_at, 75);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenIdle) {
  Engine engine;
  engine.run_until(500);
  EXPECT_EQ(engine.now(), 500);
}

TEST(Engine, RunUntilDoesNotFireLaterEvents) {
  Engine engine;
  bool early = false;
  bool late = false;
  engine.schedule_at(10, [&] { early = true; });
  engine.schedule_at(100, [&] { late = true; });
  engine.run_until(50);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(engine.now(), 50);
  engine.run_until_idle();
  EXPECT_TRUE(late);
}

TEST(Engine, EventsCanScheduleChains) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(1, chain);
  };
  engine.schedule_at(0, chain);
  engine.run_until_idle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), 99);
  EXPECT_EQ(engine.events_fired(), 100u);
}

TEST(EngineDeath, RejectsPastScheduling) {
  Engine engine;
  engine.schedule_at(10, [] {});
  engine.run_until_idle();
  EXPECT_DEATH(engine.schedule_at(5, [] {}), "past");
}

TEST(EngineDeath, ScheduleAfterRejectsOverflowingDelay) {
  // A kNever-sized timeout added to a nonzero clock wraps Time negative; it
  // must fail the dedicated overflow check, not surface as a confusing
  // "cannot schedule events in the past".
  Engine engine;
  engine.schedule_at(100, [] {});
  engine.run_until_idle();
  EXPECT_DEATH(
      engine.schedule_after(std::numeric_limits<Time>::max() - 50, [] {}),
      "overflow");
}

TEST(Engine, ScheduleAfterAcceptsMaxRepresentableDelay) {
  // The guard is exact: now + dt == Time max is still representable.
  Engine engine;
  engine.schedule_at(100, [] {});
  engine.run_until_idle();
  engine.schedule_after(std::numeric_limits<Time>::max() - engine.now(),
                        [] {});
  EXPECT_EQ(engine.events_pending(), 1u);
}

TEST(Engine, ScheduleAtNowDuringCallbackFiresAfterSameInstantPeers) {
  // An event scheduled for now() from inside a callback gets a later
  // insertion sequence than every already-queued same-instant peer, so it
  // fires after them — FIFO among equals, even for reentrant scheduling.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(10, [&] {
    order.push_back(0);
    engine.schedule_at(engine.now(), [&] { order.push_back(99); });
  });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(10, [&] { order.push_back(2); });
  engine.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
  EXPECT_EQ(engine.now(), 10);
}

TEST(Engine, InsertionOrderFifoAtEqualTimestampsSurvivesRecycling) {
  // Slot recycling (free-list reuse) must not perturb same-instant FIFO:
  // after 1,000 events fire, the pool hands their slots out again from the
  // last released down, and the heap must still order purely by
  // (time, insertion seq).
  Engine engine;
  for (int i = 0; i < 1000; ++i) engine.schedule_at(5, [] {});
  engine.run_until(5);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    engine.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  engine.run_until_idle();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(engine.events_scheduled(),
            engine.events_fired() + engine.events_pending());
}

/// Live and fired counts of one kind of counted callable below.
struct InstanceCount {
  int live = 0;
  int fired = 0;
};

/// A callable that counts its live instances (copies and moves included)
/// and its invocations. `Pad` sets its size; `NothrowMove` whether its
/// move constructor may throw.
template <std::size_t Pad, bool NothrowMove>
struct Counted {
  explicit Counted(InstanceCount* c) : count(c) { ++count->live; }
  Counted(const Counted& other) : count(other.count) { ++count->live; }
  Counted(Counted&& other) noexcept(NothrowMove) : count(other.count) {
    ++count->live;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --count->live; }
  void operator()() const { ++count->fired; }

  InstanceCount* count;
  std::array<unsigned char, Pad> pad{};
};

TEST(Engine, HeapHeldCallbacksFireOnceAndAreDestroyed) {
  // The two callables PooledCallback cannot hold inline, one per reason:
  // too large for the slot, and small but with a move that may throw.
  // Each lives on the heap while pending.
  using Large = Counted<2 * PooledCallback::kInlineCapacity, true>;
  using ThrowingMove = Counted<8, false>;
  static_assert(sizeof(Large) > PooledCallback::kInlineCapacity);
  static_assert(sizeof(ThrowingMove) <= PooledCallback::kInlineCapacity);
  static_assert(!std::is_nothrow_move_constructible_v<ThrowingMove>);
  Engine engine;
  InstanceCount large;
  InstanceCount throwing;
  // The second round schedules into the slots the first one released.
  for (int round = 1; round <= 2; ++round) {
    engine.schedule_after(10, Large(&large));
    engine.schedule_after(10, ThrowingMove(&throwing));
    EXPECT_EQ(engine.events_pending(), 2u);
    EXPECT_EQ(large.live, 1);  // only the pooled instance
    EXPECT_EQ(throwing.live, 1);
    EXPECT_EQ(large.fired, round - 1);
    engine.run_until_idle();
    EXPECT_EQ(large.fired, round);
    EXPECT_EQ(throwing.fired, round);
    EXPECT_EQ(large.live, 0);
    EXPECT_EQ(throwing.live, 0);
    EXPECT_EQ(engine.events_pending(), 0u);
  }
}

/// One side of the reserved-key differential test. Every side follows one
/// script: the number of each fired event seeds the pushes and
/// reservations it performs, so two sides diverge only if their firing
/// orders do. A side that holds keys schedules each reserved event later
/// than its reservation — in random order, at any event before it is due —
/// instead of at once.
class ReservationScript {
 public:
  static constexpr int kEvents = 20000;

  explicit ReservationScript(bool hold_keys) : hold_keys_(hold_keys) {}

  void run() {
    script(0);
    flush();
    engine_.run_until_idle();
  }

  const std::vector<std::pair<int, Key>>& fired() const { return fired_; }
  int held() const { return static_cast<int>(held_.size()); }
  int scheduled_late() const { return scheduled_late_; }

 private:
  struct Held {
    Key key;
    int event;
    int reserved_in;  // flush cycle of the reservation
  };

  void fire(int event) {
    fired_.emplace_back(event, engine_.firing());
    untrack(event);
    script(static_cast<std::uint64_t>(event) + 1);
    flush();
  }

  auto callback(int event) {
    return [this, event] { fire(event); };
  }

  void script(std::uint64_t seed) {
    static constexpr Time kDelays[] = {0, 0, 1, 5, 100, 1000};
    std::mt19937_64 rng(seed);
    const int ops = seed == 0 ? 32 : 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < ops && next_ < kEvents; ++i) {
      const Time t = engine_.now() + kDelays[rng() % 6];
      if (rng() % 2 == 0) {  // a plain push
        engine_.schedule_at(t, callback(next_));
        track(next_, t);
      } else {  // a reserved key
        const Key key = engine_.reserve(t);
        if (hold_keys_) {
          held_.push_back({key, next_, cycle_});
        } else {
          engine_.schedule_at(key, callback(next_));
          track(next_, t);
        }
      }
      ++next_;
    }
  }

  /// Schedule held keys: each with probability 1/3, and every one that may
  /// be due. A key whose time is above a queued event's cannot fire next,
  /// and scheduling more events only lowers the queue's earliest time.
  void flush() {
    std::shuffle(held_.begin(), held_.end(), choose_);
    std::vector<Held> keep;
    for (const Held& h : held_) {
      const bool due = times_.empty() || h.key.time <= *times_.begin();
      if (!due && choose_() % 3 != 0) {
        keep.push_back(h);
        continue;
      }
      engine_.schedule_at(h.key, callback(h.event));
      track(h.event, h.key.time);
      if (h.reserved_in != cycle_) ++scheduled_late_;
    }
    held_ = std::move(keep);
    ++cycle_;
  }

  void track(int event, Time t) {
    queued_[event] = t;
    times_.insert(t);
  }

  void untrack(int event) {
    const auto it = queued_.find(event);
    times_.erase(times_.find(it->second));
    queued_.erase(it);
  }

  Engine engine_;
  bool hold_keys_;
  std::mt19937_64 choose_{99};
  int next_ = 0;
  int cycle_ = 0;
  int scheduled_late_ = 0;
  std::vector<Held> held_;
  std::map<int, Time> queued_;  // by event number
  std::multiset<Time> times_;   // of queued_
  std::vector<std::pair<int, Key>> fired_;
};

TEST(EngineTest, ReservedKeysFireWhereReserved) {
  ReservationScript eager(false);
  ReservationScript late(true);
  eager.run();
  late.run();
  EXPECT_EQ(late.held(), 0);
  ASSERT_EQ(eager.fired().size(), late.fired().size());
  EXPECT_TRUE(eager.fired() == late.fired());
  // The script exercised what it is about: many events, keys scheduled at
  // a later event than their reservation, and equal-time ties.
  EXPECT_GT(eager.fired().size(), 10000u);
  EXPECT_GT(late.scheduled_late(), 1000);
  int ties = 0;
  for (std::size_t i = 1; i < late.fired().size(); ++i) {
    if (late.fired()[i].second.time == late.fired()[i - 1].second.time) ++ties;
  }
  EXPECT_GT(ties, 1000);
}

TEST(EngineDeath, ScheduleAtAKeyNotAfterTheFiringEventFails) {
  Engine engine;
  const Key passed = engine.reserve(10);
  const Key fired = engine.reserve(10);
  engine.schedule_at(fired, [] {});
  engine.run_until_idle();
  EXPECT_EQ(engine.firing(), fired);
  constexpr const char* kMessage = "not a reserved key after the firing event";
  EXPECT_DEATH(engine.schedule_at(passed, [] {}), kMessage);
  EXPECT_DEATH(engine.schedule_at(fired, [] {}), kMessage);
  // A key never handed out.
  EXPECT_DEATH(engine.schedule_at(Key{20, 1000}, [] {}), kMessage);
  const Key overtaken = engine.reserve(15);
  engine.run_until(20);  // the clock passes the key's time
  EXPECT_DEATH(engine.schedule_at(overtaken, [] {}), kMessage);
  EXPECT_DEATH((void)engine.reserve(19), "past");
}

}  // namespace
}  // namespace parastack::sim
