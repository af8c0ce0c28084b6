#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
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

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const auto id = engine.schedule_at(10, [&] { fired = true; });
  engine.cancel(id);
  engine.run_until_idle();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_fired(), 0u);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine engine;
  engine.cancel(9999);  // must not crash
  EXPECT_EQ(engine.events_pending(), 0u);
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

TEST(Engine, StopHaltsProcessing) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1, [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule_at(2, [&] { ++fired; });
  engine.run_until_idle();
  EXPECT_EQ(fired, 1);
  engine.resume();
  engine.run_until_idle();
  EXPECT_EQ(fired, 2);
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

TEST(Engine, CancelHeavyChurnKeepsHeapBounded) {
  // Detectors schedule-then-cancel constantly (set switches, verification
  // aborts). Tombstones must be compacted lazily, not accumulate for the
  // life of the run.
  Engine engine;
  bool live_fired = false;
  engine.schedule_at(1'000'000, [&] { live_fired = true; });
  std::size_t max_depth = 0;
  for (int i = 0; i < 100'000; ++i) {
    const Engine::EventId id = engine.schedule_at(500'000 + i, [] {});
    engine.cancel(id);
    max_depth = std::max(max_depth, engine.queue_depth());
  }
  EXPECT_EQ(engine.events_pending(), 1u);
  // Compaction triggers past ~64 tombstones; the heap never grows anywhere
  // near the 100k cancels issued.
  EXPECT_LE(max_depth, 200u);
  EXPECT_LE(engine.queue_depth(), 200u);
  engine.run_until_idle();
  EXPECT_TRUE(live_fired);
  EXPECT_EQ(engine.events_fired(), 1u);
}

TEST(Engine, CompactionPreservesFiringOrder) {
  Engine engine;
  std::vector<int> order;
  std::vector<Engine::EventId> doomed;
  for (int i = 0; i < 300; ++i) {
    engine.schedule_at(1000 + i, [&order, i] { order.push_back(i); });
    doomed.push_back(engine.schedule_at(500 + i, [] {}));
  }
  for (const Engine::EventId id : doomed) engine.cancel(id);  // forces compactions
  engine.run_until_idle();
  ASSERT_EQ(order.size(), 300u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(engine.events_fired(), 300u);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, DoubleCancelDoesNotCorruptAccounting) {
  Engine engine;
  const Engine::EventId id = engine.schedule_at(10, [] {});
  engine.cancel(id);
  engine.cancel(id);  // no-op: must not count a second tombstone
  bool fired = false;
  engine.schedule_at(20, [&] { fired = true; });
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, RunUntilSkipsTombstonesAtTheCutoff) {
  // A cancelled event sitting at the heap front with time <= t must not
  // stall run_until or leak into the next window.
  Engine engine;
  const Engine::EventId id = engine.schedule_at(5, [] {});
  bool later = false;
  engine.schedule_at(20, [&] { later = true; });
  engine.cancel(id);
  engine.run_until(10);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_FALSE(later);
  engine.run_until(30);
  EXPECT_TRUE(later);
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
  const Engine::EventId id = engine.schedule_after(
      std::numeric_limits<Time>::max() - engine.now(), [] {});
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.cancel(id);
}

TEST(Engine, CancelOwnIdFromInsideFiringCallbackIsNoop) {
  // By the time a callback runs, its own id is retired; cancelling it from
  // inside must neither count a cancellation nor free the slot twice.
  Engine engine;
  Engine::EventId self = 0;
  int fired = 0;
  self = engine.schedule_at(10, [&] {
    ++fired;
    engine.cancel(self);
  });
  bool later = false;
  engine.schedule_at(20, [&] { later = true; });
  engine.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(later);
  EXPECT_EQ(engine.events_cancelled(), 0u);
  EXPECT_EQ(engine.events_fired(), 2u);
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(Engine, CancelSiblingFromInsideFiringCallback) {
  // Cancelling a same-instant sibling mid-fire must stop it from running
  // even though it is already ordered behind us in the heap.
  Engine engine;
  bool victim_ran = false;
  Engine::EventId victim = 0;
  engine.schedule_at(10, [&] { engine.cancel(victim); });
  victim = engine.schedule_at(10, [&] { victim_ran = true; });
  engine.run_until_idle();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(engine.events_fired(), 1u);
  EXPECT_EQ(engine.events_cancelled(), 1u);
  EXPECT_EQ(engine.events_scheduled(),
            engine.events_fired() + engine.events_cancelled() +
                engine.events_pending());
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

TEST(Engine, CancelThenCompactThenFireKeepsLedgerExact) {
  // Interleave cancels (driving bulk compactions) with fires and verify the
  // full ledger after every phase: scheduled == fired + cancelled + pending,
  // and every tombstone is eventually dropped exactly once.
  Engine engine;
  int fired = 0;
  std::vector<Engine::EventId> doomed;
  for (int round = 0; round < 5; ++round) {
    const Time base = engine.now() + 10;
    for (int i = 0; i < 100; ++i) {
      engine.schedule_at(base + i, [&] { ++fired; });
      doomed.push_back(engine.schedule_at(base + i, [] {}));
    }
    // Cancel half now (compaction may trigger mid-loop), half after firing.
    for (std::size_t i = 0; i < doomed.size(); i += 2) engine.cancel(doomed[i]);
    engine.run_until(base + 99);
    for (const Engine::EventId id : doomed) engine.cancel(id);  // rest no-op: fired or cancelled
    doomed.clear();
    EXPECT_EQ(engine.events_scheduled(),
              engine.events_fired() + engine.events_cancelled() +
                  engine.events_pending());
  }
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, InsertionOrderFifoAtEqualTimestampsSurvivesRecycling) {
  // Slot recycling (free-list reuse) must not perturb same-instant FIFO:
  // after heavy churn the pool hands out low slot indices again, and the
  // heap must still order purely by (time, insertion seq).
  Engine engine;
  for (int i = 0; i < 1000; ++i) {
    engine.cancel(engine.schedule_at(5, [] {}));  // churn the free list
  }
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    engine.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  engine.run_until_idle();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(engine.events_scheduled(),
            engine.events_fired() + engine.events_cancelled() +
                engine.events_pending());
}

/// One side of the reserved-key differential test. Every side follows one
/// script: the number of each fired event seeds the pushes, reservations
/// and cancels it performs, so two sides diverge only if their firing
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
  int cancels() const { return cancels_; }

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
      switch (rng() % 5) {
        case 0:
        case 1:  // a plain push
          track(next_, t, engine_.schedule_at(t, callback(next_)));
          ++next_;
          break;
        case 2:
        case 3: {  // a reserved key
          const Key key = engine_.reserve(t);
          if (hold_keys_) {
            held_.push_back({key, next_, cycle_});
          } else {
            track(next_, t, engine_.schedule_at(key, callback(next_)));
          }
          ++next_;
          break;
        }
        default:  // cancel an earlier event, whether or not it fired
          if (next_ > 0) {
            cancel(static_cast<int>(rng() % static_cast<std::uint64_t>(next_)));
          }
          break;
      }
    }
  }

  void cancel(int event) {
    const auto held =
        std::find_if(held_.begin(), held_.end(),
                     [event](const Held& h) { return h.event == event; });
    if (held != held_.end()) {  // never scheduled, so it never fires
      held_.erase(held);
      ++cancels_;
      return;
    }
    const auto it = queued_.find(event);
    if (it == queued_.end()) return;
    engine_.cancel(it->second.second);
    untrack(event);
    ++cancels_;
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
      track(h.event, h.key.time,
            engine_.schedule_at(h.key, callback(h.event)));
      if (h.reserved_in != cycle_) ++scheduled_late_;
    }
    held_ = std::move(keep);
    ++cycle_;
  }

  void track(int event, Time t, Engine::EventId id) {
    queued_[event] = {t, id};
    times_.insert(t);
  }

  void untrack(int event) {
    const auto it = queued_.find(event);
    times_.erase(times_.find(it->second.first));
    queued_.erase(it);
  }

  Engine engine_;
  bool hold_keys_;
  std::mt19937_64 choose_{99};
  int next_ = 0;
  int cycle_ = 0;
  int scheduled_late_ = 0;
  int cancels_ = 0;
  std::vector<Held> held_;
  std::map<int, std::pair<Time, Engine::EventId>> queued_;  // by event number
  std::multiset<Time> times_;                               // of queued_
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
  // a later event than their reservation, cancels, and equal-time ties.
  EXPECT_GT(eager.fired().size(), 10000u);
  EXPECT_GT(late.scheduled_late(), 1000);
  EXPECT_GT(late.cancels(), 1000);
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
