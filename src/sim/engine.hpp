#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/callback_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace parastack::obs {
class TelemetrySink;
}

namespace parastack::obs::perf {
class Counter;
class HighWater;
class ProfileRegistry;
}  // namespace parastack::obs::perf

namespace parastack::sim {

/// Deterministic discrete-event engine.
///
/// Events fire in key order (`Key`: time, then insertion sequence), so two
/// events scheduled for the same instant run in the order they were
/// scheduled — this makes whole campaigns bit-reproducible under a fixed
/// seed. A key may be reserved before its event is scheduled. Single-threaded
/// by design: determinism is a correctness requirement for the experiment
/// harness, and one core simulates thousands of ranks comfortably.
///
/// Hot-loop layout (the raw-speed overhaul): pending events live in a 4-ary
/// implicit min-heap of 24-byte (time, seq, slot, gen) entries, and their
/// callbacks in a generation-tagged slab (`CallbackPool`) — scheduling a
/// small lambda allocates nothing and firing an event touches no hash map.
/// Cancellation bumps the slot's generation; the entry left in the heap
/// becomes a tombstone that the single shared pop path drops (and lazy
/// compaction sweeps in bulk), so `step()` and `run_until()` cannot drift
/// in their accounting. Perf counters are accumulated in plain engine
/// fields and flushed to the attached registry at run boundaries, so both
/// the detached and the attached configurations cost zero atomic operations
/// per event.
class Engine {
 public:
  /// Compatibility alias: callers may still build/store std::functions and
  /// hand them in, but any callable shaped `void()` schedules directly —
  /// small lambdas land inline in a pool slot with no allocation at all.
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  ~Engine() { flush_perf(); }

  /// Current virtual time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now). Returns an id usable with
  /// cancel().
  template <typename F>
  EventId schedule_at(Time t, F&& cb) {
    return push(reserve(t), std::forward<F>(cb));
  }

  /// The key an event scheduled now for `t` (>= now) would get. Taking it
  /// uses up its sequence number, so every later key sorts after it.
  Key reserve(Time t) {
    PS_CHECK(t >= now_, "cannot schedule events in the past");
    return Key{t, next_seq_++};
  }

  /// Schedule `cb` at a key from reserve(): it fires exactly where an event
  /// scheduled at reservation would have, provided nothing after the key
  /// has fired yet: the key must be after firing() and not before now().
  template <typename F>
  EventId schedule_at(Key key, F&& cb) {
    PS_CHECK(key.time >= now_ && firing_ < key && key.seq < next_seq_,
             "scheduled key is not a reserved key after the firing event");
    return push(key, std::forward<F>(cb));
  }

  /// Schedule `cb` `dt` nanoseconds from now (dt >= 0). A delay so large
  /// that now + dt would wrap Time (e.g. a timeout mis-scaled into the
  /// far-beyond-kNever range) is a caller bug and fails loudly here rather
  /// than tripping the `t >= now` check with a confusing negative time.
  template <typename F>
  EventId schedule_after(Time dt, F&& cb) {
    PS_CHECK(dt >= 0, "negative delay");
    PS_CHECK(dt <= std::numeric_limits<Time>::max() - now_,
             "schedule_after overflow: now + dt wraps Time "
             "(mis-scaled delay? kNever-sized timeouts must not be added "
             "to a nonzero clock)");
    return schedule_at(now_ + dt, std::forward<F>(cb));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (ids are never reused within one Engine — slots recycle, but the
  /// generation tag makes every id name one scheduling forever). Cancelled
  /// entries stay in the heap as tombstones; once they outnumber live
  /// events the heap is compacted in place, so queue memory stays
  /// proportional to the live event count even under cancel-heavy load.
  void cancel(EventId id);

  /// Fire the next event. Returns false when the queue is empty or the
  /// engine was stopped. Defined inline: the harness drive loops call this
  /// once per event, and keeping the pop-and-dispatch path visible to the
  /// compiler there is worth measurable whole-campaign throughput.
  bool step() { return fire_next(std::numeric_limits<Time>::max()); }

  /// Run events until virtual time would exceed `t`; afterwards now() == t
  /// (even if the queue drained earlier). Stops early if stop() is called.
  void run_until(Time t);

  /// Jump the clock forward to `t` without firing anything. Only legal when
  /// nothing is pending before `t` — in practice, before a simulation phase
  /// begins. The recovery harness uses this to place a restart attempt's
  /// world at its absolute position on the job timeline, so telemetry time
  /// stays monotone across attempts.
  void advance_to(Time t) {
    PS_CHECK(t >= now_, "cannot advance the clock backwards");
    now_ = t;
  }

  /// Run until the queue is empty or stop() is called.
  void run_until_idle();

  /// Make run loops return; step() also refuses to fire further events
  /// until resume() is called.
  void stop() noexcept { stopped_ = true; }
  void resume() noexcept { stopped_ = false; }
  bool stopped() const noexcept { return stopped_; }

  std::uint64_t events_fired() const noexcept { return fired_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }
  std::uint64_t events_cancelled() const noexcept { return cancelled_; }
  std::size_t events_pending() const noexcept { return pool_.live(); }
  /// Virtual time of the most recently fired event (-1 before the first).
  /// Monotonically nondecreasing by construction; the pscheck invariant
  /// layer cross-checks it against now() after every run, and holds the
  /// scheduling ledger to `scheduled == fired + cancelled + pending`.
  Time last_event_time() const noexcept { return firing_.time; }
  /// Key of the event being fired (of the last one fired, between events;
  /// time -1 before the first). Keys fire strictly increasing, so a key
  /// below firing() belongs to an event that has already fired.
  Key firing() const noexcept { return firing_; }
  /// Heap entries including tombstones of cancelled events; bounded to
  /// O(events_pending()) by lazy compaction.
  std::size_t queue_depth() const noexcept { return queue_.size(); }

  /// The run's telemetry sink, reachable by everything that shares this
  /// clock (detector, monitor network, rank processes, fault injector).
  /// Null (the default) means telemetry is off and producers skip event
  /// construction entirely. Not owned; must outlive the simulation.
  void set_telemetry(obs::TelemetrySink* sink) noexcept { telemetry_ = sink; }
  obs::TelemetrySink* telemetry() const noexcept { return telemetry_; }

  /// The run's performance-counter registry, reachable (like the telemetry
  /// sink) by everything sharing this clock. Null (the default) means perf
  /// accounting is off. The engine's own counters are batched: the loop
  /// maintains plain fields and flush_perf() emits the deltas at run
  /// boundaries (run_until/run_until_idle return, detach, destruction), so
  /// attached counters cost nothing per event. Not owned; must outlive the
  /// simulation.
  void set_perf(obs::perf::ProfileRegistry* registry);
  obs::perf::ProfileRegistry* perf() const noexcept { return perf_; }

  /// Push accumulated counter deltas to the attached registry (no-op when
  /// detached). Called automatically at run boundaries; call it directly
  /// before sampling the registry mid-run.
  void flush_perf();

 private:
  static EventId make_id(CallbackPool::Ref ref) noexcept {
    return (static_cast<EventId>(ref.gen) << 32) |
           static_cast<EventId>(ref.slot);
  }

  template <typename F>
  EventId push(Key key, F&& cb) {
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      PS_CHECK(static_cast<bool>(cb), "null event callback");
    }
    const CallbackPool::Ref ref = pool_.acquire(std::forward<F>(cb));
    queue_.push(QueuedEvent{key.time, key.seq, ref.slot, ref.gen});
    ++scheduled_;
    if (queue_.size() > queue_depth_hw_) queue_depth_hw_ = queue_.size();
    return make_id(ref);
  }

  /// The single shared pop path (step() and run_until() both land here):
  /// drops tombstones off the heap front, then pops the next live event if
  /// it fires at or before `cutoff`. All tombstone accounting lives in this
  /// one place so the two run modes cannot drift.
  bool pop_next_live(Time cutoff, QueuedEvent* out) {
    while (!queue_.empty()) {
      const QueuedEvent& front = queue_.front();
      if (!pool_.alive(front.slot, front.gen)) {  // tombstone
        queue_.pop_front();
        --cancelled_in_heap_;
        ++tombstones_dropped_;
        continue;
      }
      if (front.time > cutoff) return false;
      *out = front;
      queue_.pop_front();
      return true;
    }
    return false;
  }

  /// Pop (honoring `cutoff`) and fire one event. False when stopped, empty,
  /// or the next live event is beyond the cutoff.
  bool fire_next(Time cutoff) {
    if (stopped_) return false;
    QueuedEvent ev;
    if (!pop_next_live(cutoff, &ev)) return false;
    // Retire the id *before* invoking (cancel of the firing event's own id
    // becomes a no-op) and run the closure in its pool slot: chunked slab
    // storage keeps the entry's address stable even if the callback
    // schedules new events, and the slot rejoins the free list only after
    // the invocation returns, so it cannot be recycled out from under us.
    CallbackPool::Entry& entry = pool_.begin_fire(ev.slot);
    const Key key{ev.time, ev.seq};
    PS_CHECK(ev.time >= now_, "event queue time went backwards");
    PS_CHECK(firing_ < key, "event fire order went backwards");
    now_ = ev.time;
    firing_ = key;
    ++fired_;
    entry.cb();
    pool_.end_fire(ev.slot);
    return true;
  }

  void compact_if_worthwhile();

  Time now_ = 0;
  Key firing_{-1, 0};
  obs::TelemetrySink* telemetry_ = nullptr;
  obs::perf::ProfileRegistry* perf_ = nullptr;
  // Cached instrument handles (null when perf_ is null).
  obs::perf::Counter* perf_scheduled_ = nullptr;
  obs::perf::Counter* perf_fired_ = nullptr;
  obs::perf::Counter* perf_cancelled_ = nullptr;
  obs::perf::Counter* perf_tombstones_ = nullptr;
  obs::perf::Counter* perf_compactions_ = nullptr;
  obs::perf::HighWater* perf_queue_depth_ = nullptr;
  std::uint64_t next_seq_ = 1;
  bool stopped_ = false;
  // The engine's own ledger (always maintained; plain fields, no atomics):
  //   scheduled_ == fired_ + cancelled_ + pool_.live()   at all times.
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t tombstones_dropped_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_depth_hw_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  // Registry flush baselines: counters emit value - baseline on flush, so
  // attaching mid-life (the harness attaches after world construction)
  // reports only post-attach activity, exactly as per-event emission did.
  std::uint64_t flushed_scheduled_ = 0;
  std::uint64_t flushed_fired_ = 0;
  std::uint64_t flushed_cancelled_ = 0;
  std::uint64_t flushed_tombstones_ = 0;
  std::uint64_t flushed_compactions_ = 0;
  EventQueue queue_;
  CallbackPool pool_;
};

}  // namespace parastack::sim
