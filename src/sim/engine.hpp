#pragma once

#include <cstdint>
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
/// The engine only schedules and fires: an event, once scheduled, always
/// fires, so every queued entry is live. Hot-loop layout (the raw-speed
/// overhaul): pending events live in a 4-ary implicit min-heap of 24-byte
/// (time, seq, slot) entries, and their callbacks in a chunked slab
/// (`CallbackPool`) — scheduling a small lambda allocates nothing and
/// firing an event touches no hash map. Perf counters are accumulated in
/// plain engine fields and flushed to the attached registry at run
/// boundaries, so both the detached and the attached configurations cost
/// zero atomic operations per event.
class Engine {
 public:
  ~Engine() { flush_perf(); }

  /// Current virtual time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now).
  template <typename F>
  void schedule_at(Time t, F&& cb) {
    push(reserve(t), std::forward<F>(cb));
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
  void schedule_at(Key key, F&& cb) {
    PS_CHECK(key.time >= now_ && firing_ < key && key.seq < next_seq_,
             "scheduled key is not a reserved key after the firing event");
    push(key, std::forward<F>(cb));
  }

  /// Schedule `cb` `dt` nanoseconds from now (dt >= 0). A delay so large
  /// that now + dt would wrap Time (e.g. a timeout mis-scaled into the
  /// far-beyond-kNever range) is a caller bug and fails loudly here rather
  /// than tripping the `t >= now` check with a confusing negative time.
  template <typename F>
  void schedule_after(Time dt, F&& cb) {
    PS_CHECK(dt >= 0, "negative delay");
    PS_CHECK(dt <= std::numeric_limits<Time>::max() - now_,
             "schedule_after overflow: now + dt wraps Time "
             "(mis-scaled delay? kNever-sized timeouts must not be added "
             "to a nonzero clock)");
    schedule_at(now_ + dt, std::forward<F>(cb));
  }

  /// Fire the next event. Returns false when the queue is empty. Defined
  /// inline: the harness drive loops call this once per event, and keeping
  /// the pop-and-dispatch path visible to the compiler there is worth
  /// measurable whole-campaign throughput.
  bool step() { return fire_next(std::numeric_limits<Time>::max()); }

  /// Run events until virtual time would exceed `t`; afterwards now() == t
  /// (even if the queue drained earlier).
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

  /// Run until the queue is empty.
  void run_until_idle();

  std::uint64_t events_fired() const noexcept { return fired_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }
  std::size_t events_pending() const noexcept { return pool_.live(); }
  /// Virtual time of the most recently fired event (-1 before the first).
  /// Monotonically nondecreasing by construction; the pscheck invariant
  /// layer cross-checks it against now() after every run, and holds the
  /// scheduling ledger to `scheduled == fired + pending`.
  Time last_event_time() const noexcept { return firing_.time; }
  /// Key of the event being fired (of the last one fired, between events;
  /// time -1 before the first). Keys fire strictly increasing, so a key
  /// below firing() belongs to an event that has already fired.
  Key firing() const noexcept { return firing_; }

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
  template <typename F>
  void push(Key key, F&& cb) {
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      PS_CHECK(static_cast<bool>(cb), "null event callback");
    }
    queue_.push(
        QueuedEvent{key.time, key.seq, pool_.acquire(std::forward<F>(cb))});
    ++scheduled_;
    if (queue_.size() > queue_depth_hw_) queue_depth_hw_ = queue_.size();
  }

  /// The one pop path (step() and run_until() both land here): pop and
  /// fire the next event if it fires at or before `cutoff`. False when the
  /// queue is empty or the next event is beyond the cutoff.
  bool fire_next(Time cutoff) {
    if (queue_.empty() || queue_.front().time > cutoff) return false;
    const QueuedEvent ev = queue_.front();
    queue_.pop_front();
    // Run the closure in its pool slot: chunked slab storage keeps the
    // slot's address stable even if the callback schedules new events, and
    // the slot rejoins the free list only after the invocation returns, so
    // it cannot be recycled out from under us.
    const Key key{ev.time, ev.seq};
    PS_CHECK(ev.time >= now_, "event queue time went backwards");
    PS_CHECK(firing_ < key, "event fire order went backwards");
    now_ = ev.time;
    firing_ = key;
    ++fired_;
    pool_.at(ev.slot)();
    pool_.release(ev.slot);
    return true;
  }

  Time now_ = 0;
  Key firing_{-1, 0};
  obs::TelemetrySink* telemetry_ = nullptr;
  obs::perf::ProfileRegistry* perf_ = nullptr;
  // Cached instrument handles (null when perf_ is null).
  obs::perf::Counter* perf_scheduled_ = nullptr;
  obs::perf::Counter* perf_fired_ = nullptr;
  obs::perf::HighWater* perf_queue_depth_ = nullptr;
  std::uint64_t next_seq_ = 1;
  // The engine's own ledger (always maintained; plain fields, no atomics):
  //   scheduled_ == fired_ + pool_.live()   between events.
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::size_t queue_depth_hw_ = 0;
  // Registry flush baselines: counters emit value - baseline on flush, so
  // attaching mid-life (the harness attaches after world construction)
  // reports only post-attach activity, exactly as per-event emission did.
  std::uint64_t flushed_scheduled_ = 0;
  std::uint64_t flushed_fired_ = 0;
  EventQueue queue_;
  CallbackPool pool_;
};

}  // namespace parastack::sim
