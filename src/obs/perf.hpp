#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace parastack::obs::perf {

// ---------------------------------------------------------------------------
// Performance observability substrate.
//
// A ProfileRegistry is an instantiable bag of named instruments — it is NOT
// a process-wide singleton, because the fuzz driver runs many independent
// simulations in parallel and each must see only its own counts. A run
// attaches a registry through sim::Engine (mirroring set_telemetry);
// components resolve their instruments once at construction and the hot
// paths touch only cached pointers.
//
// Determinism contract: Counter and HighWater values are pure functions of
// the seed (they count simulated facts, never wall-clock ones), so
// counter_snapshot() must be byte-identical across re-runs, across
// --jobs=1 vs --jobs=N, and across platforms. Timer values are wall-clock
// and therefore ADVISORY — they are excluded from snapshots.
// ---------------------------------------------------------------------------

/// Monotonic event counter. add() is a relaxed atomic increment, safe from
/// concurrent campaign workers; totals are order-independent sums.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// High-water gauge: retains the maximum value ever observed. The running
/// max is order-independent, so it shares the counters' determinism
/// contract (observe() must be fed simulated quantities only).
class HighWater {
 public:
  void observe(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock time plus call count. Advisory: wall-clock is not
/// reproducible, so timers never appear in determinism snapshots.
class Timer {
 public:
  void record(std::uint64_t ns) noexcept {
    nanos_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t nanos() const noexcept {
    return nanos_.load(std::memory_order_relaxed);
  }
  std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    nanos_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// RAII scope timer. Null timer means off: the constructor does one pointer
/// test and never reads the clock. Nested scopes each record their own wall
/// time, so an inner scope's time is included in its enclosing scope's.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) noexcept : timer_(timer) {
    if (timer_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - begin_;
      timer_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point begin_{};
};

/// Named-instrument registry. Instruments are interned on first lookup and
/// live as long as the registry; returned pointers are stable (node-based
/// map), so components cache them at construction and hot paths never touch
/// the lock. Lookup itself is mutex-guarded — it happens at setup frequency,
/// not per-event. Lookup methods are header-inline so sim-layer producers
/// can resolve handles without linking the obs library (obs sits above sim).
class ProfileRegistry {
 public:
  Counter* counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.try_emplace(std::string(name)).first;
    }
    return &it->second;
  }

  HighWater* high_water(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = high_waters_.find(name);
    if (it == high_waters_.end()) {
      it = high_waters_.try_emplace(std::string(name)).first;
    }
    return &it->second;
  }

  Timer* timer(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.find(name);
    if (it == timers_.end()) {
      it = timers_.try_emplace(std::string(name)).first;
    }
    return &it->second;
  }

  /// Zero every instrument, keeping the interned names.
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_) c.reset();
    for (auto& [name, g] : high_waters_) g.reset();
    for (auto& [name, t] : timers_) t.reset();
  }

  /// Deterministic snapshot of all counters and high-water gauges, sorted
  /// by name (high-waters carry a ".hw" suffix to keep the two namespaces
  /// from colliding). Timers are deliberately absent.
  std::map<std::string, std::uint64_t> counter_snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::uint64_t> snapshot;
    for (const auto& [name, c] : counters_) snapshot[name] = c.value();
    for (const auto& [name, g] : high_waters_) {
      snapshot[name + ".hw"] = g.value();
    }
    return snapshot;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, HighWater, std::less<>> high_waters_;
  std::map<std::string, Timer, std::less<>> timers_;
};

}  // namespace parastack::obs::perf

// Hot-path helpers: a null handle is the "off" switch.
#define PS_PERF_ADD(handle, delta)                 \
  do {                                             \
    if ((handle) != nullptr) (handle)->add(delta); \
  } while (0)
#define PS_PERF_OBSERVE(handle, v)                 \
  do {                                             \
    if ((handle) != nullptr) (handle)->observe(v); \
  } while (0)
#define PS_PERF_SCOPE(var, handle) \
  ::parastack::obs::perf::ScopedTimer var(handle)
