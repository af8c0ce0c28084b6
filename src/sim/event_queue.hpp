#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace parastack::sim {

/// An event's place in the firing order: its time, then a sequence number
/// from one monotone counter (the equal-time tiebreak). Keys are unique.
struct Key {
  Time time = 0;
  std::uint64_t seq = 0;
  friend constexpr auto operator<=>(const Key&, const Key&) = default;
};

/// One pending entry: its key's time and sequence, and the callback's pool
/// address. Everything the pop path needs lives inline in 24 bytes; firing
/// an event never touches a hash map.
struct QueuedEvent {
  Time time;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

/// Priority queue on (time, seq): a one-entry next-event slot in front of
/// a 4-ary implicit min-heap. Keys are unique, so any exact priority queue
/// pops the same sequence; the slot only changes what each push costs.
///
/// The slot, when occupied, holds the entry that fires before everything
/// in the heap. A push earlier than every pending entry lands there (a
/// displaced occupant moves into the heap) instead of sifting through it.
/// Simulations schedule many events that are next to fire — a rank's
/// follow-up step a few microseconds out while the heap holds hundreds of
/// later events — and pop them right back; in a 256-rank LU trial about a
/// third of all pushes take the slot.
///
/// A 4-ary layout halves the tree depth of a binary heap, trading a few
/// extra comparisons per level for far fewer cache-missing levels — the
/// classic DES-queue win when the queue holds hundreds-to-thousands of
/// events (one cache line holds ~2.7 entries, so a node's children land on
/// at most two lines).
class EventQueue {
 public:
  bool empty() const noexcept { return !has_next_ && v_.empty(); }
  /// Pending entries, the slot included.
  std::size_t size() const noexcept { return v_.size() + (has_next_ ? 1 : 0); }
  const QueuedEvent& front() const noexcept {
    return has_next_ ? next_ : v_[0];
  }

  // The branch hints lay the heap path out as the fall-through: about two
  // thirds of pushes take it, and with the slot paths out of line whole
  // trials measured faster than with the compiler's default layout.
  void push(const QueuedEvent& event) {
    if (has_next_) [[unlikely]] {
      if (before(event, next_)) {
        heap_push(next_);
        next_ = event;
      } else {
        heap_push(event);
      }
    } else if (v_.empty() || before(event, v_[0])) [[unlikely]] {
      next_ = event;
      has_next_ = true;
    } else {
      heap_push(event);
    }
  }

  void pop_front() {
    if (has_next_) [[unlikely]] {
      has_next_ = false;
      return;
    }
    const QueuedEvent moved = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      v_[0] = moved;
      sift_down(0);
    }
  }

  /// Remove every entry matching `pred`, the slot included, and restore the
  /// heap in one O(n) pass (tombstone compaction). Returns the number
  /// removed.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t removed = 0;
    if (has_next_ && pred(next_)) {
      has_next_ = false;
      ++removed;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < v_.size(); ++i) {
      if (!pred(v_[i])) v_[kept++] = v_[i];
    }
    removed += v_.size() - kept;
    v_.resize(kept);
    if (kept > 1) {
      for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;) sift_down(i);
    }
    return removed;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const QueuedEvent& a, const QueuedEvent& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void heap_push(const QueuedEvent& event) {
    v_.push_back(event);
    sift_up(v_.size() - 1);
  }

  void sift_up(std::size_t i) {
    const QueuedEvent moving = v_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(moving, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = moving;
  }

  void sift_down(std::size_t i) {
    const QueuedEvent moving = v_[i];
    const std::size_t n = v_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t last_child =
          first_child + kArity <= n ? first_child + kArity : n;
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(v_[c], v_[best])) best = c;
      }
      if (!before(v_[best], moving)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = moving;
  }

  QueuedEvent next_{};
  bool has_next_ = false;
  std::vector<QueuedEvent> v_;
};

}  // namespace parastack::sim
