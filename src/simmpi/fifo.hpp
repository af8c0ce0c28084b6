#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace parastack::simmpi {

/// First-in first-out queue over a power-of-two ring that reuses its
/// storage: after the first push, steady push/pop traffic allocates
/// nothing, and capacity tracks the most ops ever pending at once, not the
/// traffic (a hung receiver's channel backs up without bound, so that
/// matters). A popped element is moved out, so its slot holds no
/// resources until it is reused.
template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push_back(T value) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(value);
    ++size_;
  }

  T pop_front() {
    PS_CHECK(size_ > 0, "pop from an empty fifo");
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> bigger(ring_.empty() ? 2 : ring_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace parastack::simmpi
