#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace parastack::sim {

/// Fixed-footprint type-erased callable, the pooled replacement for
/// `std::function<void()>` in the engine's hot loop. Callables up to
/// kInlineCapacity bytes (`this` plus a few captured words, or a moved-in
/// std::function) are stored inline in the slot — scheduling them allocates
/// nothing. Larger or throwing-move callables fall back to a single heap
/// allocation, so the type stays fully general: the fault injector's
/// slowdown and freeze triggers (`FaultInjector::arm`) each capture a whole
/// `FaultPlan` and two `shared_ptr`s, so each slowdown or freeze run pays
/// one allocation here. Move-only by design: a callback has exactly one
/// home, its pool slot.
class PooledCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  PooledCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PooledCallback>>>
  PooledCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  PooledCallback(PooledCallback&& other) noexcept { move_from(other); }

  PooledCallback& operator=(PooledCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PooledCallback>>>
  PooledCallback& operator=(F&& fn) {
    emplace(std::forward<F>(fn));
    return *this;
  }

  PooledCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  PooledCallback(const PooledCallback&) = delete;
  PooledCallback& operator=(const PooledCallback&) = delete;

  ~PooledCallback() { reset(); }

  /// Construct a callable into this slot, destroying any previous one.
  template <typename F>
  void emplace(F&& fn) {
    reset();
    using CB = std::decay_t<F>;
    if constexpr (fits_inline<CB>()) {
      ::new (static_cast<void*>(storage_)) CB(std::forward<F>(fn));
      vt_ = &kVTable<CB, /*Inline=*/true>;
    } else {
      ::new (static_cast<void*>(storage_)) CB*(new CB(std::forward<F>(fn)));
      vt_ = &kVTable<CB, /*Inline=*/false>;
    }
  }

  void operator()() { vt_->call(storage_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*call)(void* storage);
    /// Relocate: move-construct at dst from src and destroy the src object.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename CB>
  static constexpr bool fits_inline() {
    return sizeof(CB) <= kInlineCapacity &&
           alignof(CB) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<CB>;
  }

  template <typename CB, bool Inline>
  static constexpr VTable kVTable = {
      /*call=*/[](void* storage) {
        if constexpr (Inline) {
          (*std::launder(reinterpret_cast<CB*>(storage)))();
        } else {
          (**std::launder(reinterpret_cast<CB**>(storage)))();
        }
      },
      /*relocate=*/[](void* dst, void* src) noexcept {
        if constexpr (Inline) {
          CB* from = std::launder(reinterpret_cast<CB*>(src));
          ::new (dst) CB(std::move(*from));
          from->~CB();
        } else {
          ::new (dst) CB*(*std::launder(reinterpret_cast<CB**>(src)));
        }
      },
      /*destroy=*/[](void* storage) noexcept {
        if constexpr (Inline) {
          std::launder(reinterpret_cast<CB*>(storage))->~CB();
        } else {
          delete *std::launder(reinterpret_cast<CB**>(storage));
        }
      },
  };

  void move_from(PooledCallback& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const VTable* vt_ = nullptr;
};

/// Slab of callback slots with free-list reuse, addressed by a dense
/// index; no hash map is consulted anywhere.
///
/// Storage is a list of fixed-size chunks, never reallocated, so a slot's
/// address is stable for the pool's lifetime. That stability is what lets
/// the engine invoke callbacks *in place* (`at(slot)()`, then release())
/// instead of moving each closure onto the firing frame: a callback that
/// schedules new events may add chunks or recycle free slots, but can
/// never move or reuse the slot it is running out of — it rejoins the free
/// list only when release() returns it.
class CallbackPool {
 public:
  using Slot = std::uint32_t;

  /// Move a callable into a (possibly recycled) slot. An incoming
  /// PooledCallback moves slot-to-slot; anything else is emplaced (no
  /// double wrapping).
  template <typename F>
  Slot acquire(F&& fn) {
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<Slot>(size_);
      if ((size_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<PooledCallback[]>(kChunkSize));
      }
      ++size_;
    }
    if constexpr (std::is_same_v<std::decay_t<F>, PooledCallback>) {
      at(slot) = std::forward<F>(fn);
    } else {
      at(slot).emplace(std::forward<F>(fn));
    }
    return slot;
  }

  /// The callback in `slot`, invoked in place by the engine.
  PooledCallback& at(Slot slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Destroy the just-invoked closure and recycle the slot.
  void release(Slot slot) {
    at(slot).reset();
    free_.push_back(slot);
  }

  /// Occupied slots == pending events. An event whose callback is
  /// mid-invocation counts until release() recycles it.
  std::size_t live() const noexcept { return size_ - free_.size(); }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  // 512 entries per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<PooledCallback[]>> chunks_;
  std::vector<Slot> free_;
  std::size_t size_ = 0;
};

}  // namespace parastack::sim
