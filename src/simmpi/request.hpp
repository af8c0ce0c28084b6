#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace parastack::simmpi {

/// A rank blocked on requests: told each one's completion key once the
/// CommEngine has fixed it.
struct CompletionWaiter {
  virtual ~CompletionWaiter() = default;
  virtual void on_completion_key(sim::Key key) = 0;
};

/// Stands for a completion key not fixed yet: it sorts after every real
/// key, so an unmatched request is never done before the firing event and
/// is always the latest of several.
inline constexpr sim::Key kUnmatchedKey{
    std::numeric_limits<sim::Time>::max(),
    std::numeric_limits<std::uint64_t>::max()};

/// A nonblocking-operation handle (the moral equivalent of MPI_Request).
/// When the CommEngine knows the modelled completion instant it reserves
/// the engine key an event for that instant would get; no event fires for
/// the completion itself. The request has completed once its key is below
/// Engine::firing(). A rank that blocks on the request registers as its
/// one waiter and is told the key when it is fixed, so it can schedule its
/// own wake-up there.
struct Request {
  sim::Key key = kUnmatchedKey;
  CompletionWaiter* waiter = nullptr;  ///< at most one, told the key once
  std::uint32_t refs = 0;              ///< intrusive count (RequestHandle only)
};

namespace detail {

/// Thread-local slab of Request objects. A campaign posts millions of
/// point-to-point ops per trial; making each one a make_shared call (one
/// malloc plus atomic refcounts on every handle copy) was a top cost in
/// profiles. Requests never cross threads — each trial's World lives on one
/// parallel_for worker — so a plain count and a per-thread free list are
/// safe, and a recycled Request costs two vector ops.
class RequestArena {
 public:
  Request* acquire() {
    if (!free_.empty()) {
      Request* req = free_.back();
      free_.pop_back();
      return req;
    }
    owned_.push_back(std::make_unique<Request>());
    return owned_.back().get();
  }

  void release(Request* req) noexcept {
    req->key = kUnmatchedKey;
    req->waiter = nullptr;
    free_.push_back(req);
  }

  static RequestArena& instance() {
    thread_local RequestArena arena;
    return arena;
  }

 private:
  std::vector<std::unique_ptr<Request>> owned_;
  std::vector<Request*> free_;
};

}  // namespace detail

/// Shared-ownership handle to a pooled Request. Mirrors the subset of the
/// std::shared_ptr interface the runtime uses (copy/move, ->, bool, ==);
/// the last handle returns the Request to the arena instead of freeing it.
class RequestHandle {
 public:
  RequestHandle() noexcept = default;
  RequestHandle(std::nullptr_t) noexcept {}  // NOLINT

  RequestHandle(const RequestHandle& other) noexcept : req_(other.req_) {
    if (req_ != nullptr) ++req_->refs;
  }
  RequestHandle(RequestHandle&& other) noexcept : req_(other.req_) {
    other.req_ = nullptr;
  }
  RequestHandle& operator=(const RequestHandle& other) noexcept {
    RequestHandle copy(other);
    std::swap(req_, copy.req_);
    return *this;
  }
  RequestHandle& operator=(RequestHandle&& other) noexcept {
    std::swap(req_, other.req_);
    return *this;
  }
  ~RequestHandle() { reset(); }

  void reset() noexcept {
    if (req_ != nullptr && --req_->refs == 0) {
      detail::RequestArena::instance().release(req_);
    }
    req_ = nullptr;
  }

  Request* operator->() const noexcept { return req_; }
  Request& operator*() const noexcept { return *req_; }
  Request* get() const noexcept { return req_; }
  explicit operator bool() const noexcept { return req_ != nullptr; }

  friend bool operator==(const RequestHandle& a,
                         const RequestHandle& b) noexcept {
    return a.req_ == b.req_;
  }

  friend RequestHandle make_request();

 private:
  explicit RequestHandle(Request* req) noexcept : req_(req) {
    ++req_->refs;
  }

  Request* req_ = nullptr;
};

inline RequestHandle make_request() {
  return RequestHandle(detail::RequestArena::instance().acquire());
}

}  // namespace parastack::simmpi
