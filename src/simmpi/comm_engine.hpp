#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/fifo.hpp"
#include "simmpi/types.hpp"

namespace parastack::simmpi {

/// Stands for a completion key not fixed yet: it sorts after every real
/// key, so an unmatched request is never done before the firing event and
/// is always the latest of several.
inline constexpr sim::Key kUnmatchedKey{
    std::numeric_limits<sim::Time>::max(),
    std::numeric_limits<std::uint64_t>::max()};

/// The rank side of every op the CommEngine holds: a rank posts each
/// point-to-point request under a slot index of its own and is told the
/// request's completion key, once, when the engine fixes it. No event fires
/// for the completion itself; the request has completed once its key is
/// below Engine::firing(). A rank in a collective is told when it may
/// leave, by the event that releases it.
struct RequestOwner {
  virtual ~RequestOwner() = default;
  virtual void on_completion_key(std::uint32_t slot, sim::Key key) = 0;
  virtual void on_collective_done() = 0;
};

/// The simulated MPI runtime's communication core: point-to-point matching
/// with eager/rendezvous protocols, and collectives with per-kind completion
/// semantics (synchronizing vs rooted-early-exit). All completion instants
/// come from the platform's alpha-beta network model.
///
/// Hang semantics fall out naturally: an op whose match never arrives simply
/// never completes, and its poster stays blocked forever — exactly how real
/// MPI deadlocks behave from ParaStack's point of view.
class CommEngine {
 public:
  CommEngine(sim::Engine& engine, const sim::Platform& platform, int nranks);

  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  /// Post a send src -> dst as `owner`'s request `slot`. It completes when
  /// the sender may proceed: eager, after the local injection cost whether
  /// or not the receiver has posted, so the owner is told the key before
  /// this returns; rendezvous, when the matched transfer finishes.
  void post_send(Rank src, Rank dst, int tag, std::size_t bytes,
                 RequestOwner& owner, std::uint32_t slot);

  /// Post a receive of a message src -> dst as `owner`'s request `slot`.
  /// It completes when the matched message has fully arrived.
  void post_recv(Rank dst, Rank src, int tag, RequestOwner& owner,
                 std::uint32_t slot);

  /// Enter a collective; `owner` is told when this rank may leave the
  /// call. Ranks must enter collectives in a globally consistent order; a
  /// kind/root mismatch at the same instance is recorded (mismatch_count)
  /// and the offending rank never completes — a deadlock, as in real MPI.
  void enter_collective(MpiFunc kind, Rank rank, Rank root, std::size_t bytes,
                        RequestOwner& owner);

  int nranks() const noexcept { return nranks_; }
  std::uint64_t mismatch_count() const noexcept { return mismatches_; }

  /// Messages matched so far (diagnostics / tests).
  std::uint64_t matches() const noexcept { return matched_; }

  // --- Conservation accounting (pscheck invariant layer) -------------------
  // Every posted op either matches exactly once or stays pending forever;
  // the fuzzer's invariant checks hold the engine to that ledger:
  //   matches()  <= min(sends_posted(), recvs_posted())
  //   pending_sends() == sends_posted() - matches()   (same for recvs)
  //   a completed fault-free job leaves nothing pending and no open
  //   collective instance.
  std::uint64_t sends_posted() const noexcept { return sends_posted_; }
  std::uint64_t recvs_posted() const noexcept { return recvs_posted_; }
  std::uint64_t collectives_entered() const noexcept {
    return collectives_entered_;
  }
  /// Point-to-point ops still waiting for a match (scans every channel).
  std::uint64_t pending_sends() const noexcept;
  std::uint64_t pending_recvs() const noexcept;
  /// Collective instances some rank has entered but not all have.
  std::size_t open_collectives() const noexcept { return open_; }

 private:
  /// A posted op waiting for its match.
  struct PendingOp {
    RequestOwner* owner;  ///< null for an eager send: its key is fixed
    sim::Time time;       ///< send: eager arrival, or rendezvous transfer
    std::uint32_t slot;
  };
  /// The ops of one (src, dst, tag) triple, kept in the receiver's list.
  /// Only one side can be waiting: a post matches against the other side
  /// before it queues.
  struct Channel {
    std::uint64_t src_tag;
    bool sends_waiting = false;  ///< which side `ops` holds
    Fifo<PendingOp> ops;
  };

  struct Waiter {
    sim::Time arrival;
    RequestOwner* owner;
  };
  /// One collective call every rank makes. `waiters` holds the ranks still
  /// to be released; a mismatched rank only counts as arrived.
  struct CollectiveInstance {
    MpiFunc kind{};
    Rank root = 0;
    std::size_t bytes = 0;
    int arrived = 0;
    sim::Time root_arrival = -1;
    std::vector<Waiter> waiters;
  };

  Channel& channel(Rank src, Rank dst, int tag);
  /// Fix the key of `owner`'s request `slot` for instant `t`.
  void complete_at(RequestOwner& owner, std::uint32_t slot, sim::Time t) {
    // The key is reserved at the match, so its place in the firing order is
    // where an event scheduled for the completion now would fire.
    owner.on_completion_key(slot, engine_.reserve(t));
  }
  void match(const PendingOp& send, const PendingOp& recv);
  sim::Time tree_latency(std::size_t bytes, int ranks_involved) const;
  sim::Time alltoall_latency(std::size_t bytes) const;
  /// Schedule one rank's release (rooted kinds: per-rank times).
  void release(const Waiter& waiter, sim::Time when);
  /// Release every waiter of a synchronizing collective at `when` with one
  /// event.
  void release_all(CollectiveInstance& inst, sim::Time when);
  /// Release a Bcast waiter once the root has arrived.
  void release_bcast(const CollectiveInstance& inst, const Waiter& waiter,
                     bool is_root);
  void finalize_collective(CollectiveInstance& inst);

  sim::Engine& engine_;
  const sim::Platform& platform_;
  int nranks_;
  std::vector<std::vector<Channel>> inbound_;  // per receiving rank
  std::vector<std::uint64_t> next_collective_seq_;  // per rank
  /// Open instances in id order, in a ring: instance `first_open_ + i`
  /// sits at window_[(head_ + i) % window_.size()]. An instance closes when
  /// the last rank arrives, and that is always the oldest, so its ring
  /// entry, waiter storage included, is reused by a later instance.
  std::vector<CollectiveInstance> window_;
  std::size_t head_ = 0;
  std::size_t open_ = 0;
  std::uint64_t first_open_ = 0;
  /// Waiter storage that release events hand back, for the next instance
  /// to release.
  std::vector<std::vector<Waiter>> spare_waiters_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t sends_posted_ = 0;
  std::uint64_t recvs_posted_ = 0;
  std::uint64_t collectives_entered_ = 0;
};

}  // namespace parastack::simmpi
