#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/fifo.hpp"
#include "simmpi/request.hpp"
#include "simmpi/types.hpp"

namespace parastack::simmpi {

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

  /// Post a send src -> dst. The returned request completes when the sender
  /// may proceed (eager: after the local injection cost, regardless of the
  /// receiver, so its key is fixed on return; rendezvous: after the matched
  /// transfer finishes).
  RequestHandle post_send(Rank src, Rank dst, int tag, std::size_t bytes);

  /// Post a receive of a message src -> dst. Completes when the matched
  /// message has fully arrived.
  RequestHandle post_recv(Rank dst, Rank src, int tag, std::size_t bytes);

  /// Enter a collective. `done` fires when this rank may leave the call
  /// (any void() callable converts; small lambdas stay allocation-free).
  /// Ranks must enter collectives in a globally consistent order; a
  /// kind/root mismatch at the same instance is recorded (mismatch_count)
  /// and the offending rank never completes — a deadlock, as in real MPI.
  void enter_collective(MpiFunc kind, Rank rank, Rank root, std::size_t bytes,
                        sim::PooledCallback done);

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
  /// Point-to-point ops still waiting for a match (scans the channel map).
  std::uint64_t pending_sends() const noexcept;
  std::uint64_t pending_recvs() const noexcept;
  /// Collective instances some rank has entered but not all have.
  std::size_t open_collectives() const noexcept { return collectives_.size(); }

 private:
  struct PendingSend {
    sim::Time post_time;
    std::size_t bytes;
    RequestHandle req;
    bool eager;
    sim::Time arrival_time;  ///< eager only: when payload reaches dst
  };
  struct PendingRecv {
    sim::Time post_time;
    std::size_t bytes;
    RequestHandle req;
  };
  struct ChannelKey {
    Rank src;
    Rank dst;
    int tag;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::size_t operator()(const ChannelKey& k) const noexcept {
      auto h = static_cast<std::uint64_t>(k.src) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::uint64_t>(k.dst) + 0x7f4a7c15ULL + (h << 6);
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tag)) +
           (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  /// At most one of the two FIFOs is non-empty between ops: a post
  /// matches against the other side before it returns.
  struct Channel {
    Fifo<PendingSend> sends;
    Fifo<PendingRecv> recvs;
  };

  /// Open-addressed find-or-insert table over channels. A campaign performs
  /// one lookup per posted op (millions per trial) against a small, stable
  /// key set — the node-based unordered_map's pointer chase was a top line
  /// in profiles. Channels are never erased, so the table needs no
  /// tombstones; linear probing over a power-of-two slot vector keeps the
  /// hit path to one or two adjacent probes.
  class ChannelTable {
   public:
    Channel& find_or_insert(const ChannelKey& key) {
      if (slots_.empty() || used_ * 4 >= slots_.size() * 3) grow();
      std::size_t i = ChannelKeyHash{}(key) & (slots_.size() - 1);
      while (slots_[i].used) {
        if (slots_[i].key == key) return slots_[i].channel;
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i].used = true;
      slots_[i].key = key;
      ++used_;
      return slots_[i].channel;
    }

    /// Visit every channel (diagnostics; order is unspecified).
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const auto& slot : slots_) {
        if (slot.used) fn(slot.channel);
      }
    }

   private:
    struct Slot {
      ChannelKey key{};
      Channel channel;
      bool used = false;
    };

    void grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.clear();
      slots_.resize(old.empty() ? 64 : old.size() * 2);
      for (auto& slot : old) {
        if (!slot.used) continue;
        std::size_t i = ChannelKeyHash{}(slot.key) & (slots_.size() - 1);
        while (slots_[i].used) i = (i + 1) & (slots_.size() - 1);
        slots_[i] = std::move(slot);
      }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };

  struct CollectiveInstance {
    MpiFunc kind{};
    Rank root = 0;
    std::size_t bytes = 0;
    int arrived = 0;
    sim::Time root_arrival = -1;
    struct Waiter {
      Rank rank;
      sim::Time arrival;
      sim::PooledCallback done;
      bool released = false;
    };
    std::vector<Waiter> waiters;
  };

  /// Fix `req`'s completion key for instant `t` and tell its waiter.
  void complete_at(Request& req, sim::Time t);
  void match(Channel& channel);
  sim::Time tree_latency(std::size_t bytes, int ranks_involved) const;
  sim::Time alltoall_latency(std::size_t bytes) const;
  /// Schedule one waiter's continuation (rooted kinds: per-rank times).
  void release_waiter(CollectiveInstance::Waiter& waiter, sim::Time when);
  /// Release every waiter of a synchronizing collective at `when` with one
  /// event.
  void release_all(CollectiveInstance& inst, sim::Time when);
  void try_release_bcast(CollectiveInstance& inst);
  void finalize_collective(std::uint64_t id, CollectiveInstance& inst);

  sim::Engine& engine_;
  const sim::Platform& platform_;
  int nranks_;
  ChannelTable channels_;
  std::vector<std::uint64_t> next_collective_seq_;  // per rank
  std::unordered_map<std::uint64_t, CollectiveInstance> collectives_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t sends_posted_ = 0;
  std::uint64_t recvs_posted_ = 0;
  std::uint64_t collectives_entered_ = 0;
};

}  // namespace parastack::simmpi
