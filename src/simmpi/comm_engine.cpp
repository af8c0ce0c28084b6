#include "simmpi/comm_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace parastack::simmpi {

namespace {
/// ceil(log2(n)) for n >= 1 — tree depth of a typical collective algorithm.
int log2_ceil(int n) {
  PS_CHECK(n >= 1, "log2_ceil needs n >= 1");
  return std::bit_width(static_cast<unsigned>(n - 1));
}

/// Local injection cost of an eager send (buffer copy + NIC handoff).
sim::Time eager_send_cost(const sim::Platform& platform, std::size_t bytes) {
  const double gbytes_per_s = platform.network_bandwidth_gbps * 0.125;
  const auto copy = static_cast<sim::Time>(
      static_cast<double>(bytes) / gbytes_per_s);
  return sim::from_micros(0.5) + copy;
}
}  // namespace

CommEngine::CommEngine(sim::Engine& engine, const sim::Platform& platform,
                       int nranks)
    : engine_(engine), platform_(platform), nranks_(nranks),
      next_collective_seq_(static_cast<std::size_t>(nranks), 0) {
  PS_CHECK(nranks >= 1, "world needs at least one rank");
  inbound_.resize(static_cast<std::size_t>(nranks));
}

CommEngine::Channel& CommEngine::channel(Rank src, Rank dst, int tag) {
  // A rank receives from a handful of (peer, tag) pairs, so a short list
  // scanned on one packed word beats any hash table.
  const std::uint64_t src_tag =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
      static_cast<std::uint32_t>(tag);
  auto& channels = inbound_[static_cast<std::size_t>(dst)];
  for (Channel& channel : channels) {
    if (channel.src_tag == src_tag) return channel;
  }
  Channel& added = channels.emplace_back();
  added.src_tag = src_tag;
  return added;
}

void CommEngine::post_send(Rank src, Rank dst, int tag, std::size_t bytes,
                           RequestOwner& owner, std::uint32_t slot) {
  PS_CHECK(src >= 0 && src < nranks_, "send: src out of range");
  PS_CHECK(dst >= 0 && dst < nranks_, "send: dst out of range");
  ++sends_posted_;
  const sim::Time now = engine_.now();
  PendingOp send{&owner, platform_.transfer_time(bytes), slot};
  if (bytes <= platform_.eager_threshold_bytes) {
    // Eager sends complete locally, receiver or not.
    complete_at(owner, slot, now + eager_send_cost(platform_, bytes));
    send = PendingOp{nullptr, now + send.time, slot};
  }
  Channel& ch = channel(src, dst, tag);
  if (ch.sends_waiting || ch.ops.empty()) {
    ch.sends_waiting = true;
    ch.ops.push_back(send);
    return;
  }
  match(send, ch.ops.pop_front());
}

void CommEngine::post_recv(Rank dst, Rank src, int tag, RequestOwner& owner,
                           std::uint32_t slot) {
  PS_CHECK(src >= 0 && src < nranks_, "recv: src out of range");
  PS_CHECK(dst >= 0 && dst < nranks_, "recv: dst out of range");
  ++recvs_posted_;
  const PendingOp recv{&owner, 0, slot};
  Channel& ch = channel(src, dst, tag);
  if (!ch.sends_waiting || ch.ops.empty()) {
    ch.sends_waiting = false;
    ch.ops.push_back(recv);
    return;
  }
  match(ch.ops.pop_front(), recv);
}

void CommEngine::match(const PendingOp& send, const PendingOp& recv) {
  ++matched_;
  const sim::Time now = engine_.now();
  if (send.owner == nullptr) {
    // Eager: the payload is in flight (or buffered at dst); the receiver
    // finishes once it has both posted and the payload has landed.
    complete_at(*recv.owner, recv.slot, std::max(now, send.time));
  } else {
    // Rendezvous: the transfer begins at the match instant.
    const sim::Time done = now + send.time;
    complete_at(*send.owner, send.slot, done);
    complete_at(*recv.owner, recv.slot, done);
  }
}

std::uint64_t CommEngine::pending_sends() const noexcept {
  std::uint64_t pending = 0;
  for (const auto& channels : inbound_) {
    for (const Channel& ch : channels) {
      if (ch.sends_waiting) pending += ch.ops.size();
    }
  }
  return pending;
}

std::uint64_t CommEngine::pending_recvs() const noexcept {
  std::uint64_t pending = 0;
  for (const auto& channels : inbound_) {
    for (const Channel& ch : channels) {
      if (!ch.sends_waiting) pending += ch.ops.size();
    }
  }
  return pending;
}

sim::Time CommEngine::tree_latency(std::size_t bytes, int ranks_involved) const {
  const int depth = log2_ceil(std::max(ranks_involved, 1));
  return static_cast<sim::Time>(depth) * platform_.network_latency +
         2 * platform_.transfer_time(bytes);
}

sim::Time CommEngine::alltoall_latency(std::size_t bytes) const {
  // Pairwise-exchange style: every rank moves (P-1) * bytes through its
  // link; latency term amortizes over log2(P) rounds.
  const double gbytes_per_s = platform_.network_bandwidth_gbps * 0.125;
  const auto volume = static_cast<sim::Time>(
      static_cast<double>(bytes) * static_cast<double>(nranks_ - 1) /
      gbytes_per_s);
  return static_cast<sim::Time>(log2_ceil(nranks_)) *
             platform_.network_latency + volume;
}

void CommEngine::release(const Waiter& waiter, sim::Time when) {
  engine_.schedule_at(std::max(when, engine_.now()),
                      [owner = waiter.owner] { owner->on_collective_done(); });
}

void CommEngine::release_all(CollectiveInstance& inst, sim::Time when) {
  // One event releases every waiter in arrival order. One event per
  // waiter would give the same firing order: those events would share
  // `when` and consecutive sequence numbers, so nothing could fire between
  // them, and whatever a released rank schedules for `when` fires after
  // the last of them either way. The event takes the waiter list and hands
  // it back once it has run; the instance keeps a spare in its place.
  std::vector<Waiter> waiters;
  if (!spare_waiters_.empty()) {
    waiters = std::move(spare_waiters_.back());
    spare_waiters_.pop_back();
  }
  std::swap(waiters, inst.waiters);
  engine_.schedule_at(when, [this, waiters = std::move(waiters)]() mutable {
    for (const Waiter& waiter : waiters) waiter.owner->on_collective_done();
    waiters.clear();
    spare_waiters_.push_back(std::move(waiters));
  });
}

void CommEngine::release_bcast(const CollectiveInstance& inst,
                               const Waiter& waiter, bool is_root) {
  // Bcast completes per rank as soon as the data could have reached it:
  // the root leaves after injecting; a non-root leaves once the root has
  // arrived and the tree has had time to fan out. No global barrier.
  if (is_root) {
    release(waiter, waiter.arrival + eager_send_cost(platform_, inst.bytes) +
                        platform_.network_latency);
  } else {
    release(waiter, std::max(waiter.arrival,
                             inst.root_arrival +
                                 tree_latency(inst.bytes, nranks_)));
  }
}

void CommEngine::enter_collective(MpiFunc kind, Rank rank, Rank root,
                                  std::size_t bytes, RequestOwner& owner) {
  PS_CHECK(is_collective(kind), "enter_collective needs a collective op");
  PS_CHECK(rank >= 0 && rank < nranks_, "collective: rank out of range");
  ++collectives_entered_;
  // Every instance before this rank's next one is open or closed, so the
  // next one is open already or is the first past the window's end.
  const std::uint64_t offset =
      next_collective_seq_[static_cast<std::size_t>(rank)]++ - first_open_;
  PS_CHECK(offset <= open_, "collective instance outside the window");
  const bool opens = offset == open_;  // the first rank to make this call
  if (opens) {
    if (open_ == window_.size()) {
      std::vector<CollectiveInstance> bigger(
          window_.empty() ? 4 : 2 * window_.size());
      for (std::size_t i = 0; i < open_; ++i) {
        bigger[i] = std::move(window_[(head_ + i) & (window_.size() - 1)]);
      }
      window_ = std::move(bigger);
      head_ = 0;
    }
    ++open_;
  }
  CollectiveInstance& inst = window_[(head_ + offset) & (window_.size() - 1)];
  if (opens) {
    inst.kind = kind;
    inst.root = root;
    inst.bytes = bytes;
    inst.arrived = 0;
    inst.root_arrival = -1;
  }
  ++inst.arrived;
  const Waiter waiter{engine_.now(), &owner};
  if (inst.kind != kind || inst.root != root) {
    // Collective mismatch: record it; this rank will never be released —
    // the runtime-level deadlock a real MPI would produce.
    ++mismatches_;
  } else if (kind == MpiFunc::kGather || kind == MpiFunc::kReduce) {
    // Non-roots only inject their contribution and move on.
    if (rank != root) {
      release(waiter, waiter.arrival + eager_send_cost(platform_, bytes) +
                          platform_.network_latency);
    } else {
      inst.waiters.push_back(waiter);
    }
  } else if (kind == MpiFunc::kBcast) {
    // Ranks before the root wait for it; it releases them in arrival order
    // and then itself, and every later rank is released as it arrives.
    if (rank == root) {
      inst.root_arrival = waiter.arrival;
      for (const Waiter& early : inst.waiters) {
        release_bcast(inst, early, false);
      }
      inst.waiters.clear();
      release_bcast(inst, waiter, true);
    } else if (inst.root_arrival >= 0) {
      release_bcast(inst, waiter, false);
    } else {
      inst.waiters.push_back(waiter);
    }
  } else {
    inst.waiters.push_back(waiter);  // synchronizing kinds wait for everyone
  }
  if (inst.arrived == nranks_) finalize_collective(inst);
}

void CommEngine::finalize_collective(CollectiveInstance& inst) {
  PS_CHECK(&inst == &window_[head_], "collectives close oldest first");
  const sim::Time t_last = engine_.now();  // the last arrival is this event
  switch (inst.kind) {
    case MpiFunc::kBarrier:
      release_all(inst, t_last + static_cast<sim::Time>(log2_ceil(nranks_)) *
                                     platform_.network_latency);
      break;
    case MpiFunc::kAllreduce:
    case MpiFunc::kAllgather:
      release_all(inst, t_last + tree_latency(inst.bytes, nranks_));
      break;
    case MpiFunc::kAlltoall:
      release_all(inst, t_last + alltoall_latency(inst.bytes));
      break;
    case MpiFunc::kGather:
    case MpiFunc::kReduce:
      // Only the root can still be waiting; a mismatched root stays
      // deadlocked, as every mismatched rank does.
      for (const Waiter& waiter : inst.waiters) {
        release(waiter, t_last + tree_latency(inst.bytes, nranks_));
      }
      break;
    case MpiFunc::kBcast:
      break;  // released on arrival; with a mismatched root, never
    default:
      PS_UNREACHABLE("finalize of non-collective");
  }
  inst.waiters.clear();
  head_ = (head_ + 1) & (window_.size() - 1);
  --open_;
  ++first_open_;
}

}  // namespace parastack::simmpi
