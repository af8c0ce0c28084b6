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
}

void CommEngine::complete_at(Request& req, sim::Time t) {
  // The key is reserved at the match, so its place in the firing order is
  // where an event scheduled for the completion now would fire.
  req.key = engine_.reserve(t);
  if (req.waiter != nullptr) {
    std::exchange(req.waiter, nullptr)->on_completion_key(req.key);
  }
}

RequestHandle CommEngine::post_send(Rank src, Rank dst, int tag,
                                    std::size_t bytes) {
  PS_CHECK(src >= 0 && src < nranks_, "send: src out of range");
  PS_CHECK(dst >= 0 && dst < nranks_, "send: dst out of range");
  ++sends_posted_;
  auto req = make_request();
  const bool eager = bytes <= platform_.eager_threshold_bytes;
  PendingSend op;
  op.post_time = engine_.now();
  op.bytes = bytes;
  op.req = req;
  op.eager = eager;
  if (eager) {
    op.arrival_time = engine_.now() + platform_.transfer_time(bytes);
    // Eager sends complete locally, receiver or not.
    complete_at(*req, engine_.now() + eager_send_cost(platform_, bytes));
  }
  auto& channel = channels_.find_or_insert(ChannelKey{src, dst, tag});
  channel.sends.push_back(std::move(op));
  match(channel);
  return req;
}

RequestHandle CommEngine::post_recv(Rank dst, Rank src, int tag,
                                    std::size_t bytes) {
  PS_CHECK(src >= 0 && src < nranks_, "recv: src out of range");
  PS_CHECK(dst >= 0 && dst < nranks_, "recv: dst out of range");
  ++recvs_posted_;
  auto req = make_request();
  PendingRecv op;
  op.post_time = engine_.now();
  op.bytes = bytes;
  op.req = req;
  auto& channel = channels_.find_or_insert(ChannelKey{src, dst, tag});
  channel.recvs.push_back(std::move(op));
  match(channel);
  return req;
}

void CommEngine::match(Channel& channel) {
  while (!channel.sends.empty() && !channel.recvs.empty()) {
    const PendingSend send = channel.sends.pop_front();
    const PendingRecv recv = channel.recvs.pop_front();
    ++matched_;
    const sim::Time now = engine_.now();
    if (send.eager) {
      // Payload is in flight (or buffered at dst); the receiver finishes
      // once it has both posted and the payload has landed.
      complete_at(*recv.req, std::max(now, send.arrival_time));
    } else {
      // Rendezvous: transfer begins at the match instant.
      const sim::Time done = now + platform_.transfer_time(send.bytes);
      complete_at(*send.req, done);
      complete_at(*recv.req, done);
    }
  }
}

std::uint64_t CommEngine::pending_sends() const noexcept {
  std::uint64_t pending = 0;
  channels_.for_each(
      [&pending](const Channel& channel) { pending += channel.sends.size(); });
  return pending;
}

std::uint64_t CommEngine::pending_recvs() const noexcept {
  std::uint64_t pending = 0;
  channels_.for_each(
      [&pending](const Channel& channel) { pending += channel.recvs.size(); });
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

void CommEngine::release_waiter(CollectiveInstance::Waiter& waiter,
                                sim::Time when) {
  if (waiter.released) return;
  waiter.released = true;
  sim::PooledCallback done = std::move(waiter.done);
  engine_.schedule_at(std::max(when, engine_.now()), std::move(done));
}

void CommEngine::release_all(CollectiveInstance& inst, sim::Time when) {
  // One event runs every continuation in arrival order. One event per
  // waiter would give the same firing order: those events would share
  // `when` and consecutive sequence numbers, so nothing could fire between
  // them, and whatever a continuation schedules for `when` fires after the
  // last of them either way. A mismatched rank's waiter was marked
  // released on entry; dropping it here leaves that rank blocked.
  std::erase_if(inst.waiters, [](const CollectiveInstance::Waiter& waiter) {
    return waiter.released;
  });
  engine_.schedule_at(when, [waiters = std::move(inst.waiters)]() mutable {
    for (auto& waiter : waiters) waiter.done();
  });
}

void CommEngine::try_release_bcast(CollectiveInstance& inst) {
  // Bcast completes per rank as soon as the data could have reached it:
  // the root leaves after injecting; a non-root leaves once the root has
  // arrived and the tree has had time to fan out. No global barrier.
  if (inst.root_arrival < 0) return;
  const sim::Time fanout =
      inst.root_arrival + tree_latency(inst.bytes, nranks_);
  for (auto& waiter : inst.waiters) {
    if (waiter.released) continue;
    if (waiter.rank == inst.root) {
      release_waiter(waiter, waiter.arrival +
                                 eager_send_cost(platform_, inst.bytes) +
                                 platform_.network_latency);
    } else {
      release_waiter(waiter, std::max(waiter.arrival, fanout));
    }
  }
}

void CommEngine::enter_collective(MpiFunc kind, Rank rank, Rank root,
                                  std::size_t bytes,
                                  sim::PooledCallback done) {
  PS_CHECK(is_collective(kind), "enter_collective needs a collective op");
  PS_CHECK(rank >= 0 && rank < nranks_, "collective: rank out of range");
  ++collectives_entered_;
  const std::uint64_t id = next_collective_seq_[static_cast<std::size_t>(rank)]++;
  auto [it, inserted] = collectives_.try_emplace(id);
  CollectiveInstance& inst = it->second;
  if (inserted) {
    inst.kind = kind;
    inst.root = root;
    inst.bytes = bytes;
  } else if (inst.kind != kind || inst.root != root) {
    // Collective mismatch: record it; this rank will never be released —
    // the runtime-level deadlock a real MPI would produce.
    ++mismatches_;
    ++inst.arrived;  // keep the instance's bookkeeping consistent
    inst.waiters.push_back({rank, engine_.now(), std::move(done), true});
    if (inst.arrived == nranks_) finalize_collective(id, inst);
    return;
  }
  ++inst.arrived;
  inst.waiters.push_back({rank, engine_.now(), std::move(done), false});
  auto& waiter = inst.waiters.back();
  if (kind == MpiFunc::kBcast && rank == root) inst.root_arrival = engine_.now();

  switch (kind) {
    case MpiFunc::kGather:
    case MpiFunc::kReduce:
      // Non-roots only inject their contribution and move on.
      if (rank != root) {
        release_waiter(waiter, engine_.now() +
                                   eager_send_cost(platform_, bytes) +
                                   platform_.network_latency);
      }
      break;
    case MpiFunc::kBcast:
      try_release_bcast(inst);
      break;
    default:
      break;  // synchronizing kinds wait for everyone
  }

  if (inst.arrived == nranks_) finalize_collective(id, inst);
}

void CommEngine::finalize_collective(std::uint64_t id,
                                     CollectiveInstance& inst) {
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
    case MpiFunc::kReduce: {
      // Only the root is still waiting (plus any mismatched stragglers,
      // which stay deadlocked: their waiters are marked released already).
      const sim::Time done = t_last + tree_latency(inst.bytes, nranks_);
      for (auto& waiter : inst.waiters) {
        if (waiter.rank == inst.root) release_waiter(waiter, done);
      }
      break;
    }
    case MpiFunc::kBcast:
      try_release_bcast(inst);
      break;
    default:
      PS_UNREACHABLE("finalize of non-collective");
  }
  collectives_.erase(id);
}

}  // namespace parastack::simmpi
