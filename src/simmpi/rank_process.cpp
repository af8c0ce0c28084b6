#include "simmpi/rank_process.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace parastack::simmpi {

namespace {

/// Report one finished compute/MPI/busy-wait segment. Producers pass the
/// span's begin; the end is the engine's now. No-sink and
/// sink-without-span-interest both bail before building the event.
void emit_rank_span(sim::Engine& engine, obs::RankSpanEvent::Kind kind,
                    Rank rank, std::string_view func, sim::Time begin) {
  obs::TelemetrySink* sink = engine.telemetry();
  if (sink == nullptr || !sink->wants_rank_spans()) return;
  obs::RankSpanEvent event;
  event.begin = begin;
  event.end = engine.now();
  event.rank = rank;
  event.kind = kind;
  event.func = func;
  sink->on_event(event);
}
// Busy-wait loop granularity: a short user-code body and an MPI_Test probe.
// Busy-waiting ranks flip state every couple hundred microseconds, as the
// paper describes for HPL's hand-rolled collectives; most of each cycle sits
// inside MPI_Test (the loop body is just loop control), which keeps the
// persistence check of §4 effective at excluding flippers.
constexpr sim::Time kBusyBodyMean = sim::from_micros(60);
constexpr sim::Time kBusyTestMean = sim::from_micros(110);
// Simulation-granularity backoff limit for busy-wait slices (~80x, i.e.
// ~5 ms body / ~9 ms probe at the cap).
constexpr double kBusyBackoffCap = 80.0;
// Cost of posting a nonblocking op / finishing a completed wait.
constexpr sim::Time kCallOverhead = sim::from_micros(2);
constexpr std::string_view kProgressFrame = "pmpi_progress_wait";
}  // namespace

RankProcess::RankProcess(sim::Engine& engine, CommEngine& comm,
                         const sim::Platform& platform, Rank rank, int node,
                         std::unique_ptr<Program> program, util::Rng rng,
                         Hooks hooks)
    : engine_(engine), comm_(comm), platform_(platform), rank_(rank),
      node_(node), program_(std::move(program)), rng_(rng),
      hooks_(std::move(hooks)) {
  PS_CHECK(program_ != nullptr, "rank needs a program");
  stack_.push("main");
  stack_.push("solver_driver");
}

void RankProcess::configure_threads(int threads, bool multiple) {
  PS_CHECK(status_ == RankStatus::kNotStarted,
           "configure_threads before start()");
  PS_CHECK(threads >= 1, "at least the master thread");
  thread_multiple_ = multiple;
  worker_stacks_.assign(static_cast<std::size_t>(threads - 1), CallStack{});
  for (auto& stack : worker_stacks_) {
    stack.push("omp_worker_entry");
    stack.push("omp_idle_spin");
  }
}

const CallStack& RankProcess::worker_stack(int worker) const {
  PS_CHECK(worker >= 0 &&
               worker < static_cast<int>(worker_stacks_.size()),
           "worker index out of range");
  return worker_stacks_[static_cast<std::size_t>(worker)];
}

bool RankProcess::in_mpi() const noexcept {
  if (stack_.in_mpi()) return true;
  for (const auto& stack : worker_stacks_) {
    if (stack.in_mpi()) return true;
  }
  return false;
}

void RankProcess::set_worker_frames(std::string_view leaf) {
  for (auto& stack : worker_stacks_) {
    stack.clear();
    stack.push("omp_worker_entry");
    stack.push(leaf);
  }
}

void RankProcess::start() {
  PS_CHECK(status_ == RankStatus::kNotStarted, "rank started twice");
  status_ = RankStatus::kComputing;
  // Stagger startup slightly so ranks do not move in artificial lockstep.
  engine_.schedule_after(
      sim::from_micros(rng_.uniform(0.0, 200.0)), guarded([this] { advance(); }));
}

void RankProcess::add_suspension(sim::Time dt) {
  switch (status_) {
    case RankStatus::kComputing:
    case RankStatus::kBusyWaitOut:
    case RankStatus::kBusyWaitIn:
      suspend_debt_ += dt;
      break;
    default:
      break;  // blocked / hung / finished ranks lose nothing
  }
}

void RankProcess::freeze() {
  frozen_ = true;  // orphans all pending events and comm releases
}

void RankProcess::advance() {
  PS_CHECK(!frozen_, "frozen rank advanced");
  ++actions_;
  dispatch(program_->next());
}

sim::Time RankProcess::sample_compute(sim::Time mean, double cv) {
  // combined_cv is a pure function of cv (noise_cv is fixed per platform)
  // and phases redraw with the same cv millions of times per run; caching
  // the last value drops a libm sqrt from every compute event.
  if (cv != combined_cv_for_) {
    combined_cv_for_ = cv;
    combined_cv_ =
        std::sqrt(cv * cv + platform_.noise_cv * platform_.noise_cv);
  }
  // Replay prefix (resume-from-checkpoint): already-checkpointed work costs
  // only the floor, so the rank fast-forwards to its snapshot point. The
  // stream advances as the draw would, so the variate stream keeps its shape.
  if (actions_ < replay_target_) {
    rng_.skip_lognormal(combined_cv_);
    return 100;
  }
  const double scaled = static_cast<double>(mean) * platform_.compute_scale *
                        compute_factor_;
  const double sampled = rng_.lognormal_mean_cv(scaled, combined_cv_);
  return std::max<sim::Time>(static_cast<sim::Time>(sampled), 100);
}

void RankProcess::begin_compute(const Action& action) {
  status_ = RankStatus::kComputing;
  const std::string_view func =
      action.user_func.empty() ? "user_compute" : action.user_func;
  compute_span_begin_ = engine_.now();
  compute_span_func_ = func;
  stack_.push(func);
  // Workers join the parallel region (all threads OUT_MPI).
  if (!worker_stacks_.empty()) set_worker_frames(func);
  const sim::Time dur = sample_compute(action.compute_mean, action.compute_cv);
  engine_.schedule_after(dur, guarded([this] { finish_compute(); }));
}

void RankProcess::finish_compute() {
  // Inspector ptrace-stops accumulated while computing postpone completion.
  if (pay_suspension([this] { finish_compute(); })) return;
  emit_rank_span(engine_, obs::RankSpanEvent::Kind::kCompute, rank_,
                 compute_span_func_, compute_span_begin_);
  stack_.pop();
  advance();
}

void RankProcess::begin_blocking_mpi(MpiFunc func) {
  status_ = RankStatus::kInMpiBlocked;
  mpi_span_begin_ = engine_.now();
  mpi_span_func_ = mpi_func_name(func);
  // Hybrid MULTIPLE mode: communication rotates across threads (§6); the
  // non-communicating threads sit in worker code. Default single-threaded
  // mode and FUNNELED mode communicate on the master.
  mpi_stack_ = &stack_;
  if (thread_multiple_ && !worker_stacks_.empty()) {
    const int slot =
        next_comm_thread_++ % (static_cast<int>(worker_stacks_.size()) + 1);
    if (slot > 0) {
      mpi_stack_ = &worker_stacks_[static_cast<std::size_t>(slot - 1)];
      // Master overlaps computation while a worker communicates.
      stack_.push("overlap_compute_tile");
    }
  }
  if (!worker_stacks_.empty()) {
    for (auto& stack : worker_stacks_) {
      if (&stack == mpi_stack_) continue;
      stack.clear();
      stack.push("omp_worker_entry");
      stack.push("omp_idle_spin");
    }
  }
  mpi_stack_->push(mpi_func_name(func));
  mpi_stack_->push(kProgressFrame);
}

void RankProcess::end_blocking_mpi() {
  PS_CHECK(mpi_stack_ != nullptr, "no blocking MPI call in progress");
  emit_rank_span(engine_, obs::RankSpanEvent::Kind::kBlockingMpi, rank_,
                 mpi_span_func_, mpi_span_begin_);
  mpi_stack_->pop();  // progress frame
  mpi_stack_->pop();  // MPI_x
  if (mpi_stack_ != &stack_) stack_.pop();  // the master's overlap frame
  mpi_stack_ = nullptr;
}

bool RankProcess::outstanding_complete() const {
  // A key below the firing event's is a completion that has passed.
  const sim::Key firing = engine_.firing();
  for (const sim::Key& key : keys_) {
    if (!(key < firing)) return false;
  }
  return true;
}

void RankProcess::post_send(const Action& action, Rank dst) {
  // The slot exists before the post: an eager send, or one that matches at
  // once, reports its key from inside it.
  const auto slot = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(kUnmatchedKey);
  comm_.post_send(rank_, dst, action.tag, action.bytes, *this, slot);
}

void RankProcess::post_recv(const Action& action, Rank src) {
  const auto slot = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(kUnmatchedKey);
  comm_.post_recv(rank_, src, action.tag, *this, slot);
}

void RankProcess::block() {
  for (std::size_t slot = wait_from_; slot < keys_.size(); ++slot) {
    if (keys_[slot] == kUnmatchedKey) {
      ++awaiting_;
    } else {
      wake_key_ = std::max(wake_key_, keys_[slot]);
    }
  }
  if (awaiting_ == 0) wake();
}

void RankProcess::on_completion_key(std::uint32_t slot, sim::Key key) {
  keys_[slot] = key;
  // A request the blocked call does not wait on (an Irecv completing during
  // a later Send) only records its key for the Waitall that follows.
  if (awaiting_ == 0 || slot < wait_from_) return;
  wake_key_ = std::max(wake_key_, key);
  if (--awaiting_ == 0) wake();
}

void RankProcess::wake() {
  const sim::Key key = std::exchange(wake_key_, sim::Key{});
  auto resume = guarded([this] {
    keys_.resize(wait_from_);
    end_blocking_mpi();
    advance();
  });
  // Every request completed before the call (a late Waitall): it returns
  // after the call overhead. Otherwise the key was reserved during this
  // event or by the match firing now, so it is still ahead.
  if (key < engine_.firing()) {
    engine_.schedule_after(kCallOverhead, std::move(resume));
  } else {
    engine_.schedule_at(key, std::move(resume));
  }
}

void RankProcess::on_collective_done() {
  if (frozen_) return;
  end_blocking_mpi();
  advance();
}

void RankProcess::begin_test_loop(const Action& action) {
  busy_func_ = action.user_func.empty() ? "user_busy_wait" : action.user_func;
  status_ = RankStatus::kBusyWaitOut;
  busy_span_begin_ = engine_.now();
  stack_.push(busy_func_);
  busy_backoff_ = 1.0;
  test_loop_body();
}

void RankProcess::test_loop_body() {
  // Loop body: user code, OUT_MPI. The simulated slice length backs off
  // exponentially (the real loop spins at microsecond granularity, but the
  // observable quantity — the OUT/IN duty cycle — is preserved, so the
  // detector's samples are unaffected while the event count per busy-wait
  // stays bounded even for ranks that flip "forever" during a hang).
  status_ = RankStatus::kBusyWaitOut;
  const sim::Time body = sample_compute(
      static_cast<sim::Time>(static_cast<double>(kBusyBodyMean) *
                             busy_backoff_),
      0.3);
  engine_.schedule_after(body, guarded([this] {
    if (pay_suspension([this] { test_loop_poll(); })) {
      // Suspension already re-schedules the poll; nothing else to do.
      return;
    }
    test_loop_poll();
  }));
}

void RankProcess::test_loop_poll() {
  // MPI_Test probe: IN_MPI briefly.
  status_ = RankStatus::kBusyWaitIn;
  stack_.push(mpi_func_name(MpiFunc::kTest));
  const sim::Time probe = sample_compute(
      static_cast<sim::Time>(static_cast<double>(kBusyTestMean) *
                             busy_backoff_),
      0.2);
  engine_.schedule_after(probe, guarded([this] {
    stack_.pop();  // MPI_Test
    if (outstanding_complete()) {
      // One span covers the whole busy-wait: the OUT/IN flips inside it are
      // sub-interval noise no timeline viewer can render usefully.
      emit_rank_span(engine_, obs::RankSpanEvent::Kind::kBusyWait, rank_,
                     busy_func_, busy_span_begin_);
      stack_.pop();  // busy loop body frame
      keys_.clear();
      advance();
      return;
    }
    busy_backoff_ = std::min(busy_backoff_ * 1.6, kBusyBackoffCap);
    test_loop_body();
  }));
}

void RankProcess::dispatch(const Action& action) {
  using Kind = Action::Kind;
  switch (action.kind) {
    case Kind::kCompute:
      begin_compute(action);
      return;

    // Send, Recv, Sendrecv and Waitall share one wait path: post the
    // call's requests, then block() on every slot from wait_from_ on. The
    // rank wakes with one event, at the latest of their completion keys.
    case Kind::kSend:
      begin_blocking_mpi(MpiFunc::kSend);
      wait_from_ = keys_.size();
      post_send(action, action.peer);
      block();
      return;

    case Kind::kRecv:
      begin_blocking_mpi(MpiFunc::kRecv);
      wait_from_ = keys_.size();
      post_recv(action, action.peer);
      block();
      return;

    case Kind::kSendrecv:
      begin_blocking_mpi(MpiFunc::kSendrecv);
      wait_from_ = keys_.size();
      // Both halves are posted before the call counts either: in a
      // Sendrecv with itself the receive matches the send.
      post_send(action, action.peer);
      post_recv(action, action.recv_peer >= 0 ? action.recv_peer : action.peer);
      block();
      return;

    case Kind::kIsend:
    case Kind::kIrecv: {
      const MpiFunc func = action.kind == Kind::kIsend ? MpiFunc::kIsend
                                                       : MpiFunc::kIrecv;
      status_ = RankStatus::kInMpiBlocked;  // momentarily inside the call
      stack_.push(mpi_func_name(func));
      if (action.kind == Kind::kIsend) {
        post_send(action, action.peer);
      } else {
        post_recv(action, action.peer);
      }
      engine_.schedule_after(kCallOverhead, guarded([this] {
        stack_.pop();
        advance();
      }));
      return;
    }

    case Kind::kWaitAll:
      begin_blocking_mpi(MpiFunc::kWaitall);
      wait_from_ = 0;
      block();
      return;

    case Kind::kTestLoop:
      begin_test_loop(action);
      return;

    case Kind::kBarrier:
    case Kind::kBcast:
    case Kind::kReduce:
    case Kind::kAllreduce:
    case Kind::kGather:
    case Kind::kAllgather:
    case Kind::kAlltoall: {
      MpiFunc func;
      switch (action.kind) {
        case Kind::kBarrier: func = MpiFunc::kBarrier; break;
        case Kind::kBcast: func = MpiFunc::kBcast; break;
        case Kind::kReduce: func = MpiFunc::kReduce; break;
        case Kind::kAllreduce: func = MpiFunc::kAllreduce; break;
        case Kind::kGather: func = MpiFunc::kGather; break;
        case Kind::kAllgather: func = MpiFunc::kAllgather; break;
        default: func = MpiFunc::kAlltoall; break;
      }
      begin_blocking_mpi(func);
      comm_.enter_collective(func, rank_, action.root, action.bytes, *this);
      return;
    }

    case Kind::kWriteOutput: {
      // A short I/O burst in user code; completion pings the watchdog hook.
      status_ = RankStatus::kComputing;
      stack_.push("io_write_results");
      const auto bytes = action.bytes;
      const sim::Time io_begin = engine_.now();
      engine_.schedule_after(sample_compute(sim::from_millis(2), 0.3),
                             guarded([this, bytes, io_begin] {
                               emit_rank_span(engine_,
                                              obs::RankSpanEvent::Kind::kIo,
                                              rank_, "io_write_results",
                                              io_begin);
                               stack_.pop();
                               if (hooks_.on_io_write) {
                                 hooks_.on_io_write(rank_, bytes);
                               }
                               advance();
                             }));
      return;
    }

    case Kind::kHangCompute:
      status_ = RankStatus::kHungCompute;
      stack_.push(action.user_func.empty() ? "user_compute"
                                           : action.user_func);
      return;  // no completion event: the hang

    case Kind::kHangInMpi:
      begin_blocking_mpi(action.hang_func);
      return;  // the comm engine never releases it

    case Kind::kFinish:
      status_ = RankStatus::kFinished;
      finished_at_ = engine_.now();
      stack_.clear();
      stack_.push("main");
      stack_.push(mpi_func_name(MpiFunc::kFinalize));
      if (!worker_stacks_.empty()) set_worker_frames("omp_threads_joined");
      if (hooks_.on_finished) hooks_.on_finished(rank_);
      return;
  }
  PS_UNREACHABLE("unhandled action kind");
}

}  // namespace parastack::simmpi
