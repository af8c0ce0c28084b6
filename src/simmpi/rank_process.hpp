#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/action.hpp"
#include "simmpi/comm_engine.hpp"
#include "simmpi/stack.hpp"
#include "simmpi/types.hpp"
#include "util/rng.hpp"

namespace parastack::simmpi {

/// Coarse progress state of a simulated rank. IN_MPI/OUT_MPI as ParaStack
/// sees it is derived from the call stack, not from this enum — this enum
/// drives the simulation (what can delay the rank, what it does next).
enum class RankStatus : std::uint8_t {
  kNotStarted,
  kComputing,     ///< user code (OUT_MPI)
  kInMpiBlocked,  ///< blocked in an MPI call (IN_MPI)
  kBusyWaitOut,   ///< busy-wait loop, in the loop body (OUT_MPI)
  kBusyWaitIn,    ///< busy-wait loop, inside MPI_Test (IN_MPI)
  kHungCompute,   ///< injected computation hang (OUT_MPI forever)
  kFinished,      ///< ran to completion (rests in MPI_Finalize)
};

/// One simulated MPI process: executes its Program action by action,
/// maintaining a call stack the inspector can snapshot, and cooperating
/// with the CommEngine for every communication op.
class RankProcess : private RequestOwner {
 public:
  struct Hooks {
    /// Called once when the rank executes kFinish.
    std::function<void(Rank)> on_finished;
    /// Called when the rank completes a kWriteOutput action (the write
    /// activity IO-watchdog-style monitors observe).
    std::function<void(Rank, std::size_t)> on_io_write;
  };

  RankProcess(sim::Engine& engine, CommEngine& comm,
              const sim::Platform& platform, Rank rank, int node,
              std::unique_ptr<Program> program, util::Rng rng, Hooks hooks);

  /// Hybrid (MPI+OpenMP/pthreads) mode, paper §6. `threads` worker threads
  /// accompany the master. With `multiple` set (MPI_THREAD_SERIALIZED /
  /// MULTIPLE) communication rotates across threads; otherwise
  /// (MPI_THREAD_SINGLE / FUNNELED) only the master communicates. The
  /// §6-adapted state rule applies either way: the process is IN_MPI iff
  /// *some* thread is inside MPI. Call before start().
  void configure_threads(int threads, bool multiple);
  int thread_count() const noexcept {
    return 1 + static_cast<int>(worker_stacks_.size());
  }
  /// A worker thread's stack (0-based among workers).
  const CallStack& worker_stack(int worker) const;

  RankProcess(const RankProcess&) = delete;
  RankProcess& operator=(const RankProcess&) = delete;

  /// Begin executing the program (schedules the first action at now).
  void start();

  Rank rank() const noexcept { return rank_; }
  int node() const noexcept { return node_; }
  RankStatus status() const noexcept { return status_; }
  bool finished() const noexcept { return status_ == RankStatus::kFinished; }
  bool frozen() const noexcept { return frozen_; }
  sim::Time finished_at() const noexcept { return finished_at_; }

  /// The simulated call stack (snapshot it; it mutates as the rank runs).
  const CallStack& stack() const noexcept { return stack_; }

  /// ParaStack's IN_MPI/OUT_MPI classification. For hybrid ranks this is
  /// the §6 rule: IN_MPI iff at least one thread is inside MPI.
  bool in_mpi() const noexcept;

  /// Completed solver iterations (workloads bump this via iteration marks in
  /// their user_func naming; used by tests and fault placement).
  std::uint64_t actions_executed() const noexcept { return actions_; }

  /// Resume-from-checkpoint support: fast-forward the first `actions - 1`
  /// actions by clamping their compute durations to the floor (the RNG
  /// stream advances as the draw would, keeping the variate stream's shape;
  /// communication runs normally, so the replay prefix costs its comm time
  /// — the restore duration). The action in flight when the snapshot was
  /// taken re-executes at full cost: a rollback loses that partial work.
  /// Call before start().
  void set_replay_target(std::uint64_t actions) noexcept {
    replay_target_ = actions;
  }

  // --- Inspector interface -------------------------------------------------

  /// Charge the rank a ptrace-stop of `dt`. Only ranks that are actually
  /// progressing (computing or busy-waiting) lose time; a rank blocked in
  /// MPI was waiting anyway (DESIGN.md decision #5).
  void add_suspension(sim::Time dt);

  // --- Fault interface -----------------------------------------------------

  /// Node freeze: the rank stops making progress in whatever state it is in.
  /// Terminal.
  void freeze();

  /// Transient slowdown: multiply the duration of *subsequently started*
  /// compute segments. 1.0 = normal speed.
  void set_compute_factor(double factor) noexcept { compute_factor_ = factor; }
  double compute_factor() const noexcept { return compute_factor_; }

 private:
  /// Wrap a continuation so it becomes a no-op once the rank is frozen
  /// (freeze() orphans everything in flight). Template on the callable: the
  /// wrapper is a small concrete lambda that schedules into the engine's
  /// callback pool without ever materializing a std::function — the
  /// per-event allocation this used to cost was a top line in campaign
  /// profiles.
  template <typename F>
  auto guarded(F&& fn) {
    return [this, fn = std::forward<F>(fn)]() {
      if (frozen_) return;
      fn();
    };
  }
  /// Charge any accumulated ptrace-stop debt: reschedules `retry` after the
  /// debt and returns true, or returns false when there is nothing to pay.
  /// Template for the same reason as guarded(): it runs before every segment
  /// completion, and the almost-always-empty check must not pay for a
  /// std::function conversion of the retry continuation.
  template <typename F>
  bool pay_suspension(F&& retry) {
    if (suspend_debt_ <= 0) return false;
    const sim::Time debt = suspend_debt_;
    suspend_debt_ = 0;
    engine_.schedule_after(debt, guarded(std::forward<F>(retry)));
    return true;
  }
  void advance();
  void dispatch(const Action& action);
  sim::Time sample_compute(sim::Time mean, double cv);
  void set_worker_frames(std::string_view leaf);
  void begin_compute(const Action& action);
  void finish_compute();
  void begin_blocking_mpi(MpiFunc func);
  void end_blocking_mpi();
  void begin_test_loop(const Action& action);
  void test_loop_body();
  void test_loop_poll();
  bool outstanding_complete() const;
  /// Post a request under the next slot of keys_.
  void post_send(const Action& action, Rank dst);
  void post_recv(const Action& action, Rank src);
  /// The wait path of the blocking point-to-point calls: block() on the
  /// requests from slot wait_from_ on. wake() schedules the one resume
  /// event once every one of their keys is known.
  void block();
  void on_completion_key(std::uint32_t slot, sim::Key key) override;
  void on_collective_done() override;
  void wake();

  sim::Engine& engine_;
  CommEngine& comm_;
  const sim::Platform& platform_;
  Rank rank_;
  int node_;
  std::unique_ptr<Program> program_;
  util::Rng rng_;
  Hooks hooks_;

  RankStatus status_ = RankStatus::kNotStarted;
  CallStack stack_;
  std::vector<CallStack> worker_stacks_;
  bool thread_multiple_ = false;
  int next_comm_thread_ = 0;  ///< rotates over [0, threads] in MULTIPLE mode
  CallStack* mpi_stack_ = nullptr;  ///< where the current MPI frames live
  /// Completion keys of the live requests, by slot (kUnmatchedKey until
  /// matched): the Isend/Irecv requests, then those of the blocking call in
  /// progress. A wait that returns drops the slots it waited on; every one
  /// of their keys is fixed by then, so no slot is reused while its op is
  /// still queued.
  std::vector<sim::Key> keys_;
  std::string_view busy_func_;
  double busy_backoff_ = 1.0;
  // Span bookkeeping for telemetry (obs::RankSpanEvent). Plain stores on
  // the hot path; events are built only when a sink wants rank spans.
  sim::Time compute_span_begin_ = 0;
  std::string_view compute_span_func_;
  sim::Time mpi_span_begin_ = 0;
  std::string_view mpi_span_func_;
  sim::Time busy_span_begin_ = 0;
  bool frozen_ = false;
  double compute_factor_ = 1.0;
  /// The cv the cached combined_cv_ was built from.
  double combined_cv_for_ = -1.0;
  double combined_cv_ = 0.0;
  sim::Time suspend_debt_ = 0;
  sim::Time finished_at_ = -1;
  std::uint64_t actions_ = 0;
  std::uint64_t replay_target_ = 0;
  /// The blocking call in progress waits on the slots from wait_from_ on:
  /// awaiting_ of them have no key yet, and wake_key_ is the latest of the
  /// keys that are fixed.
  std::size_t wait_from_ = 0;
  int awaiting_ = 0;
  sim::Key wake_key_;
};

}  // namespace parastack::simmpi
