#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "simmpi/comm_engine.hpp"
#include "simmpi/rank_process.hpp"
#include "util/rng.hpp"

namespace parastack::simmpi {

/// Builds a per-rank instruction stream. Invoked once per rank at world
/// construction with an independent RNG stream.
using ProgramFactory = std::function<std::unique_ptr<Program>(
    Rank rank, int nranks, util::Rng rng)>;

struct WorldConfig {
  int nranks = 16;
  sim::Platform platform = sim::Platform::tardis();
  std::uint64_t seed = 1;
  /// Model the platform's background transient slowdowns (paper §3.3).
  /// Campaigns leave this on; micro-tests switch it off for determinism of
  /// individual timings.
  bool background_slowdowns = true;

  /// Hybrid MPI+threads mode (paper §6): worker threads per rank beyond the
  /// master, and whether communication may happen on any thread
  /// (MPI_THREAD_SERIALIZED/MULTIPLE) or only the master (FUNNELED).
  int threads_per_rank = 1;
  bool mpi_thread_multiple = false;

  /// Absolute virtual time this world begins at. The engine clock is
  /// advanced here before anything is scheduled, so a restart attempt's
  /// events land at their true position on the job timeline and telemetry
  /// time stays monotone across attempts. 0 (the default) is a no-op.
  sim::Time start_time = 0;
  /// Per-rank replay targets (empty = cold start). Rank r fast-forwards
  /// through its first replay_actions[r] - 1 actions with near-zero compute
  /// cost — communication still executes, so the replay prefix's comm time
  /// is the restore duration — then runs at full cost. This is how a
  /// recovery attempt resumes from a progress snapshot.
  std::vector<std::uint64_t> replay_actions;
};

/// Per-rank progress capture (a checkpoint): enough to rebuild an
/// equivalent world that resumes from here via WorldConfig::replay_actions.
struct WorldSnapshot {
  sim::Time taken_at = 0;
  std::vector<std::uint64_t> rank_actions;

  bool empty() const noexcept { return rank_actions.empty(); }
};

/// A simulated MPI job: N ranks placed contiguously on nodes
/// (cores_per_node ranks per node, matching the schedulers' default
/// mapping the paper relies on in §5), one shared CommEngine, one Engine.
class World {
 public:
  World(WorldConfig config, const ProgramFactory& factory);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Engine& engine() noexcept { return engine_; }
  const sim::Engine& engine() const noexcept { return engine_; }
  CommEngine& comm() noexcept { return *comm_; }
  const CommEngine& comm() const noexcept { return *comm_; }
  const sim::Platform& platform() const noexcept { return config_.platform; }
  const WorldConfig& config() const noexcept { return config_; }

  int nranks() const noexcept { return config_.nranks; }
  int nnodes() const noexcept { return nnodes_; }
  int node_of(Rank r) const;
  /// Ranks hosted on `node`, in rank order.
  std::vector<Rank> ranks_on_node(int node) const;

  RankProcess& rank(Rank r);

  /// Launch all ranks (schedules their first actions).
  void start();

  /// Capture every rank's progress (completed-action counts) right now.
  /// Feeding the result into a fresh world's WorldConfig::replay_actions
  /// resumes the job from this point.
  WorldSnapshot snapshot_progress() const;

  bool all_finished() const noexcept { return finished_ == config_.nranks; }
  /// Virtual time when the last rank finished; -1 if the job has not.
  sim::Time finish_time() const noexcept { return finish_time_; }

  /// OUT_MPI significance right now across all ranks (paper's S_out).
  double sout() const;

  /// When any rank last completed a write (virtual time; -1 = never) and
  /// the cumulative bytes written — the signal IO-watchdog-style monitors
  /// observe (paper §1's IO-Watchdog discussion).
  sim::Time last_io_write() const noexcept { return last_io_write_; }
  std::uint64_t io_bytes_written() const noexcept { return io_bytes_; }

  /// Step the engine until the job completes, the clock passes `max_time`,
  /// or no events remain (a hang with no monitor attached). Returns true if
  /// the job completed.
  bool run_until_done(sim::Time max_time);

 private:
  void schedule_node_slowdown_cycle(int node);

  WorldConfig config_;
  int nnodes_;
  sim::Engine engine_;
  util::Rng rng_;
  std::unique_ptr<CommEngine> comm_;
  std::vector<std::unique_ptr<RankProcess>> ranks_;
  std::vector<util::Rng> node_noise_rng_;
  int finished_ = 0;
  sim::Time finish_time_ = -1;
  sim::Time last_io_write_ = -1;
  std::uint64_t io_bytes_ = 0;
};

}  // namespace parastack::simmpi
