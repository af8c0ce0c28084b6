#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simmpi/action.hpp"
#include "simmpi/world.hpp"
#include "util/rng.hpp"
#include "workloads/profile.hpp"

namespace parastack::workloads {

/// Executes a BenchmarkProfile on one rank: emits setup, then per-iteration
/// phase actions (compute + communication), then Finish. All sizing is
/// rescaled from the profile's reference scale to the actual job size.
///
/// One iteration's actions are built once, at construction, into a script
/// the program steps through with a cursor; per iteration only what varies
/// is patched in as each action is emitted (decaying compute means,
/// rotating roots) or skipped (`every`-gated comms, rank 0's progress
/// record). The stream is a pure function of (profile, rank, nranks).
class SyntheticProgram : public simmpi::Program {
 public:
  SyntheticProgram(std::shared_ptr<const BenchmarkProfile> profile,
                   simmpi::Rank rank, int nranks, util::Rng rng);

  simmpi::Action next() override;

 private:
  /// One scripted action and how it varies across iterations.
  struct Step {
    simmpi::Action action;
    double decay_base = 0.0;  ///< decays: compute mean before the decay
    std::uint32_t every = 1;  ///< emitted only when iter % every == 0
    bool decays = false;
    bool rotate_root = false;
  };

  void script_phase(const Phase& phase, int phase_index);
  void script_halo(const Phase& phase, simmpi::Action::Kind wait_kind,
                   int tag, std::uint32_t every);
  double compute_base(const Phase& phase) const;
  std::size_t scaled_bytes(const Phase& phase) const;
  simmpi::Rank neighbor(int index) const;

  std::shared_ptr<const BenchmarkProfile> profile_;
  simmpi::Rank rank_;
  int nranks_;
  double compute_factor_;
  double bytes_factor_;
  double alltoall_factor_;
  int pipeline_stride_ = 1;
  std::vector<Step> script_;
  std::size_t cursor_ = 0;
  std::uint64_t iter_ = 0;
  bool setup_done_ = false;
};

/// ProgramFactory adapter for World construction.
simmpi::ProgramFactory make_factory(
    std::shared_ptr<const BenchmarkProfile> profile);

}  // namespace parastack::workloads
