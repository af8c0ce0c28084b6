#include "workloads/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace parastack::workloads {

using simmpi::Action;

SyntheticProgram::SyntheticProgram(
    std::shared_ptr<const BenchmarkProfile> profile, simmpi::Rank rank,
    int nranks, util::Rng /*rng*/)
    : profile_(std::move(profile)), rank_(rank), nranks_(nranks) {
  PS_CHECK(profile_ != nullptr, "null profile");
  PS_CHECK(!profile_->phases.empty(), "profile needs phases");
  const double ratio = static_cast<double>(profile_->reference_ranks) /
                       static_cast<double>(nranks_);
  compute_factor_ = std::pow(ratio, profile_->compute_scaling_exp);
  bytes_factor_ = std::pow(ratio, profile_->bytes_scaling_exp);
  // Capped: running far below the reference scale would otherwise inflate
  // per-pair alltoall payloads quadratically into absurd messages.
  alltoall_factor_ =
      std::min(std::pow(ratio, profile_->alltoall_scaling_exp), 8.0);
  pipeline_stride_ = std::max(1, nranks_ / profile_->reference_ranks);

  for (std::size_t i = 0; i < profile_->phases.size(); ++i) {
    script_phase(profile_->phases[i], static_cast<int>(i));
  }
  if (profile_->output_every > 0 && rank_ == 0) {
    script_.push_back({Action::write_output(), 0.0,
                       static_cast<std::uint32_t>(profile_->output_every)});
  }
}

double SyntheticProgram::compute_base(const Phase& phase) const {
  double mean = static_cast<double>(phase.compute_mean) * compute_factor_;
  if (rank_ < profile_->straggler_count) mean *= profile_->straggler_factor;
  return mean;
}

std::size_t SyntheticProgram::scaled_bytes(const Phase& phase) const {
  const double factor = phase.comm == CommPattern::kAlltoall
                            ? alltoall_factor_
                            : bytes_factor_;
  const double scaled = static_cast<double>(phase.bytes) * factor;
  return std::max<std::size_t>(static_cast<std::size_t>(scaled), 8);
}

simmpi::Rank SyntheticProgram::neighbor(int index) const {
  // 1D ring neighbors first; a 2D profile adds +/- sqrt(P) partners.
  const auto p = nranks_;
  const auto stride = std::max(
      1, static_cast<int>(std::lround(std::sqrt(static_cast<double>(p)))));
  switch (index) {
    case 0: return (rank_ + 1) % p;
    case 1: return (rank_ - 1 + p) % p;
    case 2: return (rank_ + stride) % p;
    case 3: return (rank_ - stride + p) % p;
    default: PS_UNREACHABLE("halo supports at most 4 neighbors");
  }
}

void SyntheticProgram::script_halo(const Phase& phase, Action::Kind wait_kind,
                                   int tag, std::uint32_t every) {
  const std::size_t bytes = scaled_bytes(phase);
  const int neighbors = std::min(phase.halo_neighbors, 4);
  const auto add = [&](const Action& action) {
    script_.push_back({action, 0.0, every});
  };
  if (wait_kind == Action::Kind::kSendrecv) {
    // Shift-style blocking exchange (send +direction, receive -direction,
    // then the reverse), the deadlock-free schedule real halo codes use.
    // Neighbor indices come in +/- pairs: (0,1) on the ring, (2,3) at
    // +/- stride.
    for (int pair = 0; pair + 1 < neighbors; pair += 2) {
      add(Action::sendrecv_shift(neighbor(pair), neighbor(pair + 1), tag,
                                 bytes));
      add(Action::sendrecv_shift(neighbor(pair + 1), neighbor(pair), tag,
                                 bytes));
    }
    return;
  }
  for (int i = 0; i < neighbors; ++i) {
    add(Action::irecv(neighbor(i), tag, bytes));
  }
  for (int i = 0; i < neighbors; ++i) {
    add(Action::isend(neighbor(i), tag, bytes));
  }
  add(wait_kind == Action::Kind::kWaitAll ? Action::wait_all()
                                          : Action::test_loop(phase.user_func));
}

void SyntheticProgram::script_phase(const Phase& phase, int phase_index) {
  if (phase.compute_mean > 0) {
    Step step;
    const double base = compute_base(phase);
    step.action = Action::compute(static_cast<sim::Time>(base),
                                  phase.compute_cv, phase.user_func);
    step.decay_base = base;
    step.decays = phase.decays;
    script_.push_back(step);
  }
  if (phase.comm == CommPattern::kNone) return;

  const auto every = static_cast<std::uint32_t>(std::max(phase.every, 1));
  const std::size_t bytes = scaled_bytes(phase);
  const int tag = phase_index + 100;
  const auto add = [&](const Action& action) {
    script_.push_back({action, 0.0, every});
  };
  const auto add_rooted = [&](Action::Kind kind) {
    script_.push_back({Action::collective(kind, bytes), 0.0, every, false,
                       phase.rotate_root});
  };
  using Kind = Action::Kind;
  switch (phase.comm) {
    case CommPattern::kHaloBlocking:
      script_halo(phase, Kind::kSendrecv, tag, every);
      break;
    case CommPattern::kHaloHalfBlocking:
      script_halo(phase, Kind::kWaitAll, tag, every);
      break;
    case CommPattern::kHaloBusyWait:
      script_halo(phase, Kind::kTestLoop, tag, every);
      break;
    // Pipeline partners live in *different* phases, so they share fixed
    // tags (forward = 7, backward = 8) instead of the per-phase tag.
    // The dependency distance grows with the job (pipeline_stride_) so the
    // wavefront depth stays bounded — the effect of the real benchmarks'
    // 2D decompositions, whose sweep depth grows like sqrt(P), not P.
    case CommPattern::kPipelineRecv:
      if (rank_ >= pipeline_stride_)
        add(Action::recv(rank_ - pipeline_stride_, 7, bytes));
      break;
    case CommPattern::kPipelineSend:
      if (rank_ + pipeline_stride_ < nranks_)
        add(Action::send(rank_ + pipeline_stride_, 7, bytes));
      break;
    case CommPattern::kPipelineRecvBack:
      if (rank_ + pipeline_stride_ < nranks_)
        add(Action::recv(rank_ + pipeline_stride_, 8, bytes));
      break;
    case CommPattern::kPipelineSendBack:
      if (rank_ >= pipeline_stride_)
        add(Action::send(rank_ - pipeline_stride_, 8, bytes));
      break;
    case CommPattern::kBarrier:
      add(Action::collective(Kind::kBarrier, 0));
      break;
    case CommPattern::kBcast:
      add_rooted(Kind::kBcast);
      break;
    case CommPattern::kReduce:
      add_rooted(Kind::kReduce);
      break;
    case CommPattern::kAllreduce:
      add(Action::collective(Kind::kAllreduce, bytes));
      break;
    case CommPattern::kGather:
      add_rooted(Kind::kGather);
      break;
    case CommPattern::kAllgather:
      add(Action::collective(Kind::kAllgather, bytes));
      break;
    case CommPattern::kAlltoall:
      add(Action::collective(Kind::kAlltoall, bytes));
      break;
    case CommPattern::kNone:
      break;
  }
}

Action SyntheticProgram::next() {
  if (!setup_done_) {
    setup_done_ = true;
    if (profile_->setup_time > 0) {
      return Action::compute(profile_->setup_time, 0.1, "setup_init_arrays");
    }
  }
  while (iter_ < profile_->iterations) {
    if (cursor_ == script_.size()) {
      cursor_ = 0;
      ++iter_;
      continue;
    }
    const Step& step = script_[cursor_++];
    if (step.every > 1 && iter_ % step.every != 0) continue;
    Action action = step.action;
    if (step.decays) {
      // Shrinking trailing matrix. Floored: per-iteration work never quite
      // collapses (blocking keeps late panels non-trivial), which also
      // keeps the S_crout distribution roughly stationary across the run.
      const double remaining =
          1.0 - static_cast<double>(iter_) /
                    static_cast<double>(profile_->iterations);
      action.compute_mean = static_cast<sim::Time>(
          step.decay_base * std::max(remaining * remaining, 0.2));
    }
    if (step.rotate_root) {
      action.root = static_cast<simmpi::Rank>(
          iter_ % static_cast<std::uint64_t>(nranks_));
    }
    return action;
  }
  return Action::finish();
}

simmpi::ProgramFactory make_factory(
    std::shared_ptr<const BenchmarkProfile> profile) {
  return [profile](simmpi::Rank rank, int nranks, util::Rng rng)
             -> std::unique_ptr<simmpi::Program> {
    return std::make_unique<SyntheticProgram>(profile, rank, nranks, rng);
  };
}

}  // namespace parastack::workloads
