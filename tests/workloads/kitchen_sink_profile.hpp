// A synthetic profile that uses every CommPattern, shared by the golden
// tests that pin the action stream and the journal stream.

#pragma once

#include <memory>

#include "workloads/profile.hpp"

namespace parastack::workloads {

/// Every CommPattern, with rotating roots on the rooted collectives,
/// decaying compute, `every` gating, 4-neighbour halos of all three styles
/// (and an odd neighbour count), stragglers and frequent progress records.
inline std::shared_ptr<const BenchmarkProfile> kitchen_sink_profile() {
  auto p = std::make_shared<BenchmarkProfile>();
  p->name = "SINK";
  p->iterations = 24;
  p->reference_ranks = 128;
  p->setup_time = sim::from_millis(50);
  p->output_every = 4;
  p->straggler_count = 3;
  p->straggler_factor = 1.7;
  p->phases = {
      {"sink_panel", sim::from_millis(40), 0.1, CommPattern::kBcast, 4096, 1,
       2, /*rotate_root=*/true, /*decays=*/true},
      {"sink_halo_b", sim::from_millis(3), 0.1, CommPattern::kHaloBlocking,
       8192, 1, 4},
      {"sink_halo_b3", sim::from_millis(3), 0.1, CommPattern::kHaloBlocking,
       8192, 2, 3},
      {"sink_halo_h", sim::from_millis(3), 0.1,
       CommPattern::kHaloHalfBlocking, 8192, 1, 4},
      {"sink_halo_w", sim::from_millis(3), 0.1, CommPattern::kHaloBusyWait,
       8192, 3, 4},
      {"", 0, 0.0, CommPattern::kPipelineRecv, 1024},
      {"sink_stage", sim::from_millis(1), 0.2, CommPattern::kPipelineSend,
       1024, 1, 2, false, false, /*class_invariant=*/true},
      {"", 0, 0.0, CommPattern::kPipelineRecvBack, 1024},
      {"sink_stage_b", sim::from_millis(1), 0.2,
       CommPattern::kPipelineSendBack, 1024},
      {"sink_sync", sim::from_millis(2), 0.1, CommPattern::kBarrier, 0, 5},
      {"sink_reduce", sim::from_millis(2), 0.1, CommPattern::kReduce, 64, 2,
       2, /*rotate_root=*/true},
      {"sink_gather", sim::from_millis(2), 0.1, CommPattern::kGather, 64, 3,
       2, /*rotate_root=*/true},
      {"sink_allreduce", sim::from_millis(2), 0.1, CommPattern::kAllreduce,
       16},
      {"sink_allgather", sim::from_millis(2), 0.1, CommPattern::kAllgather,
       32, 4},
      {"sink_alltoall", sim::from_millis(2), 0.1, CommPattern::kAlltoall,
       256, 6},
      {"sink_update", sim::from_millis(60), 0.08, CommPattern::kNone, 0, 1,
       2, false, /*decays=*/true},
  };
  return p;
}

}  // namespace parastack::workloads
