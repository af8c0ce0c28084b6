#pragma once

#include <cstdint>

#include "harness/runner.hpp"

namespace perfbench {

/// Wall-clock self time that the traced run attributes, from outside the
/// program, to the layers it can wrap. Summed over a trial's attempts.
struct LayerTimes {
  std::uint64_t workloads_ns = 0;  ///< inside simmpi::Program::next (sampled)
  std::uint64_t actions = 0;       ///< Program::next calls
  std::uint64_t trace_ns = 0;      ///< inside MonitorSubstrate::trace_out_mpi
  std::uint64_t harness_setup_ns = 0;  ///< attempt entry -> first engine event
};

/// simmpi::CommEngine ledger of one trial, summed over its attempts.
struct CommCounts {
  std::uint64_t matches = 0;
  std::uint64_t sends_posted = 0;
  std::uint64_t collectives = 0;

  bool operator==(const CommCounts&) const = default;
};

/// harness::run_one rebuilt from the public pieces it uses (World,
/// StackInspector, HangDetector, MonitorNetwork, FaultInjector, the recovery
/// policy and the job lifecycle), drawing from the run seed in the same
/// order, with timing wrappers around the workload factory and the monitor
/// substrate. It covers the configurations the benchmark's workloads use --
/// ParaStack detectors on the monitor network, optional tree, tool faults
/// and recovery, no telemetry sink -- and fails loudly on any other.
parastack::harness::RunResult run_assembled(
    const parastack::harness::RunConfig& config, LayerTimes& times,
    CommCounts& comm);

}  // namespace perfbench
