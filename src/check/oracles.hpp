#pragma once

#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "sim/time.hpp"

namespace parastack::check {

struct OracleOptions {
  /// Planted bug for self-testing the checker: warp the middle of the
  /// recorded event stream backwards by this much before it reaches the
  /// invariant sink. Nonzero must always produce a caught violation —
  /// pscheck --plant=clock proves the catch/shrink/repro loop end to end.
  sim::Time plant_clock_skew = 0;
  /// Worker count for the parallel side of the jobs-differential oracle.
  int jobs = 2;
  /// The campaign differential is the most expensive oracle (2 x runs
  /// simulations); sweeps that only want per-run invariants can skip it.
  bool campaign_differential = true;
};

/// One oracle's complaint about one scenario.
struct OracleFailure {
  std::string oracle;  ///< "invariants", "conservation", "determinism",
                       ///< "perf-determinism", "replay", "faults-off",
                       ///< "recovery-quiet", "jobs-differential",
                       ///< "perf-jobs", "rank-relabel", "planted-clock",
                       ///< "fleet-identity", "fleet-isolation"
  std::string detail;
};

struct SeedReport {
  Scenario scenario;
  std::vector<OracleFailure> failures;
  /// Simulated runs this report cost (sweep accounting).
  int runs_executed = 0;

  bool ok() const noexcept { return failures.empty(); }
};

/// Run every oracle against one scenario:
///   - stream invariants: the live telemetry stream satisfies the
///     InvariantSink state machines;
///   - conservation: post-run engine/comm ledger audits balance;
///   - determinism: re-running the identical config yields a byte-identical
///     journal;
///   - replay: re-emitting the recorded stream into a fresh journal
///     reproduces the live journal byte for byte;
///   - faults-off: with the scenario's faults stripped, ParaStack never
///     reports a hang (the timeout baseline and IO-watchdog may false
///     positive by design — the paper's Table 1 point — so only the
///     primary detector is held to silence). Skipped for model-drift
///     workloads (profiles with `decays` phases, i.e. HPL): the model
///     trains on their compute-heavy prefix and legitimately suspects the
///     communication-heavy tail — the paper's §6 limitation, demonstrated
///     by bench_limitation_load_imbalance;
///   - perf-determinism: the re-run's perf-counter snapshot (counters and
///     high-water gauges; wall-clock timers are excluded by construction)
///     is identical to the base run's — counters count simulated facts and
///     must be pure functions of the seed;
///   - recovery-quiet: with the scenario's faults stripped but its recovery
///     policy still armed, the run must finish in one attempt with zero
///     recovery overhead — an armed policy is free on healthy runs. The
///     determinism/replay/jobs-differential oracles above already run with
///     the sampled recovery spec in place, so recovery's multi-attempt
///     driver is held to the same byte-identity bar as everything else;
///   - jobs-differential: a --jobs=1 campaign and a --jobs=N campaign over
///     the same seeds write byte-identical journals;
///   - perf-jobs: those two campaigns, each summing into its own shared
///     perf registry, accumulate identical counter snapshots (atomic sums
///     and maxes are order-independent);
///   - rank-relabel: permuting rank labels permutes the identified faulty
///     set and leaves the transient-slowdown verdict unchanged
///     (metamorphic, on the pure pipeline functions);
///   - fleet-identity: a single-tenant fleet (src/fleet) writes tenant 0's
///     fleet_admit line and then exactly the base run's journal;
///   - fleet-isolation (fleet_jobs > 1 scenarios): per-tenant journal
///     streams are unchanged when an idle co-tenant joins the fleet.
SeedReport check_scenario(const Scenario& scenario,
                          const OracleOptions& options = {});

}  // namespace parastack::check
