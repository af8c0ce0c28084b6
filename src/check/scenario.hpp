#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "faults/fault.hpp"
#include "harness/runner.hpp"
#include "recover/spec.hpp"
#include "sim/time.hpp"
#include "workloads/catalog.hpp"

namespace parastack::check {

/// One randomly generated — but always valid — end-to-end scenario: a
/// workload shape, a platform preset, an optional application fault, and an
/// optional tool-side fault plan. Everything pscheck runs is described by
/// one of these, and every field round-trips through the repro string, so
/// any failure is reproducible from a single printed command line.
struct Scenario {
  std::uint64_t fuzz_seed = 1;  ///< the seed the generator expanded
  std::uint64_t run_seed = 1;   ///< RunConfig::seed derived from it

  workloads::Bench bench = workloads::Bench::kCG;
  std::string input = "C";
  int nranks = 16;
  int platform = 0;  ///< 0 = Tardis, 1 = Tianhe-2, 2 = Stampede
  /// Simulation horizon: the run's walltime is capped here so a fuzz sweep
  /// stays cheap no matter which workload was drawn.
  sim::Time horizon = 120 * sim::kSecond;

  faults::FaultType fault = faults::FaultType::kNone;
  bool background_slowdowns = true;
  bool use_monitor_network = true;
  bool with_timeout_detector = false;
  bool with_io_watchdog = false;

  // Tool-side fault plan (only meaningful with use_monitor_network).
  double tool_loss = 0.0;          ///< partial-count loss probability
  sim::Time tool_delay_mean = 0;   ///< mean extra delivery delay
  int tool_monitor_crashes = 0;    ///< scheduled random monitor deaths
  bool tool_lead_crash = false;    ///< crash the lead mid-run

  /// Monitor aggregation-tree fan-out; 0 = the flat star (only meaningful
  /// with use_monitor_network). Faults off, a tree run must produce the
  /// same detector stream as its star twin — the tree-vs-star oracle.
  int tree_fanout = 0;

  /// Recovery policy closing the detection loop: 0 = none (kill-only),
  /// 1 = ckpt, 2 = spare, 3 = team. `recovery_param` is the policy's one
  /// sampled knob (ckpt interval in seconds / spare count / replicas);
  /// `recovery_refault` re-arms the fault on that many restarted attempts
  /// (exercising give-up and recovery-races-a-second-hang paths).
  int recovery_policy = 0;
  int recovery_param = 0;
  int recovery_refault = 0;

  /// Trials for the jobs-differential oracle (jobs=1 vs jobs=N campaigns).
  int campaign_runs = 2;

  /// Fleet dimension: tenants sharing the detector service (1 = the base
  /// job alone; the fleet-identity oracle checks every scenario's base job
  /// as a one-tenant fleet). `fleet_arrival`: 0 = Poisson arrivals of the
  /// base job, 1 = trace-driven rotation through the workload catalog.
  int fleet_jobs = 1;
  int fleet_arrival = 0;

  bool operator==(const Scenario&) const = default;

  /// True when any application or tool fault is armed.
  bool any_fault() const noexcept {
    return fault != faults::FaultType::kNone || tool_faults_armed();
  }
  bool tool_faults_armed() const noexcept {
    return use_monitor_network &&
           (tool_loss > 0.0 || tool_delay_mean > 0 ||
            tool_monitor_crashes > 0 || tool_lead_crash);
  }

  /// The RecoverySpec the sampled recovery dimension describes (policy
  /// kNone when recovery_policy == 0).
  recover::RecoverySpec recovery_spec() const;
};

/// Expand a fuzz seed into a scenario. Deterministic: the same seed always
/// yields the same scenario, on every platform and standard library.
Scenario generate_scenario(std::uint64_t fuzz_seed);

/// The harness RunConfig this scenario describes (telemetry/probes unset;
/// the oracles attach their own).
harness::RunConfig to_run_config(const Scenario& scenario);

/// Compact single-token serialization for `pscheck --repro=...`:
/// `v1,seed=...,bench=CG,...`. parse_repro(to_repro(s)) == s for every
/// generated scenario (property-tested).
std::string to_repro(const Scenario& scenario);
std::optional<Scenario> parse_repro(const std::string& repro);

const char* platform_name(int platform) noexcept;

/// The input the fuzzer pairs with a bench (NPB class vs HPL order vs HPCG
/// grid). Mutations that change `bench` must re-pair the input through this,
/// or the workload catalog rejects the combination.
const char* default_fuzz_input(workloads::Bench bench) noexcept;

}  // namespace parastack::check
