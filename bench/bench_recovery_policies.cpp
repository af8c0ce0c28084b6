// Recovery-policy study (detect -> recover loop, DESIGN.md §13): once a
// detector kills a hung job, what does each fault-tolerance policy buy?
// The sweep crosses detection latency (ParaStack's fast statistical kill
// vs. two fixed-timeout baselines) with the recovery policies — kill-only,
// checkpoint/restart, warm spare-rank failover, and team replication —
// and reports the completion rate, the absolute completion time, and the
// Service Units the machine bills for the whole multi-attempt occupancy.
//
// The headline pattern: a faster kill shrinks every policy's bill (less
// wasted progress to replay), while kill-only always forfeits the job —
// its SU column is pure loss at any latency.
//
// The closing section is the acceptance scenario: a lead-monitor crash
// plus report loss blinds ParaStack before the hang strikes, so the kill
// arrives second-hand from the degraded-mode fallback. Team replication
// still completes the job through that verdict; kill-only burns the slot.

#include <cstring>

#include "bench_common.hpp"
#include "recover/spec.hpp"
#include "sched/scheduler.hpp"

using namespace parastack;

namespace {

constexpr int kRanks = 64;  // 2 Tardis nodes
constexpr std::uint64_t kSeed0 = 91000;

struct LatencyPoint {
  const char* label;
  bool parastack = true;  ///< false: fixed-timeout baseline
  double timeout_interval_ms = 0.0;
  int timeout_k = 0;
};

// Three detection-latency regimes: the statistical detector (seconds) and
// two fixed timeouts whose latency is roughly interval x K after onset.
constexpr LatencyPoint kLatencies[] = {
    {"parastack", true},
    {"timeout-30s", false, 2000, 15},
    {"timeout-120s", false, 8000, 15},
};

struct PolicyPoint {
  const char* label;
  const char* spec;  ///< nullptr = kill-only (recovery off)
};

constexpr PolicyPoint kPolicies[] = {
    {"none", nullptr},
    {"ckpt", "ckpt:30"},
    {"spare", "spare:2"},
    {"team", "team:2"},
};

harness::RunConfig base_config(const LatencyPoint& latency) {
  auto config = bench::erroneous_config(
      workloads::Bench::kLU,
      workloads::default_input(workloads::Bench::kLU, kRanks), kRanks,
      sim::Platform::tardis());
  config.fault_window_lo = 0.3;
  config.fault_window_hi = 0.5;
  if (!latency.parastack) {
    core::TimeoutDetector::Config timeout;
    timeout.interval = sim::from_millis(latency.timeout_interval_ms);
    timeout.k = latency.timeout_k;
    config.detectors = {harness::DetectorSpec::make_timeout(timeout)};
  }
  return config;
}

sched::JobTicket ticket_for(sim::Time walltime) {
  sched::JobTicket ticket;
  ticket.nodes = kRanks / sim::Platform::tardis().cores_per_node;
  ticket.cores_per_node = sim::Platform::tardis().cores_per_node;
  ticket.walltime = walltime;
  ticket.job_name = "lu_recovery";
  return ticket;
}

struct CellStats {
  int completed = 0;
  util::Summary finish_seconds;    ///< completed runs only
  util::Summary detect_latency_s;  ///< first kill - fault onset
  util::Summary service_units;
};

CellStats run_cell(const LatencyPoint& latency, const PolicyPoint& policy,
                   int nruns) {
  std::vector<harness::RunResult> results(static_cast<std::size_t>(nruns));
  harness::parallel_for(nruns, bench::jobs(), [&](int i) {
    auto config = base_config(latency);
    config.seed = harness::derive_trial_seed(kSeed0, i);
    if (policy.spec != nullptr) {
      config.recovery = *recover::parse_recovery(policy.spec);
    }
    results[static_cast<std::size_t>(i)] = harness::run_one(config);
  });

  CellStats stats;
  for (const auto& result : results) {
    const auto ticket = ticket_for(result.walltime);
    const auto charge = sched::settle_recovered(
        ticket, result.finish_time,
        result.completed ? std::optional<sim::Time>()
                         : std::optional<sim::Time>(result.end_time),
        result.recovery.gave_up, result.recovery.su_multiplier);
    stats.service_units.add(charge.service_units);
    if (result.completed) {
      ++stats.completed;
      stats.finish_seconds.add(sim::to_seconds(*result.finish_time));
    }
    if (result.fault.activated()) {
      stats.detect_latency_s.add(sim::to_seconds(
          result.first_attempt_end_time() - result.fault.activated_at));
    }
  }
  return stats;
}

void acceptance_scenario(int nruns) {
  // Lead crash + non-lead crash at 30 s kill every monitor on the 2-node
  // world, and 5% report loss degrades whatever partial traffic remains;
  // the hang strikes at 70 s, blind to ParaStack. The degraded-mode
  // fallback timeout delivers the (second-hand) kill.
  std::printf(
      "\nacceptance: lead crash + 5%% report loss, hang at 70 s "
      "(degraded fallback kill)\n");
  std::printf("%-8s %10s %12s %12s %10s\n", "policy", "completed", "finish(s)",
              "SU billed", "SU wasted");
  for (const char* policy : {"none", "team:2"}) {
    std::vector<harness::RunResult> results(static_cast<std::size_t>(nruns));
    harness::parallel_for(nruns, bench::jobs(), [&](int i) {
      auto config = base_config(kLatencies[0]);
      config.fault_window_lo = 0.0;
      config.fault_window_hi = 0.0;
      config.fault_trigger_lo = 70 * sim::kSecond;
      config.fault_trigger_hi = 70 * sim::kSecond;
      config.tool_faults.lead_crash_at = 30 * sim::kSecond;
      config.tool_faults.monitor_crashes.push_back(
          {.monitor = 1, .at = 30 * sim::kSecond});
      config.tool_faults.loss_probability = 0.05;
      config.degraded_fallback_timeout = true;
      config.seed = harness::derive_trial_seed(kSeed0 + 500, i);
      if (std::strcmp(policy, "none") != 0) {
        config.recovery = *recover::parse_recovery(policy);
      }
      results[static_cast<std::size_t>(i)] = harness::run_one(config);
    });
    int completed = 0;
    util::Summary finish_seconds;
    util::Summary su_billed;
    util::Summary su_wasted;
    for (const auto& result : results) {
      const auto ticket = ticket_for(result.walltime);
      const auto charge = sched::settle_recovered(
          ticket, result.finish_time,
          result.completed ? std::optional<sim::Time>()
                           : std::optional<sim::Time>(result.end_time),
          result.recovery.gave_up, result.recovery.su_multiplier);
      su_billed.add(charge.service_units);
      // An incomplete job's whole bill is wasted work; a completed one
      // wasted nothing the user has to resubmit for.
      su_wasted.add(result.completed ? 0.0 : charge.service_units);
      if (result.completed) {
        ++completed;
        finish_seconds.add(sim::to_seconds(*result.finish_time));
      }
    }
    std::printf("%-8s %6d/%-3d %12.1f %12.1f %10.1f\n", policy, completed,
                nruns, completed > 0 ? finish_seconds.mean() : 0.0,
                su_billed.mean(), su_wasted.mean());
    std::fflush(stdout);
  }
}

}  // namespace

int bench::recovery_policies() {
  const int nruns = bench::runs(6, 24);

  std::printf(
      "\nLU @%d ranks (Tardis), %d erroneous runs per cell, "
      "hang at 30-50%% of the clean run\n",
      kRanks, nruns);
  std::printf("%-12s %-8s %10s %10s %12s %12s\n", "detector", "policy",
              "completed", "detect(s)", "finish(s)", "SU billed");
  for (const auto& latency : kLatencies) {
    for (const auto& policy : kPolicies) {
      const auto stats = run_cell(latency, policy, nruns);
      std::printf("%-12s %-8s %6d/%-3d %10.1f %12.1f %12.1f\n", latency.label,
                  policy.label, stats.completed, nruns,
                  stats.detect_latency_s.mean(),
                  stats.completed > 0 ? stats.finish_seconds.mean() : 0.0,
                  stats.service_units.mean());
      std::fflush(stdout);
    }
  }

  acceptance_scenario(nruns);
  return 0;
}
