#include "check/shrink.hpp"

#include <vector>

namespace parastack::check {

namespace {

/// Candidate simplifications for one scenario, roughly biggest-win first:
/// structural drops before numeric halvings, so the typical shrink reaches
/// a small scenario in few predicate calls.
std::vector<Scenario> candidates(const Scenario& s) {
  std::vector<Scenario> out;
  const auto push = [&out, &s](auto&& mutate) {
    Scenario c = s;
    mutate(c);
    if (!(c == s)) out.push_back(std::move(c));
  };

  push([](Scenario& c) { c.fault = faults::FaultType::kNone; });
  push([](Scenario& c) {
    c.tool_loss = 0.0;
    c.tool_delay_mean = 0;
    c.tool_monitor_crashes = 0;
    c.tool_lead_crash = false;
  });
  push([](Scenario& c) { c.tool_loss = 0.0; });
  push([](Scenario& c) { c.tool_delay_mean = 0; });
  push([](Scenario& c) { c.tool_monitor_crashes = 0; });
  push([](Scenario& c) { c.tool_lead_crash = false; });
  push([](Scenario& c) { c.tree_fanout = 0; });  // back to the flat star
  push([](Scenario& c) {
    // Back to kill-only: drops the whole multi-attempt recovery driver.
    c.recovery_policy = 0;
    c.recovery_param = 0;
    c.recovery_refault = 0;
  });
  push([](Scenario& c) { c.recovery_refault = 0; });
  push([](Scenario& c) {
    // Back to a single job: skips the fleet-isolation oracle.
    c.fleet_jobs = 1;
    c.fleet_arrival = 0;
  });
  if (s.fleet_jobs > 2) {
    push([](Scenario& c) { c.fleet_jobs = 2; });
  }
  push([](Scenario& c) { c.with_timeout_detector = false; });
  push([](Scenario& c) { c.with_io_watchdog = false; });
  push([](Scenario& c) { c.background_slowdowns = false; });
  push([](Scenario& c) {
    // Dropping the network also disarms every tool fault and the tree.
    c.use_monitor_network = false;
    c.tool_loss = 0.0;
    c.tool_delay_mean = 0;
    c.tool_monitor_crashes = 0;
    c.tool_lead_crash = false;
    c.tree_fanout = 0;
  });
  push([](Scenario& c) { c.platform = 0; });
  push([](Scenario& c) {
    c.bench = workloads::kAllBenches[0];
    c.input = default_fuzz_input(c.bench);  // re-pair: HPL/HPCG inputs are
                                            // not NPB classes
  });
  if (s.nranks > 4) {
    push([](Scenario& c) { c.nranks = std::max(4, c.nranks / 2); });
    push([](Scenario& c) { c.nranks = 4; });
  }
  if (s.horizon > 30 * sim::kSecond) {
    push([](Scenario& c) {
      c.horizon = std::max<sim::Time>(30 * sim::kSecond, c.horizon / 2);
    });
  }
  if (s.campaign_runs > 1) {
    push([](Scenario& c) { c.campaign_runs = 1; });
  }
  return out;
}

}  // namespace

ShrinkResult shrink_scenario(const Scenario& failing,
                             const FailurePredicate& fails, int budget) {
  ShrinkResult result;
  result.scenario = failing;

  bool progressed = true;
  while (progressed && result.attempts < budget) {
    progressed = false;
    for (const Scenario& candidate : candidates(result.scenario)) {
      if (result.attempts >= budget) break;
      ++result.attempts;
      if (fails(candidate)) {
        result.scenario = candidate;
        ++result.accepted;
        progressed = true;
        break;  // restart the pass from the new, smaller scenario
      }
    }
  }
  return result;
}

}  // namespace parastack::check
