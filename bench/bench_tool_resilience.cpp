// Tool-resilience study (robustness extension, DESIGN.md §8): detection
// accuracy and response-delay degradation when the *tool itself* is
// faulty — partial-sample loss on the monitor overlay, non-lead monitor
// crashes, and a lead crash with failover. The paper assumes a healthy
// tool; this sweep quantifies how far that assumption can erode before
// ParaStack's accuracy does.
//
// Sweep: loss rate {0, 2%, 5%, 10%} x monitor crashes {0, 1}, plus a
// lead-crash row, each an erroneous compute-hang campaign. The headline
// cell (5% loss + one non-lead crash) must keep detection >= 95% with no
// new false positives.

#include "bench_common.hpp"

using namespace parastack;

namespace {

struct Cell {
  double loss = 0.0;
  int crashes = 0;
  bool lead_crash = false;
};

void run_cell(const Cell& cell, int nranks, const sim::Platform& platform,
              int nruns, std::uint64_t seed0) {
  harness::CampaignConfig campaign;
  campaign.base = bench::erroneous_config(
      workloads::Bench::kLU,
      workloads::default_input(workloads::Bench::kLU, nranks), nranks,
      platform);
  campaign.runs = nruns;
  campaign.seed0 = seed0;
  campaign.jobs = bench::jobs();

  faults::ToolFaultPlan& plan = campaign.base.tool_faults;
  plan.loss_probability = cell.loss;
  for (int i = 0; i < cell.crashes; ++i) {
    faults::MonitorCrash crash;
    crash.monitor = -1;  // seed-chosen non-lead monitor
    crash.at = 40 * sim::kSecond;
    plan.monitor_crashes.push_back(crash);
  }
  if (cell.lead_crash) plan.lead_crash_at = 40 * sim::kSecond;

  const auto result = harness::run_erroneous_campaign(campaign);
  std::printf("%5.0f%% %7d %5s %6.2f %5d %4d %9.1f %7llu %9llu %6llu %8llu\n",
              cell.loss * 100.0, cell.crashes, cell.lead_crash ? "yes" : "no",
              result.accuracy(), result.missed, result.false_positives,
              result.delay_seconds.mean(),
              static_cast<unsigned long long>(result.monitor_crashes),
              static_cast<unsigned long long>(result.lead_failovers),
              static_cast<unsigned long long>(result.partials_lost),
              static_cast<unsigned long long>(result.sample_retries));
  std::fflush(stdout);
}

}  // namespace

int bench::tool_resilience() {
  const int nranks = 128;  // 8 Stampede nodes -> 8 monitors, 7 non-lead
  const auto platform = sim::platform_by_name("Stampede").value();
  const int nruns = bench::runs(4, 40);

  std::printf("\nLU @%d ranks (Stampede), %d erroneous runs per cell\n", nranks,
              nruns);
  std::printf("%5s %7s %5s %6s %5s %4s %9s %7s %9s %6s %8s\n", "loss",
              "crashes", "lead", "AC", "miss", "FP", "delay(s)", "mcrash",
              "failover", "lost", "retries");

  std::uint64_t seed0 = 87000;
  for (const double loss : {0.0, 0.02, 0.05, 0.10}) {
    for (const int crashes : {0, 1}) {
      Cell cell;
      cell.loss = loss;
      cell.crashes = crashes;
      run_cell(cell, nranks, platform, nruns, seed0);
      seed0 += 1000;
    }
  }
  Cell lead;
  lead.loss = 0.05;
  lead.lead_crash = true;
  run_cell(lead, nranks, platform, nruns, seed0);

  std::printf(
      "\nExpected shape: AC stays >= 0.95 with zero FP through 5%% "
      "loss + one monitor crash; retries absorb the loss and the "
      "lead-crash row pays only the re-registration latency.\n");
  return 0;
}
