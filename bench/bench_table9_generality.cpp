// Table 9: ParaStack's generality across platforms, benchmarks and input
// sizes at scale 256 — the default (I initialized to 400 ms) vs P* (I
// initialized to a deliberately bad 10 ms): the runs-test auto-tuning
// rescues even a badly chosen initial interval.

#include "bench_common.hpp"

using namespace parastack;

namespace {

struct Row {
  const char* platform;
  workloads::Bench bench;
  const char* input;
};

const Row kRows[] = {
    {"Tianhe-2", workloads::Bench::kFT, "D"},
    {"Tianhe-2", workloads::Bench::kFT, "E"},
    {"Tardis", workloads::Bench::kFT, "D"},
    {"Tardis", workloads::Bench::kLU, "D"},
    {"Tardis", workloads::Bench::kSP, "D"},
};

}  // namespace

int bench::table9_generality() {
  const int nruns = bench::runs(6, 10);

  std::printf("%-20s | %5s %5s %6s %7s | %5s %5s %6s %7s\n", "platform bench",
              "AC", "FP", "D(s)", "I_end", "AC*", "FP*", "D*(s)", "I*_end");
  for (const auto& row : kRows) {
    double metrics[2][3] = {};
    double final_interval[2] = {};
    for (int variant = 0; variant < 2; ++variant) {
      harness::CampaignConfig campaign;
      campaign.base =
          bench::erroneous_config(row.bench, row.input, 256,
                                  sim::platform_by_name(row.platform).value());
      campaign.base.parastack_config().initial_interval =
          variant == 0 ? sim::from_millis(400) : sim::from_millis(10);
      campaign.runs = nruns;
      campaign.seed0 = 31000 + static_cast<std::uint64_t>(variant) * 17;
      campaign.jobs = bench::jobs();
      const auto result = harness::run_erroneous_campaign(campaign);
      metrics[variant][0] = result.accuracy();
      metrics[variant][1] = result.false_positive_rate();
      metrics[variant][2] = result.delay_seconds.mean();
      util::Summary intervals;
      for (const auto& run : result.results) {
        intervals.add(sim::to_millis(run.final_interval));
      }
      final_interval[variant] = intervals.mean();
    }
    std::printf("%-20s", (std::string(row.platform) + " " +
                          std::string(workloads::bench_name(row.bench)) + "(" +
                          row.input + ")")
                             .c_str());
    for (int variant = 0; variant < 2; ++variant) {
      std::printf(" | %5.2f %5.2f %6.1f %6.0fms", metrics[variant][0],
                  metrics[variant][1], metrics[variant][2],
                  final_interval[variant]);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape (paper): both variants reach AC=1.0 / FP=0 — "
      "the auto-tuned interval compensates for the bad 10ms start "
      "(watch I*_end grow via doubling).\n");
  return 0;
}
