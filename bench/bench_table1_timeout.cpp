// Table 1: the fixed-(I, K) timeout baseline across platforms, benchmarks
// and input sizes at scale 256 — accuracy (AC), false-positive rate (FP)
// and average response delay (D) over erroneous runs. The point of the
// table: no fixed setting works everywhere.

#include "bench_common.hpp"

using namespace parastack;

namespace {

struct Column {
  const char* platform;
  workloads::Bench bench;
  const char* input;
};

const Column kColumns[] = {
    {"Tianhe-2", workloads::Bench::kFT, "D"},
    {"Tianhe-2", workloads::Bench::kFT, "E"},
    {"Tardis", workloads::Bench::kFT, "D"},
    {"Tardis", workloads::Bench::kLU, "D"},
    {"Tardis", workloads::Bench::kSP, "D"},
};

struct Setting {
  double interval_ms;
  int k;
};

const Setting kSettings[] = {{400, 5}, {400, 10}, {800, 5}, {800, 10}};

}  // namespace

int bench::table1_timeout() {
  const int nruns = bench::runs(6, 10);

  std::printf("%-22s", "setting \\ bench");
  for (const auto& column : kColumns) {
    char label[32];
    std::snprintf(label, sizeof label, "%s %s(%s)", column.platform,
                  workloads::bench_name(column.bench).data(), column.input);
    std::printf(" | %-18s", label);
  }
  std::printf("\n%-22s", "");
  for (std::size_t i = 0; i < std::size(kColumns); ++i) {
    std::printf(" | %5s %5s %6s", "AC", "FP", "D(s)");
  }
  std::printf("\n");

  for (const auto& setting : kSettings) {
    std::printf("I=%3.0fms, K=%2d        ", setting.interval_ms, setting.k);
    for (const auto& column : kColumns) {
      harness::CampaignConfig campaign;
      campaign.base = bench::erroneous_config(
          column.bench, column.input, 256,
          sim::platform_by_name(column.platform).value());
      campaign.base.detectors = {harness::DetectorSpec::make_timeout()};
      campaign.base.timeout_config().interval =
          sim::from_millis(setting.interval_ms);
      campaign.base.timeout_config().k = setting.k;
      campaign.runs = nruns;
      campaign.seed0 = 11000 + static_cast<std::uint64_t>(setting.k) * 131 +
                       static_cast<std::uint64_t>(setting.interval_ms);
      campaign.jobs = bench::jobs();
      const auto result = harness::run_timeout_campaign(campaign);
      std::printf(" | %5.2f %5.2f %6.1f", result.accuracy(),
                  result.false_positive_rate(),
                  result.detected > 0 ? result.delay_seconds.mean() : 0.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): the small setting (400ms, 5) false-"
      "alarms on FT(E)@Tianhe-2 and on Tardis, while larger settings "
      "pay multi-second delays — no single (I, K) fits all.\n");
  return 0;
}
