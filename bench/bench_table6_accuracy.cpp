// Table 6 (+ §7.1-III large-scale runs): hang-detection accuracy AC_h over
// erroneous runs, per benchmark, at scales 256 (Tardis), 1024 (Tianhe-2 and
// Stampede), and HPL up to 16384 ranks. Also prints the clean-run time the
// paper lists alongside.

#include "bench_common.hpp"

using namespace parastack;

namespace {

void campaign_block(const char* platform_name, int nranks,
                    std::initializer_list<workloads::Bench> benches, int nruns,
                    std::uint64_t seed0) {
  const auto platform = sim::platform_by_name(platform_name).value();
  std::printf("\n-- %s @%d ranks, %d erroneous runs each --\n", platform_name,
              nranks, nruns);
  std::printf("%-8s %9s %8s %8s %8s\n", "bench", "time(s)", "ACh", "miss",
              "FP");
  for (const auto bench : benches) {
    harness::CampaignConfig campaign;
    campaign.base = bench::erroneous_config(
        bench, workloads::default_input(bench, nranks), nranks, platform);
    campaign.runs = nruns;
    campaign.seed0 = seed0 + static_cast<std::uint64_t>(bench) * 1000;
    campaign.jobs = bench::jobs();
    const auto result = harness::run_erroneous_campaign(campaign);
    // Clean-run duration from the runner's estimate (Table 6's time column).
    const auto profile = workloads::make_profile(
        bench, workloads::default_input(bench, nranks), nranks);
    const double clean_s = sim::to_seconds(
        harness::estimate_clean_runtime(*profile, platform, nranks));
    std::printf("%-8s %9.0f %8.2f %8d %8d\n",
                workloads::bench_name(bench).data(), clean_s, result.accuracy(),
                result.missed, result.false_positives);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_jobs(argc, argv);
  bench::header("Table 6 — hang-detection accuracy",
                "ParaStack SC'17, Table 6 + §7.1-III (4096/8192/16384)");

  using B = workloads::Bench;
  campaign_block(
      "Tardis", 256,
      {B::kBT, B::kCG, B::kFT, B::kLU, B::kMG, B::kSP, B::kHPCG, B::kHPL},
      bench::runs(8, 100), 90000);
  campaign_block("Tianhe-2", 1024,
                 {B::kBT, B::kCG, B::kFT, B::kLU, B::kSP, B::kHPL},
                 bench::runs(4, 50), 91000);
  campaign_block("Stampede", 1024, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
                 bench::runs(3, 20), 92000);
  campaign_block("Stampede", 4096, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
                 bench::runs(2, 10), 93000);
  campaign_block("Stampede", 8192, {B::kHPL}, bench::runs(2, 5), 94000);
  campaign_block("Stampede", 16384, {B::kHPL}, bench::runs(1, 3), 95000);

  std::printf(
      "\nExpected shape (paper): accuracy ~0.98-1.0 everywhere; the "
      "rare misses are hangs striking before the model is built.\n");
  return 0;
}
