// Tables 7-8: response delay mean (D) and standard deviation (S) at scales
// 1024 (Tianhe-2), and 1024/4096 (Stampede).

#include "bench_common.hpp"

using namespace parastack;

namespace {

void delay_block(const char* platform_name, int nranks,
                 std::initializer_list<workloads::Bench> benches, int nruns,
                 std::uint64_t seed0) {
  const auto platform = sim::platform_by_name(platform_name).value();
  std::printf("\n-- %s @%d ranks (%d erroneous runs each) --\n", platform_name,
              nranks, nruns);
  std::printf("%-8s %8s %8s %10s\n", "bench", "D(s)", "S", "detected");
  for (const auto bench : benches) {
    harness::CampaignConfig campaign;
    campaign.base = bench::erroneous_config(
        bench, workloads::default_input(bench, nranks), nranks, platform);
    campaign.runs = nruns;
    campaign.seed0 = seed0 + static_cast<std::uint64_t>(bench) * 733;
    campaign.jobs = bench::jobs();
    const auto result = harness::run_erroneous_campaign(campaign);
    std::printf("%-8s %8.1f %8.1f %7d/%d\n",
                workloads::bench_name(bench).data(),
                result.delay_seconds.mean(), result.delay_seconds.stddev(),
                result.detected, result.runs);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_jobs(argc, argv);
  bench::header("Tables 7-8 — response delay at large scale",
                "ParaStack SC'17, Tables 7 and 8 (+8192/16384 HPL spot runs)");
  using B = workloads::Bench;
  delay_block("Tianhe-2", 1024,
              {B::kBT, B::kCG, B::kFT, B::kLU, B::kSP, B::kHPL},
              bench::runs(4, 50), 97000);
  delay_block("Stampede", 1024, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
              bench::runs(3, 20), 98000);
  delay_block("Stampede", 4096, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
              bench::runs(2, 10), 99000);
  delay_block("Stampede", 8192, {B::kHPL}, bench::runs(2, 5), 99500);
  delay_block("Stampede", 16384, {B::kHPL}, bench::runs(1, 3), 99700);
  std::printf(
      "\nExpected shape (paper): average delays of ~4-25s; delay "
      "varies across applications and across hangs of one "
      "application (q and I adapt at runtime).\n");
  return 0;
}
