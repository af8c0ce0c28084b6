// Table 10: faulty-process identification — accuracy AC_f (victim found
// among reported ranks) and precision PR_f (mean of 1/x_i) across the
// benchmark suite and scales, evaluated on the runs where the hang was
// detected.

#include "bench_common.hpp"

using namespace parastack;

namespace {

void id_block(const char* platform_name, int nranks,
              std::initializer_list<workloads::Bench> benches, int nruns,
              std::uint64_t seed0) {
  const auto platform = sim::platform_by_name(platform_name).value();
  std::printf("\n-- %s @%d ranks (%d erroneous runs each) --\n", platform_name,
              nranks, nruns);
  std::printf("%-8s %10s %8s %8s\n", "bench", "ACf", "PRf", "Th");
  for (const auto bench : benches) {
    harness::CampaignConfig campaign;
    campaign.base = bench::erroneous_config(
        bench, workloads::default_input(bench, nranks), nranks, platform);
    campaign.runs = nruns;
    campaign.seed0 = seed0 + static_cast<std::uint64_t>(bench) * 577;
    campaign.jobs = bench::jobs();
    const auto result = harness::run_erroneous_campaign(campaign);
    char acf[32];
    std::snprintf(acf, sizeof acf, "%d/%d", result.victim_identified,
                  result.detected);
    std::printf("%-8s %10s %8.2f %8d\n", workloads::bench_name(bench).data(),
                acf, result.prf(), result.detected);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_jobs(argc, argv);
  bench::header("Table 10 — faulty-process identification",
                "ParaStack SC'17, Table 10 + §7.2 large-scale runs");
  using B = workloads::Bench;
  id_block("Tardis", 256,
           {B::kBT, B::kCG, B::kFT, B::kLU, B::kMG, B::kSP, B::kHPCG, B::kHPL},
           bench::runs(8, 100), 21000);
  id_block("Tianhe-2", 1024, {B::kBT, B::kCG, B::kFT, B::kLU, B::kSP, B::kHPL},
           bench::runs(3, 50), 22000);
  id_block("Stampede", 1024, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
           bench::runs(3, 20), 23000);
  id_block("Stampede", 4096, {B::kBT, B::kCG, B::kLU, B::kSP, B::kHPL},
           bench::runs(2, 10), 24000);
  id_block("Stampede", 8192, {B::kHPL}, bench::runs(2, 5), 25000);
  std::printf(
      "\nExpected shape (paper): AC_f ~= 1.0 and PR_f ~= 1.0 almost "
      "everywhere; HPL's busy-wait collectives occasionally add an "
      "extra suspect (paper saw PR_f 86.7%% once at 8192).\n");
  return 0;
}
