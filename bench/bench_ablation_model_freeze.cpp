// Ablation (DESIGN.md #2): should the ECDF model keep learning during a
// suspicion streak? The paper keeps updating (our default). Freezing sounds
// safer (no hang-sample pollution) but under-estimates the healthy suspicion
// mass for collective-heavy apps like FT — every multi-second transpose
// contributes one zero instead of several — which shrinks q and k and makes
// false alarms more likely.

#include "bench_common.hpp"

using namespace parastack;

namespace {

struct Outcome {
  int false_positives = 0;
  int detected = 0;
  double mean_k = 0.0;
};

Outcome evaluate(bool freeze, int nruns, std::uint64_t seed0) {
  std::vector<harness::RunResult> results(static_cast<std::size_t>(nruns));
  harness::parallel_for(nruns, bench::jobs(), [&](int i) {
    auto config = bench::erroneous_config(workloads::Bench::kFT, "D", 256,
                                          sim::Platform::tardis());
    config.parastack_config().freeze_model_during_streak = freeze;
    config.seed = harness::derive_trial_seed(seed0, i);
    results[static_cast<std::size_t>(i)] = harness::run_one(config);
  });
  Outcome outcome;
  for (const auto& result : results) {
    if (const auto detection = result.first_parastack_detection()) {
      if (result.detection_before_fault(*detection)) {
        ++outcome.false_positives;
      } else {
        ++outcome.detected;
        outcome.mean_k +=
            static_cast<double>(result.hangs().front().required_streak);
      }
    }
  }
  if (outcome.detected > 0) outcome.mean_k /= outcome.detected;
  return outcome;
}

}  // namespace

int bench::ablation_model_freeze() {
  const int nruns = bench::runs(8, 30);
  const Outcome updating = evaluate(false, nruns, 71000);
  const Outcome frozen = evaluate(true, nruns, 71000);
  std::printf("FT(D) @256 Tardis, %d erroneous runs each:\n\n", nruns);
  std::printf("%-28s %8s %8s %8s\n", "variant", "detect", "FP", "mean k");
  std::printf("%-28s %8d %8d %8.1f\n", "updating model (default)",
              updating.detected, updating.false_positives, updating.mean_k);
  std::printf("%-28s %8d %8d %8.1f\n", "frozen during streak", frozen.detected,
              frozen.false_positives, frozen.mean_k);
  std::printf(
      "\nExpected shape: both detect the hangs, but the frozen "
      "variant runs with a smaller required streak k (it "
      "under-counts healthy suspicions), eroding the false-alarm "
      "margin on collective-heavy apps.\n");
  return 0;
}
