// Limitation study (paper §6 "Applications with load imbalance"): ParaStack
// assumes reasonable load balance. With severe static imbalance, a few
// heavy ranks compute while everyone else camps inside MPI — exactly the
// signature of a computation-error hang — so suspicion streaks form in
// perfectly healthy runs. The transient-slowdown filter absorbs some of
// them (the heavy ranks do cross MPI boundaries), mirroring the paper's
// remark that moderate imbalance behaves like a slowdown.

#include <memory>

#include "bench_common.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

namespace {

std::shared_ptr<const workloads::BenchmarkProfile> imbalanced(int stragglers,
                                                              double factor) {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->name = "IMBAL";
  profile->iterations = 700;
  profile->reference_ranks = 64;
  profile->setup_time = sim::kSecond;
  profile->straggler_count = stragglers;
  profile->straggler_factor = factor;
  profile->phases = {
      {"imb_compute", sim::from_millis(60), 0.10,
       workloads::CommPattern::kHaloHalfBlocking, 128 * 1024},
      {"imb_norm", sim::from_millis(6), 0.10,
       workloads::CommPattern::kAllreduce, 64},
  };
  return profile;
}

struct Outcome {
  int false_alarms = 0;
  int slowdown_absorptions = 0;
  int completed = 0;
  double mean_k = 0.0;  ///< required streak: detection latency ~ k * I
  double mean_interval_ms = 0.0;
};

Outcome evaluate(int stragglers, double factor, int nruns) {
  Outcome outcome;
  for (int i = 0; i < nruns; ++i) {
    simmpi::WorldConfig world_config;
    world_config.nranks = 64;
    world_config.platform = sim::Platform::tianhe2();
    world_config.seed = 87000 + static_cast<std::uint64_t>(i) * 31;
    world_config.background_slowdowns = false;
    simmpi::World world(
        world_config, workloads::make_factory(imbalanced(stragglers, factor)));
    trace::StackInspector inspector(world);
    core::HangDetector detector(world, inspector, core::DetectorConfig{});
    world.start();
    detector.start();
    auto& engine = world.engine();
    while (!world.all_finished() && !detector.hang_reported() &&
           engine.now() < 12 * sim::kMinute && engine.step()) {
    }
    detector.stop();
    if (detector.hang_reported()) ++outcome.false_alarms;
    if (world.all_finished()) ++outcome.completed;
    outcome.slowdown_absorptions +=
        static_cast<int>(detector.slowdown_reports().size());
    const auto decision = detector.current_decision();
    outcome.mean_k += static_cast<double>(decision.k) / nruns;
    outcome.mean_interval_ms += sim::to_millis(detector.interval()) / nruns;
  }
  return outcome;
}

}  // namespace

int bench::limitation_load_imbalance() {
  const int nruns = bench::runs(4, 12);
  std::printf("%-28s %10s %12s %10s %8s %10s\n", "workload (64 ranks)", "false",
              "filter", "completed", "k", "I(ms)");
  std::printf("%-28s %10s %12s %10s %8s %10s\n", "", "alarms", "absorptions",
              "", "", "");
  struct Case {
    const char* label;
    int stragglers;
    double factor;
  };
  for (const Case& c :
       {Case{"balanced", 0, 1.0}, Case{"mild (3 ranks, 1.5x)", 3, 1.5},
        Case{"moderate (3 ranks, 3x)", 3, 3.0},
        Case{"severe (2 ranks, 10x)", 2, 10.0}}) {
    const Outcome outcome = evaluate(c.stragglers, c.factor, nruns);
    std::printf("%-28s %7d/%-2d %12d %7d/%-2d %8.0f %10.0f\n", c.label,
                outcome.false_alarms, nruns, outcome.slowdown_absorptions,
                outcome.completed, nruns, outcome.mean_k,
                outcome.mean_interval_ms);
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: no false alarms anywhere — the robust model "
      "ACCOMMODATES imbalance by absorbing the 'few ranks still "
      "computing' state into its suspicion mass, which inflates q "
      "and hence the required streak k (and often I). The cost is "
      "silent: worst-case detection latency ~ k*I grows with "
      "imbalance — the degradation behind the paper's §6 warning "
      "that severely imbalanced apps are out of scope.\n");
  return 0;
}
