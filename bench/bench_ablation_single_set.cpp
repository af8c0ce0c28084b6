// Ablation (DESIGN.md #6): the two-disjoint-monitor-set alternation of
// §3.3. The corner case: suspicion is learned as "S_crout = 0", and the
// faulty (OUT_MPI) rank happens to be one of the C monitored processes —
// the monitored S_crout then pins at 1/C != 0 and a single-set monitor can
// never see a suspicion. Alternation guarantees the other set excludes the
// faulty rank and reads 0.
//
// Construction: we read the detector's chosen set 0 and hang precisely its
// first member (via a single-rank freeze mid-computation), then compare
// alternation on vs off across seeds.

#include <memory>

#include "bench_common.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

namespace {

std::shared_ptr<const workloads::BenchmarkProfile> compute_heavy() {
  // Imbalanced compute + one global sync per iteration: enough of the
  // healthy mass sits AT S_crout = 0 (everyone waiting for stragglers) that
  // the ladder picks the suspicion region {S_crout = 0} exactly — the
  // corner-case precondition.
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->name = "CHEAVY";
  profile->iterations = 12000;
  profile->reference_ranks = 24;
  profile->setup_time = sim::from_millis(200);
  profile->phases = {
      {"heavy_sweep", sim::from_millis(34), 0.40,
       workloads::CommPattern::kHaloBlocking, 200 * 1024},
      {"heavy_norm", sim::from_millis(6), 0.15,
       workloads::CommPattern::kAllreduce, 64},
  };
  return profile;
}

struct Outcome {
  int detected = 0;
  int corner_case_runs = 0;  ///< victim froze while computing (OUT_MPI)
  util::Summary delay_s;
};

Outcome evaluate(bool alternation, int nruns, std::uint64_t seed0) {
  Outcome outcome;
  for (int i = 0; i < nruns; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i) * 101;
    simmpi::WorldConfig world_config;
    world_config.nranks = 24;
    world_config.platform = sim::Platform::tianhe2();
    world_config.seed = seed;
    world_config.background_slowdowns = false;
    simmpi::World world(world_config, workloads::make_factory(compute_heavy()));
    trace::StackInspector inspector(world);
    core::DetectorConfig det_config;
    det_config.enable_set_alternation = alternation;
    det_config.seed = seed ^ 0xabcdef;
    core::HangDetector detector(world, inspector, det_config);

    // Hang the first member of the detector's OWN monitored set.
    const simmpi::Rank victim = detector.monitor_set(0)[0];
    const sim::Time freeze_at = 60 * sim::kSecond;
    world.engine().schedule_at(
        freeze_at, [&world, victim] { world.rank(victim).freeze(); });

    world.start();
    detector.start();
    auto& engine = world.engine();
    while (!world.all_finished() && !detector.hang_reported() &&
           engine.now() < 8 * sim::kMinute && engine.step()) {
    }
    detector.stop();
    // Only count runs where the rank froze OUT_MPI (inside user code);
    // a rank frozen inside MPI is a different (easier) scenario.
    if (!world.rank(victim).in_mpi()) {
      ++outcome.corner_case_runs;
      if (detector.hang_reported()) {
        ++outcome.detected;
        outcome.delay_s.add(sim::to_seconds(
            detector.hang_reports().front().detected_at - freeze_at));
      }
    }
  }
  return outcome;
}

}  // namespace

int bench::ablation_single_set() {
  const int nruns = bench::runs(10, 30);
  const Outcome with_alternation = evaluate(true, nruns, 61000);
  const Outcome without = evaluate(false, nruns, 61000);
  std::printf(
      "the faulty rank IS monitored (24 ranks, C=10; victim chosen "
      "from set 0; %d runs, counting those frozen OUT_MPI):\n\n",
      nruns);
  std::printf("  %-30s %8s %12s\n", "variant", "detected", "mean delay");
  std::printf("  %-30s %5d/%-3d %10.1fs\n", "two alternating sets (paper)",
              with_alternation.detected, with_alternation.corner_case_runs,
              with_alternation.delay_s.mean());
  std::printf("  %-30s %5d/%-3d %10.1fs\n", "single fixed set (ablated)",
              without.detected, without.corner_case_runs,
              without.delay_s.mean());
  std::printf(
      "\nExpected shape: with alternation the clean set reads "
      "S_crout = 0 and detection lands in seconds. The single-set "
      "variant stares at S_crout = 1/C: no suspicion fires until "
      "the still-learning model slowly drifts its threshold up to "
      "1/C — detection is an order of magnitude later (or missed "
      "entirely in a shorter allocation).\n");
  return 0;
}
