// Figure 4: the empirical distribution of randomly sampled S_crout for LU,
// with the suspicion region the robust model derives at three sample-size
// levels (the paper shows three panels as samples accumulate).

#include "bench_common.hpp"
#include "core/detector.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

namespace {

void dump_panel(const core::HangDetector& detector, const char* label) {
  const auto decision = detector.current_decision();
  std::printf("\n-- panel: %s (n=%zu samples) --\n", label,
              detector.model().size());
  if (!decision.ready) {
    std::printf("model not yet ready (n below the e=0.3 ladder level)\n");
    return;
  }
  std::printf(
      "suspicion region: S_crout <= %.2f  (p_m' = F_n(t) = %.3f, "
      "e = %.2f, q = %.3f, k = %zu consecutive suspicions verify a "
      "hang at 99.9%% confidence)\n",
      decision.threshold, decision.p_m_prime, decision.tolerance, decision.q,
      decision.k);
  std::printf("empirical distribution F_n (value: mass, cumulative):\n");
  double prev = 0.0;
  for (const auto& point : detector.model().ecdf().support()) {
    const double mass = point.cum_prob - prev;
    prev = point.cum_prob;
    std::printf("  %.2f: %.3f %.3f  %s|", point.value, mass, point.cum_prob,
                point.value <= decision.threshold + 1e-9 ? "[suspicion] " : "");
    const int bar = static_cast<int>(mass * 120.0);
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int bench::fig4_model() {
  const auto profile = workloads::make_profile(workloads::Bench::kLU, "D", 256);
  simmpi::WorldConfig config;
  config.nranks = 256;
  config.platform = sim::Platform::tardis();
  config.seed = 314;
  config.background_slowdowns = false;
  simmpi::World world(config, workloads::make_factory(profile));
  trace::StackInspector inspector(world);
  core::HangDetector detector(world, inspector, core::DetectorConfig{});
  world.start();
  detector.start();

  auto& engine = world.engine();
  const std::size_t panels[] = {30, 90, 300};
  std::size_t panel_index = 0;
  while (panel_index < std::size(panels) && !world.all_finished()) {
    if (!engine.step()) break;
    if (detector.model().size() >= panels[panel_index]) {
      char label[64];
      std::snprintf(label, sizeof label, "after ~%zu samples",
                    panels[panel_index]);
      dump_panel(detector, label);
      ++panel_index;
    }
  }
  std::printf(
      "\nfinal sampling interval I = %.0f ms (doubled %zu times by "
      "the runs test), randomness confirmed: %s\n",
      sim::to_millis(detector.interval()), detector.interval_doublings(),
      detector.randomness_confirmed() ? "yes" : "no");
  std::printf(
      "Expected shape (paper): most probability mass at high S_crout; "
      "a small left tail forms the suspicion region, which tightens "
      "(smaller e) as samples accumulate.\n");
  return 0;
}
