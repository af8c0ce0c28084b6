// Figure 3: S_out during a faulty run of LU — the periodic variation ceases
// and S_out pins near zero after the hang begins.

#include <vector>

#include "bench_common.hpp"
#include "faults/injector.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

int bench::fig3_sout_faulty() {
  const auto profile = workloads::make_profile(workloads::Bench::kLU, "D", 256);
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 123;
  plan.trigger_time = 26 * sim::kSecond;
  faults::FaultInjector injector(plan);

  simmpi::WorldConfig config;
  config.nranks = 256;
  config.platform = sim::Platform::tardis();
  config.seed = 5150;
  config.background_slowdowns = false;
  simmpi::World world(config, injector.wrap(workloads::make_factory(profile)));
  injector.arm(world);
  world.start();
  world.engine().run_until(22 * sim::kSecond);

  std::vector<double> series;
  for (sim::Time t = 0; t < 10 * sim::kSecond; t += sim::kMillisecond) {
    world.engine().run_until(world.engine().now() + sim::kMillisecond);
    series.push_back(world.sout());
  }

  const double fault_at_ms =
      sim::to_millis(injector.record().activated_at - 22 * sim::kSecond);
  std::printf(
      "fault injected (red region border in the paper's figure) at "
      "t=%.0fms into the window, victim rank %d\n\n",
      fault_at_ms, injector.record().victim);
  std::printf("t_ms,sout\n");
  for (std::size_t i = 0; i < series.size(); i += 25) {
    std::printf("%zu,%.3f\n", i, series[i]);
  }
  // Quantify the figure's visual: variance before vs after the fault.
  double before = 0.0, after = 0.0;
  int nb = 0, na = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (static_cast<double>(i) < fault_at_ms) {
      before += series[i];
      ++nb;
    } else if (static_cast<double>(i) > fault_at_ms + 2000.0) {
      after += series[i];
      ++na;
    }
  }
  std::printf("\nmean S_out before fault: %.3f; after fault (+2s): %.4f\n",
              nb ? before / nb : 0.0, na ? after / na : 0.0);
  std::printf(
      "Expected shape (paper): dynamic variation before, persistently "
      "near-zero S_out after the hang (only the faulty rank stays "
      "OUT_MPI: 1/256 = 0.004).\n");
  return 0;
}
