// Figure 2: dynamic variation of S_out in healthy runs of LU, SP and FT at
// 256 ranks (input D), probed every 1 ms. Prints a decimated CSV series and
// an ASCII strip per benchmark so the periodic pattern is visible directly.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

namespace {

void probe_benchmark(workloads::Bench bench, const char* input) {
  const auto profile = workloads::make_profile(bench, input, 256);
  simmpi::WorldConfig config;
  config.nranks = 256;
  config.platform = sim::Platform::tardis();
  config.seed = 97;
  config.background_slowdowns = false;
  simmpi::World world(config, workloads::make_factory(profile));
  world.start();
  // Skip the setup phase, then probe a window at 1 ms resolution.
  world.engine().run_until(20 * sim::kSecond);
  const sim::Time window =
      bench::full_scale() ? 20 * sim::kSecond : 8 * sim::kSecond;
  std::vector<double> series;
  const sim::Time step = sim::kMillisecond;
  for (sim::Time t = 0; t < window; t += step) {
    world.engine().run_until(world.engine().now() + step);
    series.push_back(world.sout());
  }

  std::printf(
      "\n-- %s(%s), S_out every 1ms over %.0fs (decimated CSV, "
      "every 40th sample) --\n",
      workloads::bench_name(bench).data(), input, sim::to_seconds(window));
  std::printf("t_ms,sout\n");
  for (std::size_t i = 0; i < series.size(); i += 40) {
    std::printf("%zu,%.3f\n", i, series[i]);
  }
  // ASCII strip: one char per 80 ms, '#' high, '.' low.
  std::printf("strip (80ms/char, #=Sout>0.66, +=0.33..0.66, .=<0.33):\n");
  std::string strip;
  for (std::size_t i = 0; i + 80 <= series.size(); i += 80) {
    double mean = 0.0;
    for (std::size_t j = i; j < i + 80; ++j) mean += series[j];
    mean /= 80.0;
    strip += mean > 0.66 ? '#' : mean > 0.33 ? '+' : '.';
    if (strip.size() % 100 == 0) strip += '\n';
  }
  std::printf("%s\n", strip.c_str());
}

}  // namespace

int bench::fig2_sout_healthy() {
  probe_benchmark(workloads::Bench::kLU, "D");
  probe_benchmark(workloads::Bench::kSP, "D");
  probe_benchmark(workloads::Bench::kFT, "D");
  std::printf(
      "\nExpected shape (paper): all three show periodic variation; "
      "the period length differs per application (FT's cycles are "
      "much longer than LU's).\n");
  return 0;
}
