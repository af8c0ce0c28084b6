// Waveform explorer: print the S_out waveform and the detector's learned
// model for any benchmark/platform/scale combination — the fastest way to
// understand *why* ParaStack's statistical model works on your application.
//
// Usage:  ./build/examples/waveform_explorer [BENCH] [INPUT] [RANKS] [PLATFORM]
//   e.g.  ./build/examples/waveform_explorer FT D 256 Tardis

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/detector.hpp"
#include "harness/runner.hpp"
#include "util/args.hpp"
#include "workloads/synthetic.hpp"

using namespace parastack;

int main(int argc, char** argv) {
  const char* bench_arg = argc > 1 ? argv[1] : "LU";
  const char* platform_arg = argc > 4 ? argv[4] : "Tianhe-2";
  const auto bench = workloads::bench_by_name(bench_arg);
  if (!bench) {
    std::fprintf(stderr,
                 "unknown benchmark '%s' (use BT CG FT LU MG SP HPL HPCG)\n",
                 bench_arg);
    return 2;
  }
  const auto platform = sim::platform_by_name(platform_arg);
  if (!platform) {
    std::fprintf(stderr,
                 "unknown platform '%s' (use Tardis Tianhe-2 Stampede)\n",
                 platform_arg);
    return 2;
  }
  int nranks = 256;
  try {
    if (argc > 3) nranks = util::Args::parse_whole<int>(argv[3]);
  } catch (const std::invalid_argument&) {
    nranks = 0;
  }
  if (nranks < 2) {
    std::fprintf(stderr, "bad rank count '%s' (expected a whole number >= 2)\n",
                 argv[3]);
    return 2;
  }
  const std::string input =
      argc > 2 ? argv[2] : workloads::default_input(*bench, nranks);
  if (!workloads::valid_input(*bench, input)) {
    std::fprintf(stderr,
                 "bad input '%s' (expected C, D or E for the NPB benches, a "
                 "whole number >= 1 for HPL and HPCG)\n",
                 input.c_str());
    return 2;
  }

  std::printf("%s(%s) on %d ranks, %s\n\n",
              workloads::bench_name(*bench).data(), input.c_str(), nranks,
              platform->name.c_str());

  const auto profile = workloads::make_profile(*bench, input, nranks);
  simmpi::WorldConfig world_config;
  world_config.nranks = nranks;
  world_config.platform = *platform;
  world_config.seed = 2024;
  world_config.background_slowdowns = false;
  simmpi::World world(world_config, workloads::make_factory(profile));
  trace::StackInspector inspector(world);
  core::HangDetector detector(world, inspector, core::DetectorConfig{});
  world.start();
  detector.start();

  // Waveform strip after setup: one char per 100 ms over 30 s.
  world.engine().run_until(15 * sim::kSecond);
  std::printf("S_out strip (100ms/char; '#'>0.8 '+'>0.5 '-'>0.2 '.'<=0.2):\n");
  for (int row = 0; row < 3; ++row) {
    for (int i = 0; i < 100; ++i) {
      world.engine().run_until(world.engine().now() + 100 * sim::kMillisecond);
      const double sout = world.sout();
      std::putchar(sout > 0.8   ? '#'
                   : sout > 0.5 ? '+'
                   : sout > 0.2 ? '-'
                                : '.');
    }
    std::putchar('\n');
  }

  // Let the model mature, then show what the detector learned.
  world.engine().run_until(world.engine().now() + 90 * sim::kSecond);
  const auto decision = detector.current_decision();
  std::printf(
      "\nmodel after %zu samples (interval %.0f ms, %zu doublings, "
      "randomness %s):\n",
      detector.model().size(), sim::to_millis(detector.interval()),
      detector.interval_doublings(),
      detector.randomness_confirmed() ? "confirmed" : "pending");
  if (decision.ready) {
    std::printf(
        "  suspicion: S_crout <= %.2f (probability %.3f, tolerance "
        "%.2f)\n  q = %.3f -> %zu consecutive suspicions verify a "
        "hang at %.1f%% confidence\n",
        decision.threshold, decision.p_m_prime, decision.tolerance, decision.q,
        decision.k, 100.0 * (1.0 - detector.config().alpha));
    std::printf(
        "  worst-case detection latency ~ I * k = %.1f s\n",
        sim::to_seconds(detector.interval()) * static_cast<double>(decision.k));
  } else {
    std::printf("  model not ready yet (needs more samples)\n");
  }
  std::printf("\ndistribution of sampled S_crout:\n");
  double prev = 0.0;
  for (const auto& point : detector.model().ecdf().support()) {
    const double mass = point.cum_prob - prev;
    prev = point.cum_prob;
    std::printf("  %.1f %5.1f%% |", point.value, 100.0 * mass);
    for (int i = 0; i < static_cast<int>(mass * 100); ++i) std::putchar('#');
    std::putchar('\n');
  }
  return 0;
}
