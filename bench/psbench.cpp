// psbench — runs one of the paper's experiments by name:
//
//   psbench NAME [--jobs N]
//
// NAME is one of kExperiments below; a missing or unknown name lists them.
// --jobs N spreads campaign runs across N worker threads (0, the default,
// means one per hardware thread) and never changes a number.
// PARASTACK_BENCH_SCALE=full runs paper-sized campaigns instead of the
// quick default. Any other option, a stray argument, a malformed --jobs or
// a PARASTACK_BENCH_SCALE other than quick or full exits 2 before anything
// runs, as in psim and pscheck.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "util/args.hpp"

using namespace parastack;

namespace {

struct Experiment {
  const char* name;
  const char* title;
  const char* reproduces;
  int (*run)();
};

const Experiment kExperiments[] = {
    {"table1", "Table 1 — fixed timeout (I, K) sweep at scale 256",
     "ParaStack SC'17, Table 1", bench::table1_timeout},
    {"fig2", "Figure 2 — S_out waveform of healthy LU, SP, FT @256(D)",
     "ParaStack SC'17, Figure 2", bench::fig2_sout_healthy},
    {"fig3", "Figure 3 — S_out waveform of a faulty LU run @256(D)",
     "ParaStack SC'17, Figure 3", bench::fig3_sout_faulty},
    {"fig4", "Figure 4 — S_crout model and suspicion region (LU @256 D)",
     "ParaStack SC'17, Figure 4", bench::fig4_model},
    {"fig5", "Figure 5 — sample size vs suspicion probability vs tolerance",
     "ParaStack SC'17, Figure 5 / §3.2", bench::fig5_sample_size},
    {"table3", "Table 3 — single-process stack-trace overhead (HPL-like)",
     "ParaStack SC'17, Table 3 (clean run ~185.05 s; O_t 50.88 s @10 ms with "
     "n=18220; O_t 7.52 s @100 ms with n=1870)",
     bench::table3_trace_overhead},
    {"overhead",
     "Tables 4-5, Figures 7-8 — ParaStack overhead at scale 256 (Tardis) and "
     "1024 (Stampede, Tianhe-2)",
     "ParaStack SC'17, Tables 4 and 5, Figures 7 and 8", bench::overhead},
    {"accuracy",
     "Tables 6-8 and 10, Figure 9 — accuracy, response delay and "
     "faulty-process identification over one grid of erroneous runs",
     "ParaStack SC'17, Tables 6, 7, 8 and 10, Figure 9, §7.1-III and §7.2 "
     "(4096/8192/16384)",
     bench::accuracy},
    {"fig10", "Figure 10 — batch-time savings on erroneous HPL runs",
     "ParaStack SC'17, Figure 10 (avg 35.5%, -> 50% asymptotically)",
     bench::fig10_time_savings},
    {"table9", "Table 9 — generality: default I=400ms vs P* (I=10ms init)",
     "ParaStack SC'17, Table 9", bench::table9_generality},
    {"false-positives",
     "§7.1-II — false positives over clean runs (alpha = 0.1%)",
     "ParaStack SC'17, §7.1-II (0 FP over 66 h @256 / 39.7 h @1024)",
     bench::sec7_false_positives},
    {"ablation-model-freeze",
     "Ablation — model updates during a suspicion streak",
     "design decision #2 (paper §3.2 leaves this implicit)",
     bench::ablation_model_freeze},
    {"ablation-single-set",
     "Ablation — monitor-set alternation (corner case of §3.3)",
     "ParaStack SC'17, §3.3 'Prevention of a corner case failure'",
     bench::ablation_single_set},
    {"ablation-trace-cost", "Ablation — per-trace cost vs monitoring interval",
     "paper §3.3 lightweight-design rationale / Table 3",
     bench::ablation_trace_cost},
    {"io-watchdog", "Comparison — ParaStack vs IO-Watchdog on faulty HPL @256",
     "ParaStack SC'17 §1 (IO-Watchdog, 1-hour default timeout)",
     bench::comparison_io_watchdog},
    {"load-imbalance", "Limitation — severe load imbalance (paper §6)",
     "ParaStack SC'17 §6: 'not suitable for applications with severe load "
     "imbalance'",
     bench::limitation_load_imbalance},
    {"scalability", "Scalability — monitor activity vs job size",
     "ParaStack SC'17 §3.3 (C processes, <= C active monitors)",
     bench::scalability_monitors},
    {"tool-resilience", "Tool resilience — accuracy under tool-side faults",
     "robustness extension (DESIGN.md §8); baseline row reproduces Table 6 "
     "conditions",
     bench::tool_resilience},
    {"recovery-policies",
     "Recovery policies — completion time and SU cost vs. detection latency",
     "detect->recover extension (DESIGN.md §13); SU model follows §7.1-V",
     bench::recovery_policies},
    {"fleet", "Fleet — multi-tenant detector service at scale",
     "tooling (no paper table): fleet mode over Fig 10's SU-savings "
     "accounting",
     bench::fleet_service},
};

void list_experiments() {
  std::fprintf(stderr, "usage: psbench NAME [--jobs N]; NAME is one of:\n");
  for (const auto& experiment : kExperiments) {
    std::fprintf(stderr, "  %-22s %s\n", experiment.name, experiment.title);
  }
}

/// Read the experiment name, --jobs and PARASTACK_BENCH_SCALE into
/// bench::settings and return the experiment. Bad input exits 2 before
/// anything runs.
const Experiment& parse_options(int argc, char** argv) {
  const util::Args args(argc, argv);
  bool bad = false;
  for (const auto& key : args.unknown_keys({"jobs"})) {
    std::fprintf(stderr, "psbench: unknown option --%s\n", key.c_str());
    bad = true;
  }
  try {
    bench::settings.jobs =
        harness::resolve_jobs(args.get_whole<int>("jobs", 0, 0));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "psbench: %s\n", error.what());
    bad = true;
  }
  const char* scale = std::getenv("PARASTACK_BENCH_SCALE");
  if (scale != nullptr && std::strcmp(scale, "quick") != 0 &&
      std::strcmp(scale, "full") != 0) {
    std::fprintf(stderr,
                 "psbench: bad PARASTACK_BENCH_SCALE value '%s' (expected "
                 "quick or full)\n",
                 scale);
    bad = true;
  }
  bench::settings.full_scale =
      scale != nullptr && std::strcmp(scale, "full") == 0;

  const auto& names = args.positionals();
  const Experiment* chosen = nullptr;
  if (names.empty()) {
    std::fprintf(stderr, "psbench: missing experiment name\n");
  } else {
    for (const auto& experiment : kExperiments) {
      if (names.front() == experiment.name) chosen = &experiment;
    }
    if (chosen == nullptr) {
      std::fprintf(stderr, "psbench: unknown experiment '%s'\n",
                   names.front().c_str());
    }
    for (std::size_t i = 1; i < names.size(); ++i) {
      std::fprintf(stderr, "psbench: unexpected argument '%s'\n",
                   names[i].c_str());
      bad = true;
    }
  }
  if (chosen == nullptr) list_experiments();
  if (bad || chosen == nullptr) std::exit(2);
  return *chosen;
}

void header(const Experiment& experiment) {
  std::printf(
      "=============================================================\n");
  std::printf("%s\n", experiment.title);
  std::printf("reproduces: %s\n", experiment.reproduces);
  std::printf(
      "mode: %s (set PARASTACK_BENCH_SCALE=full for paper-sized "
      "campaigns), %d worker thread%s\n",
      bench::full_scale() ? "full" : "quick", bench::jobs(),
      bench::jobs() == 1 ? "" : "s");
  std::printf(
      "=============================================================\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Experiment& experiment = parse_options(argc, argv);
  header(experiment);
  return experiment.run();
}
