// pscheck — property-based scenario fuzzer for the ParaStack simulator.
//
//   pscheck --seeds 256 [--seed0 1] [--jobs N]      sweep a seed range
//   pscheck --seed 42                               one seed, verbose
//   pscheck --repro='v1,fseed=...,...'              replay a shrunk failure
//   pscheck --plant=clock [...]                     self-test: inject a
//                                                   clock warp; pscheck
//                                                   must catch & shrink it
//
// Each seed expands deterministically into a random-but-valid scenario
// (workload x platform x fault plan x tool-fault plan) which is then held
// to every oracle: telemetry-stream invariants, conservation ledgers,
// journal determinism, record/replay byte-identity, faults-off silence,
// --jobs campaign byte-identity, and rank-relabel metamorphism. On
// failure the scenario is greedily minimized and a one-line repro command
// is printed. Exit status: 0 all seeds clean, 1 any failure, 2 usage.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/driver.hpp"
#include "harness/parallel.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

using namespace parastack;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pscheck [--seeds N] [--seed0 S] [--seed S] "
               "[--repro=STR]\n"
               "               [--jobs N] [--no-shrink] [--shrink-budget N]\n"
               "               [--no-campaign-oracle] [--plant=clock] "
               "[--quiet]\n"
               "  --seeds N        sweep seeds seed0 .. seed0+N-1 "
               "(default 64)\n"
               "  --seed S         check exactly one seed, verbosely\n"
               "  --repro STR      re-run a printed repro scenario string\n"
               "  --jobs N         parallel seeds (0 = all hardware "
               "threads)\n"
               "  --plant clock    inject a clock warp (checker self-test:\n"
               "                   must be caught, shrunk, reproduced)\n");
  return 2;
}

void print_failure(const check::CheckOutcome& outcome) {
  const auto& scenario = outcome.report.scenario;
  std::fprintf(stderr, "FAIL fuzz-seed %llu:\n",
               static_cast<unsigned long long>(scenario.fuzz_seed));
  for (const auto& f : outcome.report.failures) {
    std::fprintf(stderr, "  [%s] %s\n", f.oracle.c_str(), f.detail.c_str());
  }
  if (outcome.shrunk) {
    std::fprintf(stderr,
                 "  shrunk in %d attempts (%d accepted) to: ranks=%d "
                 "horizon=%llds fault=%s\n",
                 outcome.shrunk->attempts, outcome.shrunk->accepted,
                 outcome.shrunk->scenario.nranks,
                 static_cast<long long>(outcome.shrunk->scenario.horizon /
                                        sim::kSecond),
                 std::string(faults::fault_type_name(
                                 outcome.shrunk->scenario.fault))
                     .c_str());
    if (outcome.shrunk_report) {
      for (const auto& f : outcome.shrunk_report->failures) {
        std::fprintf(stderr, "  [shrunk: %s] %s\n", f.oracle.c_str(),
                     f.detail.c_str());
      }
    }
  }
  std::fprintf(stderr, "  repro: %s\n", outcome.repro_command.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  if (args.has("help")) return usage();
  const auto unknown = args.unknown_keys(
      {"seeds", "seed0", "seed", "repro", "jobs", "no-shrink",
       "shrink-budget", "no-campaign-oracle", "plant", "quiet", "help"});
  if (!unknown.empty()) {
    for (const auto& key : unknown) {
      std::fprintf(stderr, "pscheck: unknown option --%s\n", key.c_str());
    }
    return usage();
  }
  util::set_log_level(util::LogLevel::kWarn);  // keep sweep output readable

  check::DriverOptions options;
  std::uint64_t single_seed = 0;
  int seeds = 0;
  std::uint64_t seed0 = 0;
  int jobs = 0;
  try {
    options.shrink_budget = args.get_whole<int>("shrink-budget", 80, 0);
    single_seed = args.get_whole<std::uint64_t>("seed", 1);
    seeds = args.get_whole<int>("seeds", 64, 1);
    seed0 = args.get_whole<std::uint64_t>("seed0", 1);
    jobs = harness::resolve_jobs(args.get_whole<int>("jobs", 0, 0));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "pscheck: %s\n", error.what());
    return 2;
  }
  options.shrink = !args.has("no-shrink");
  options.oracles.campaign_differential = !args.has("no-campaign-oracle");
  if (args.has("plant")) {
    const std::string plant = args.get("plant");
    if (plant != "clock") {
      std::fprintf(stderr, "pscheck: unknown --plant kind '%s'\n",
                   plant.c_str());
      return usage();
    }
    options.oracles.plant_clock_skew = 3600 * sim::kSecond;
  }
  const bool quiet = args.has("quiet");

  // --- Single repro string ---
  if (args.has("repro")) {
    const auto scenario = check::parse_repro(args.get("repro"));
    if (!scenario) {
      std::fprintf(stderr, "pscheck: malformed --repro string\n");
      return 2;
    }
    const auto outcome = check::check_scenario_full(*scenario, options);
    if (!outcome.ok()) {
      print_failure(outcome);
      return 1;
    }
    std::printf("repro scenario clean (%d runs)\n", outcome.runs_executed);
    return 0;
  }

  // --- Single seed ---
  if (args.has("seed")) {
    const auto outcome = check::check_seed(single_seed, options);
    if (!outcome.ok()) {
      print_failure(outcome);
      return 1;
    }
    std::printf("seed %llu clean (%d runs, repro %s)\n",
                static_cast<unsigned long long>(single_seed),
                outcome.runs_executed,
                check::to_repro(outcome.report.scenario).c_str());
    return 0;
  }

  // --- Seed sweep ---
  std::atomic<int> failed{0};
  std::atomic<long> total_runs{0};
  std::mutex report_mutex;
  harness::parallel_for(seeds, jobs, [&](int i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    const auto outcome = check::check_seed(seed, options);
    total_runs += outcome.runs_executed;
    if (!outcome.ok()) {
      ++failed;
      const std::lock_guard<std::mutex> lock(report_mutex);
      print_failure(outcome);
    } else if (!quiet) {
      const std::lock_guard<std::mutex> lock(report_mutex);
      std::printf("seed %llu ok (%d runs)\n",
                  static_cast<unsigned long long>(seed),
                  outcome.runs_executed);
    }
  });

  std::printf("pscheck: %d/%d seeds clean (%ld simulated runs, jobs=%d)\n",
              seeds - failed.load(), seeds, total_runs.load(), jobs);
  return failed.load() == 0 ? 0 : 1;
}
