#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <variant>

#include "check/driver.hpp"
#include "check/invariants.hpp"
#include "check/oracles.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"

namespace parastack::check {
namespace {

/// A deliberately small scenario so the simulation-backed tests stay fast.
Scenario tiny_scenario() {
  Scenario s;
  s.fuzz_seed = 5;
  s.run_seed = 12345;
  s.bench = workloads::kAllBenches[0];
  s.input = "C";
  s.nranks = 4;
  s.platform = 0;
  s.horizon = 30 * sim::kSecond;
  s.fault = faults::FaultType::kNone;
  s.background_slowdowns = false;
  s.use_monitor_network = true;
  s.with_timeout_detector = false;
  s.with_io_watchdog = false;
  s.campaign_runs = 2;
  return s;
}

TEST(Scenario, GenerationIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    EXPECT_TRUE(generate_scenario(seed) == generate_scenario(seed))
        << "seed " << seed;
  }
  EXPECT_FALSE(generate_scenario(1) == generate_scenario(2));
}

TEST(Scenario, GeneratedScenariosAreAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = generate_scenario(seed);
    EXPECT_GE(s.nranks, 2) << "seed " << seed;
    EXPECT_GT(s.horizon, 0) << "seed " << seed;
    EXPECT_GE(s.platform, 0);
    EXPECT_LE(s.platform, 2);
    EXPECT_GE(s.tool_loss, 0.0);
    EXPECT_LE(s.tool_loss, 1.0);
    EXPECT_GE(s.campaign_runs, 1);
    EXPECT_NE(s.run_seed, 0u);
    if (!s.use_monitor_network) {
      EXPECT_FALSE(s.tool_faults_armed()) << "seed " << seed;
    }
  }
}

TEST(Scenario, ReproStringRoundTripsEveryGeneratedScenario) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    const auto back = parse_repro(to_repro(s));
    ASSERT_TRUE(back.has_value()) << to_repro(s);
    EXPECT_TRUE(*back == s) << to_repro(s);
  }
}

TEST(Scenario, ParserRejectsGarbage) {
  EXPECT_FALSE(parse_repro("").has_value());
  EXPECT_FALSE(parse_repro("v2,fseed=1").has_value());
  EXPECT_FALSE(parse_repro("v1,what=ever").has_value());
  EXPECT_FALSE(parse_repro("v1,bench=NotABench").has_value());
  EXPECT_FALSE(parse_repro("v1,ranks=1").has_value());
  EXPECT_FALSE(parse_repro("v1,loss=1.5").has_value());
  EXPECT_FALSE(parse_repro("v1,horizon-ms=0").has_value());
  EXPECT_FALSE(parse_repro("v1,fleet=0").has_value());
  EXPECT_FALSE(parse_repro("v1,arrival=bursty").has_value());
}

TEST(Scenario, FleetDimensionIsDrawnAndValid) {
  int fleet_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = generate_scenario(seed);
    EXPECT_GE(s.fleet_jobs, 1) << "seed " << seed;
    EXPECT_LE(s.fleet_jobs, 3) << "seed " << seed;
    EXPECT_GE(s.fleet_arrival, 0);
    EXPECT_LE(s.fleet_arrival, 1);
    if (s.fleet_jobs > 1) {
      ++fleet_seeds;
    } else {
      EXPECT_EQ(s.fleet_arrival, 0) << "seed " << seed;
    }
  }
  // Roughly one seed in five lands in the fleet dimension: enough sweep
  // coverage without dominating its cost.
  EXPECT_GT(fleet_seeds, 10);
  EXPECT_LT(fleet_seeds, 100);
}

TEST(Scenario, FleetReproKeysAppearOnlyWhenMultiTenant) {
  Scenario s = tiny_scenario();
  EXPECT_EQ(to_repro(s).find("fleet="), std::string::npos);
  s.fleet_jobs = 3;
  s.fleet_arrival = 1;
  const std::string repro = to_repro(s);
  EXPECT_NE(repro.find("fleet=3"), std::string::npos);
  EXPECT_NE(repro.find("arrival=trace"), std::string::npos);
  const auto back = parse_repro(repro);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == s);
}

TEST(InvariantSink, CleanOnAHealthyRun) {
  harness::RunConfig config = to_run_config(tiny_scenario());
  InvariantSink sink;
  config.telemetry = &sink;
  std::vector<std::string> probe;
  config.post_run_probe = [&probe](const simmpi::World& world,
                                   const harness::RunResult& result) {
    check_run_invariants(world, result, probe);
  };
  (void)harness::run_one(config);
  EXPECT_TRUE(sink.clean()) << sink.violations().front();
  EXPECT_TRUE(probe.empty()) << probe.front();
}

/// Sends a default `E` stamped 10 s, then one stamped 5 s: the second must
/// open with the monotonicity violation, naming its kind. A kind without a
/// `time` field carries no clock; its name goes to `untimed` instead.
template <typename E>
void expect_backwards_clock_flagged(std::set<std::string>& untimed) {
  E event{};
  const std::string name(obs::event_name(event));
  if constexpr (requires { event.time; }) {
    InvariantSink sink;
    event.time = 10 * sim::kSecond;
    sink.on_event(event);
    const std::size_t before = sink.violations().size();
    event.time = 5 * sim::kSecond;
    sink.on_event(event);
    ASSERT_GT(sink.violations().size(), before) << name;
    EXPECT_EQ(sink.violations()[before].rfind(
                  "virtual time went backwards: " + name + " at ", 0),
              0u)
        << sink.violations()[before];
  } else {
    untimed.insert(name);
  }
}

TEST(InvariantSink, FlagsABackwardsClock) {
  std::set<std::string> untimed;
  [&untimed]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_backwards_clock_flagged<
         std::variant_alternative_t<I, obs::Event>>(untimed),
     ...);
  }(std::make_index_sequence<std::variant_size_v<obs::Event>>());
  EXPECT_EQ(untimed, (std::set<std::string>{"run_start", "rank_span"}));
}

TEST(InvariantSink, FlagsHangWithoutVerification) {
  InvariantSink sink;
  obs::HangEvent hang;
  hang.time = sim::kSecond;
  hang.detector = "parastack";
  sink.on_event(hang);
  ASSERT_FALSE(sink.clean());
  EXPECT_NE(sink.violations().front().find("verification"),
            std::string::npos);
}

TEST(Oracles, TinyScenarioPassesEveryOracle) {
  OracleOptions options;
  options.jobs = 2;
  const SeedReport report = check_scenario(tiny_scenario(), options);
  EXPECT_TRUE(report.ok()) << report.failures.front().oracle << ": "
                           << report.failures.front().detail;
  EXPECT_GT(report.runs_executed, 0);
}

TEST(Oracles, TinyFleetScenarioPassesTheFleetOracles) {
  Scenario s = tiny_scenario();
  s.fleet_jobs = 2;
  OracleOptions options;
  options.jobs = 2;
  options.campaign_differential = false;  // isolate the fleet oracles' cost
  const SeedReport report = check_scenario(s, options);
  EXPECT_TRUE(report.ok()) << report.failures.front().oracle << ": "
                           << report.failures.front().detail;
  // base + determinism + fleet-identity, then the isolation differential's
  // 2-tenant and 3-tenant fleets.
  EXPECT_EQ(report.runs_executed, 8);
}

TEST(Oracles, PlantedClockWarpIsCaught) {
  OracleOptions options;
  options.plant_clock_skew = 3600 * sim::kSecond;
  options.campaign_differential = false;  // keep the self-test fast
  const SeedReport report = check_scenario(tiny_scenario(), options);
  ASSERT_FALSE(report.ok());
  bool planted = false;
  for (const auto& f : report.failures) {
    if (f.oracle == "planted-clock") planted = true;
  }
  EXPECT_TRUE(planted);
}

TEST(Shrink, GreedyMinimizationOnAPureFunction) {
  // No simulation: the predicate is a pure function of the scenario, so
  // this exercises the shrinking loop in microseconds.
  Scenario failing = generate_scenario(99);
  failing.nranks = 64;
  const FailurePredicate fails = [](const Scenario& s) {
    return s.nranks >= 8;
  };
  ASSERT_TRUE(fails(failing));
  const ShrinkResult result = shrink_scenario(failing, fails, 200);
  EXPECT_TRUE(fails(result.scenario));
  EXPECT_EQ(result.scenario.nranks, 8);  // halving stops where it still fails
  // Orthogonal dimensions collapse too — fault dropped, detectors off.
  EXPECT_EQ(result.scenario.fault, faults::FaultType::kNone);
  EXPECT_FALSE(result.scenario.with_timeout_detector);
  EXPECT_FALSE(result.scenario.with_io_watchdog);
  EXPECT_GT(result.accepted, 0);
}

TEST(Shrink, BenchSwapRepairsTheInput) {
  // Shrinking an HPL scenario swaps the bench towards kAllBenches[0]; the
  // HPL input ("40000") is not an NPB class, so the swap must re-pair the
  // input or every shrunk candidate aborts inside the workload catalog.
  Scenario failing = tiny_scenario();
  failing.bench = workloads::Bench::kHPL;
  failing.input = "40000";
  const FailurePredicate fails = [](const Scenario& s) {
    // Building the profile PS_CHECK-aborts on a bad bench/input pairing.
    (void)workloads::make_profile(s.bench, s.input, s.nranks);
    return true;
  };
  const ShrinkResult result = shrink_scenario(failing, fails, 50);
  EXPECT_EQ(result.scenario.bench, workloads::kAllBenches[0]);
  EXPECT_EQ(result.scenario.input, default_fuzz_input(result.scenario.bench));
}

TEST(Shrink, BudgetIsRespected) {
  Scenario failing = generate_scenario(7);
  int calls = 0;
  const FailurePredicate fails = [&calls](const Scenario&) {
    ++calls;
    return true;  // everything fails: only the budget can stop the loop
  };
  const ShrinkResult result = shrink_scenario(failing, fails, 10);
  EXPECT_LE(result.attempts, 10);
  EXPECT_EQ(calls, result.attempts);
}

TEST(Driver, PlantedFailureShrinksAndReproduces) {
  DriverOptions options;
  options.oracles.plant_clock_skew = 3600 * sim::kSecond;
  options.oracles.campaign_differential = false;
  options.shrink_budget = 25;

  const CheckOutcome outcome = check_scenario_full(tiny_scenario(), options);
  ASSERT_FALSE(outcome.ok());
  ASSERT_TRUE(outcome.shrunk.has_value());
  EXPECT_NE(outcome.repro_command.find("pscheck --repro="),
            std::string::npos);
  EXPECT_NE(outcome.repro_command.find("--plant=clock"), std::string::npos);

  // The printed repro string must reproduce the failure stand-alone.
  const auto start = outcome.repro_command.find('\'');
  const auto end = outcome.repro_command.rfind('\'');
  ASSERT_NE(start, std::string::npos);
  ASSERT_GT(end, start);
  const std::string repro =
      outcome.repro_command.substr(start + 1, end - start - 1);
  const auto scenario = parse_repro(repro);
  ASSERT_TRUE(scenario.has_value()) << repro;
  const SeedReport again = check_scenario(*scenario, options.oracles);
  EXPECT_FALSE(again.ok());
}

TEST(Driver, CleanSeedReportsNoRepro) {
  DriverOptions options;
  options.oracles.campaign_differential = false;
  const CheckOutcome outcome =
      check_scenario_full(tiny_scenario(), options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.repro_command.empty());
  EXPECT_FALSE(outcome.shrunk.has_value());
}

}  // namespace
}  // namespace parastack::check
