// Per-level gather deadline on the monitor topology: a level that would
// take longer than the deadline forwards what it has and caps its latency
// contribution. The cap is latency-only (partial counts still aggregate in
// full, so S_crout is untouched), applies to the star's one gather as to
// every tree level, and is a no-op when unset.

#include <gtest/gtest.h>

#include <sstream>

#include "core/monitor_network.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

std::shared_ptr<const workloads::BenchmarkProfile> small_profile() {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->iterations = 4000;
  profile->reference_ranks = 192;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"w", sim::from_millis(25), 0.12,
       workloads::CommPattern::kHaloBlocking, 64 * 1024},
      {"n", sim::from_millis(5), 0.1, workloads::CommPattern::kAllreduce, 16},
  };
  return profile;
}

simmpi::WorldConfig config192(std::uint64_t seed = 21) {
  simmpi::WorldConfig config;
  config.nranks = 192;
  config.platform = sim::Platform::tianhe2();  // 8 nodes -> 8 monitors
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

std::vector<simmpi::Rank> all_ranks() {
  std::vector<simmpi::Rank> set(192);
  for (int r = 0; r < 192; ++r) set[r] = r;
  return set;
}

TopologyConfig deadline_tree(sim::Time deadline, int fanout = 2) {
  TopologyConfig config;
  config.fanout = fanout;  // 2: 8 monitors -> 3 gather levels; 0: the star
  config.level_deadline = deadline;
  return config;
}

TEST(TreeDeadline, TightDeadlineCapsLatencyButNotTheCount) {
  for (const int fanout : {2, 0}) {
    SCOPED_TRACE(fanout);
    simmpi::World uncapped_world(config192(),
                                workloads::make_factory(small_profile()));
    trace::StackInspector uncapped_inspector(uncapped_world);
    MonitorNetwork uncapped(uncapped_world, uncapped_inspector);
    uncapped.set_topology(deadline_tree(0, fanout));

    simmpi::World capped_world(config192(),
                               workloads::make_factory(small_profile()));
    trace::StackInspector capped_inspector(capped_world);
    MonitorNetwork capped(capped_world, capped_inspector);
    capped.set_topology(deadline_tree(sim::from_micros(1), fanout));

    const auto set = all_ranks();
    const auto slow = uncapped.measure(set);
    const auto fast = capped.measure(set);
    // Identical worlds, identical observation — only the latency differs.
    EXPECT_DOUBLE_EQ(slow.scrout, fast.scrout);
    EXPECT_EQ(slow.ranks_traced, fast.ranks_traced);
    EXPECT_LT(fast.aggregation_latency, slow.aggregation_latency);
    EXPECT_EQ(uncapped.level_deadline_hits(), 0u);
    EXPECT_GT(capped.level_deadline_hits(), 0u);
  }
}

TEST(TreeDeadline, GenerousDeadlineNeverFires) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  network.set_topology(deadline_tree(10 * sim::kSecond));
  (void)network.measure(all_ranks());
  EXPECT_EQ(network.level_deadline_hits(), 0u);
}

// --- End-to-end guards through run_one() -----------------------------------

harness::RunConfig hang_config(std::uint64_t seed) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 96;
  config.platform = sim::Platform::tianhe2();  // 4 nodes
  config.seed = seed;
  config.background_slowdowns = false;
  config.fault = faults::FaultType::kComputeHang;
  config.fault_trigger_lo = 40 * sim::kSecond;
  config.fault_trigger_hi = 40 * sim::kSecond;
  return config;
}

std::string journal_of(harness::RunConfig config) {
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  (void)harness::run_one(config);
  return out.str();
}

TEST(TreeDeadline, UnsetDeadlineMatchesGenerousDeadline) {
  // The deadline only caps; a bound no level ever reaches is a no-op.
  harness::RunConfig plain = hang_config(9);
  plain.monitor_tree.fanout = 2;
  harness::RunConfig generous = hang_config(9);
  generous.monitor_tree.fanout = 2;
  generous.monitor_tree.level_deadline = 10 * sim::kSecond;
  EXPECT_EQ(journal_of(plain), journal_of(generous));
}

TEST(TreeDeadline, TightDeadlineStillDetectsTheHang) {
  // Capped gathers shift tool latency, never the observation stream: the
  // detector still catches the hang.
  harness::RunConfig config = hang_config(9);
  config.monitor_tree.fanout = 2;
  config.monitor_tree.level_deadline = sim::from_micros(1);
  const auto result = harness::run_one(config);
  ASSERT_FALSE(result.hangs().empty());
  EXPECT_FALSE(result.completed);
}

}  // namespace
}  // namespace parastack::core
