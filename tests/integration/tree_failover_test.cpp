// Resilience coverage for the k-ary aggregation tree: interior-monitor
// deaths must promote a deterministic survivor and re-parent its subtree,
// a dead root must fail over to its promoted child (the tree
// generalization of lead failover), cascades must keep the survivors
// aggregating, and the default — fan-out "infinity", the flat star — is
// the one-level tree, aggregated and journaled the same way. Exercised
// both directly against MonitorNetwork and end-to-end through run_one()'s
// journal.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/monitor_network.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "workloads/synthetic.hpp"

namespace parastack {
namespace {

std::shared_ptr<const workloads::BenchmarkProfile> small_profile() {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->iterations = 4000;
  profile->reference_ranks = 48;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"w", sim::from_millis(25), 0.12, workloads::CommPattern::kHaloBlocking,
       64 * 1024},
      {"n", sim::from_millis(5), 0.1, workloads::CommPattern::kAllreduce, 16},
  };
  return profile;
}

/// 192 ranks on Tianhe-2 (24 cores/node) = 8 monitors. With fan-out 2 and
/// the identity placement (seed 0) the tree is the complete binary tree:
/// children(0)={1,2}, children(1)={3,4}, children(2)={5,6}, children(3)={7}.
simmpi::WorldConfig config192(std::uint64_t seed = 21) {
  simmpi::WorldConfig config;
  config.nranks = 192;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

core::TopologyConfig fanout2() {
  core::TopologyConfig config;
  config.fanout = 2;
  return config;
}

/// One rank per node: every monitor is active for this set.
const std::vector<simmpi::Rank> kAllNodesSet = {0,  24,  48,  72,
                                                96, 120, 144, 168};

TEST(TreeAggregation, HealthyGatherClimbsTheTree) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  ASSERT_EQ(network.topology().effective_fanout(), 2);
  ASSERT_EQ(network.lead_monitor(), 0);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(m.ranks_traced, 8);
  EXPECT_EQ(m.active_monitors, 8);
  // Every carrier but the root forwards once: 7 hops, but the root only
  // ever hears from its own two children.
  EXPECT_EQ(network.messages_sent(), 7u);
  EXPECT_EQ(network.tree_hops(), 7u);
  EXPECT_EQ(m.root_fan_in, 2);
  EXPECT_EQ(network.root_messages(), 2u);
  EXPECT_EQ(m.levels, 3);  // node 7 sits three hops below the root
  EXPECT_EQ(network.max_fan_in(), 2);
  EXPECT_GT(m.aggregation_latency, 0);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
  EXPECT_FALSE(m.degraded);
}

TEST(TreeAggregation, SingleNodeSetNeverLeavesItsMonitor) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());

  // All ranks on node 7: the partial still climbs 7 -> 3 -> 1 -> 0.
  const auto deep = network.measure({168, 169, 170});
  EXPECT_EQ(deep.active_monitors, 1);
  EXPECT_EQ(network.tree_hops(), 3u);
  EXPECT_EQ(deep.root_fan_in, 1);
  // All ranks on the root's own node: nothing crosses the network.
  const auto local = network.measure({0, 1, 2});
  EXPECT_EQ(local.active_monitors, 1);
  EXPECT_EQ(network.tree_hops(), 3u);  // unchanged
  EXPECT_EQ(local.root_fan_in, 0);
}

TEST(TreeFailover, InteriorCrashPromotesLowestChildAndAdoptsSiblings) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(network.monitor_crashes(), 1u);
  EXPECT_EQ(network.subtree_failovers(), 1u);
  EXPECT_EQ(network.lead_failovers(), 0u);  // the root never noticed
  EXPECT_EQ(network.lead_monitor(), 0);

  // Node 3 (lowest surviving child) took node 1's place; node 4 re-parents
  // under it, node 7 stays where it was.
  const core::MonitorTopology& tree = network.topology();
  ASSERT_TRUE(tree.built());
  EXPECT_TRUE(tree.removed(1));
  EXPECT_EQ(tree.parent(3), 0);
  EXPECT_EQ(tree.parent(4), 3);
  EXPECT_EQ(tree.parent(7), 3);
  EXPECT_EQ(tree.level(3), 1);
  EXPECT_EQ(tree.level(4), 2);

  // Node 1's ranks are uncovered; everyone else still aggregates.
  EXPECT_EQ(m.partials_missing, 1);
  EXPECT_NEAR(m.coverage, 7.0 / 8.0, 1e-12);
  EXPECT_FALSE(m.degraded);
  EXPECT_EQ(m.levels, 2);  // the promotion flattened the deep branch
  // The subtree re-registration stall is charged to this first sample only.
  EXPECT_GE(m.aggregation_latency,
            core::MonitorNetwork::kReregistrationLatency);
  const auto second = network.measure(kAllNodesSet);
  EXPECT_LT(second.aggregation_latency,
            core::MonitorNetwork::kReregistrationLatency);
}

TEST(TreeFailover, RootCrashFailsOverToPromotedChild) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  plan.lead_crash_at = sim::kSecond;
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  // A dead root is a lead failover, not a subtree failover: its lowest
  // child is the new root and adopts the other branch.
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_EQ(network.subtree_failovers(), 0u);
  EXPECT_EQ(network.lead_monitor(), 1);
  const core::MonitorTopology& tree = network.topology();
  ASSERT_TRUE(tree.built());
  EXPECT_EQ(tree.root(), 1);
  EXPECT_EQ(tree.parent(2), 1);
  EXPECT_EQ(m.partials_missing, 1);  // the old root's ranks went dark
  EXPECT_NEAR(m.coverage, 7.0 / 8.0, 1e-12);
  EXPECT_GE(m.aggregation_latency,
            core::MonitorNetwork::kReregistrationLatency);
}

TEST(TreeFailover, CascadeInTheSameWindowKeepsSurvivorsAggregating) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  // Node 1 dies, node 3 is promoted into its place — then dies too before
  // the next sample. Two independent promotions, zero lead failovers.
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  plan.monitor_crashes.push_back({.monitor = 3, .at = sim::kSecond});
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(network.monitor_crashes(), 2u);
  EXPECT_EQ(network.subtree_failovers(), 2u);
  EXPECT_EQ(network.lead_failovers(), 0u);
  EXPECT_EQ(network.lead_monitor(), 0);
  const core::MonitorTopology& tree = network.topology();
  ASSERT_TRUE(tree.built());
  // Second promotion: node 4 replaces node 3 and inherits node 7.
  EXPECT_EQ(tree.parent(4), 0);
  EXPECT_EQ(tree.parent(7), 4);
  EXPECT_EQ(m.partials_missing, 2);
  EXPECT_NEAR(m.coverage, 6.0 / 8.0, 1e-12);
  EXPECT_FALSE(m.degraded);
}

/// The one-level star over 8 monitors: monitor 0 at the root, every other
/// monitor its child.
void expect_star(const core::MonitorTopology& topology) {
  ASSERT_TRUE(topology.built());
  EXPECT_EQ(topology.root(), 0);
  EXPECT_EQ(topology.effective_fanout(), 7);
  EXPECT_EQ(topology.children(0), (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  for (int node = 1; node < 8; ++node) {
    EXPECT_EQ(topology.parent(node), 0);
    EXPECT_EQ(topology.level(node), 1);
  }
}

TEST(TreeFailover, DefaultNetworkIsTheStar) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  expect_star(network.topology());
  core::TopologyConfig star;  // fanout 0 = "infinite" = the flat star
  network.set_topology(star);
  expect_star(network.topology());
  EXPECT_EQ(network.lead_monitor(), 0);
}

TEST(TreeFailoverDeath, ArmingAfterSamplingRejected) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.measure({0});
  EXPECT_DEATH(network.set_topology(fanout2()), "before the first sample");
}

// --- End-to-end through run_one() ------------------------------------------

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

TEST(TreeFailover, UnsetTreeIsByteIdenticalToExplicitStar) {
  // The compatibility contract: not asking for a tree and explicitly
  // asking for fan-out "infinity" are the same run, byte for byte.
  harness::RunConfig star = hang_config(5);
  harness::RunConfig inf = hang_config(5);
  inf.monitor_tree.fanout = 0;
  EXPECT_EQ(journal_of(star), journal_of(inf));
}

TEST(TreeFailover, TreeRunDetectsLikeTheStarAndJournalsItsLevels) {
  harness::RunConfig star_config = hang_config(9);
  harness::RunConfig tree_config = hang_config(9);
  tree_config.monitor_tree.fanout = 2;

  const auto star = harness::run_one(star_config);
  const auto tree = harness::run_one(tree_config);
  // The tree reroutes the tool's own traffic, not its observations: the
  // same hang is caught at the same instant.
  ASSERT_FALSE(star.hangs().empty());
  ASSERT_FALSE(tree.hangs().empty());
  EXPECT_EQ(star.hangs().front().detected_at, tree.hangs().front().detected_at);
  // Aggregation accounting flows to the RunResult for both shapes.
  EXPECT_GT(tree.tree_hops, 0u);
  EXPECT_LE(tree.max_monitor_fan_in, 2);
  EXPECT_LE(tree.root_messages, tree.tree_hops);

  const std::string star_log = journal_of(star_config);
  const std::string tree_log = journal_of(tree_config);
  // The star is the one-level tree: every message is one hop to the root,
  // and every sample that hears from another monitor writes one level-1
  // gather line.
  std::uint64_t star_messages = 0;
  int star_gathers = 0;
  int star_levels = 0;
  std::istringstream lines(star_log);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("{\"ev\":\"monitor_sample\"")) {
      const auto at = line.find("\"messages\":");
      ASSERT_NE(at, std::string::npos) << line;
      star_messages += std::stoull(line.substr(at + 11));
      if (line.find("\"root_fan_in\":0") == std::string::npos) ++star_gathers;
    } else if (line.starts_with("{\"ev\":\"monitor_level\"")) {
      EXPECT_NE(line.find("\"level\":1,"), std::string::npos) << line;
      ++star_levels;
    }
  }
  EXPECT_GT(star.tree_hops, 0u);
  EXPECT_EQ(star.tree_hops, star_messages);
  EXPECT_GT(star_gathers, 0);
  EXPECT_EQ(star_levels, star_gathers);
  EXPECT_NE(tree_log.find("\"ev\":\"monitor_level\""), std::string::npos);
  EXPECT_EQ(star_log.find("\"tree\":"), std::string::npos);
  EXPECT_EQ(tree_log.find("\"tree\":"), std::string::npos);
}

TEST(TreeFailover, InteriorCrashIsJournaledEndToEnd) {
  // The runner derives the tree placement from the run seed; for seed 9
  // monitor 1 is an interior node with one child (monitor 2), so killing
  // it promotes 2 under the root — visible in the journal and in the
  // RunResult counters.
  harness::RunConfig config = hang_config(9);
  config.fault = faults::FaultType::kNone;
  config.monitor_tree.fanout = 2;
  config.tool_faults.monitor_crashes.push_back(
      {.monitor = 1, .at = 40 * sim::kSecond});

  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  const auto result = harness::run_one(config);
  EXPECT_EQ(result.monitor_crashes, 1u);
  EXPECT_EQ(result.subtree_failovers, 1u);
  EXPECT_EQ(result.lead_failovers, 0u);

  const std::string log = out.str();
  EXPECT_NE(log.find("\"ev\":\"monitor_crash\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"tree_failover\""), std::string::npos);
  EXPECT_NE(log.find("\"failed\":1"), std::string::npos);
  EXPECT_NE(log.find("\"promoted\":2"), std::string::npos);
  EXPECT_EQ(log.find("\"ev\":\"lead_failover\""), std::string::npos);
}

}  // namespace
}  // namespace parastack
